//! Structural lints beyond completeness and consistency.
//!
//! The paper's method works because "the relations among the operations
//! are … explicitly stated"; these lints flag relations that are stated
//! *twice* — overlapping left-hand sides — which is legal but usually a
//! specification smell: either the axioms are redundant (same meaning) or
//! the rule order silently decides which one fires.

use std::collections::HashMap;

use adt_core::{match_pattern, Spec, Term};
use adt_rewrite::superpositions;

/// A pair of axioms whose left-hand sides overlap at the root: some term
/// is matched by both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapPair {
    /// Label of the earlier axiom (which the rewriter tries first).
    pub first: String,
    /// Label of the later axiom (shadowed wherever both match).
    pub second: String,
    /// Whether the later axiom is *fully* shadowed: every term it matches
    /// is already matched by the earlier one (it can never fire).
    pub fully_shadowed: bool,
}

/// Finds all pairs of same-head axioms whose left-hand sides overlap, in
/// declaration order (earlier axiom first, then later axiom).
///
/// These are the root-position superpositions of [`superpositions`],
/// each pair of axioms taken once, with the earlier axiom outer. Full
/// shadowing is a one-way match of the earlier pattern onto the later
/// one.
pub fn overlapping_axioms(spec: &Spec) -> Vec<OverlapPair> {
    let axioms = spec.axioms();
    let index: HashMap<&str, usize> = axioms
        .iter()
        .enumerate()
        .map(|(i, ax)| (ax.label(), i))
        .collect();
    // Superpositions come outer axiom first, then inner axiom, so the
    // root pairs with the earlier axiom outer are in declaration order.
    superpositions(spec)
        .superpositions
        .iter()
        .filter(|sp| sp.position.is_empty())
        .map(|sp| (index[sp.outer_rule.as_str()], index[sp.inner_rule.as_str()]))
        .filter(|(i, j)| i < j)
        .map(|(i, j)| OverlapPair {
            first: axioms[i].label().to_owned(),
            second: axioms[j].label().to_owned(),
            // The later axiom is dead iff the earlier one's pattern is at
            // least as general (matches everything it matches).
            fully_shadowed: match_pattern(axioms[i].lhs(), axioms[j].lhs()).is_some(),
        })
        .collect()
}

/// A recursion-shape warning for one axiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecursionWarning {
    /// The right side contains the left side verbatim: rewriting loops
    /// unconditionally (e.g. `F(x) = F(x)`).
    DefiniteLoop {
        /// Label of the axiom.
        axiom: String,
    },
    /// The left side inspects no constructor (all arguments are bare
    /// variables) while the right side recurses through the same
    /// operation: ground rewriting may terminate, but *symbolic*
    /// rewriting of the operation applied to variables diverges. The fix
    /// is the case-by-constructor form (compare `RETRIEVE'` in
    /// `specs/symboltable_rep.adt`).
    GeneralRecursion {
        /// Label of the axiom.
        axiom: String,
        /// Name of the recursive operation.
        op: String,
    },
}

impl std::fmt::Display for RecursionWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecursionWarning::DefiniteLoop { axiom } => write!(
                f,
                "axiom `{axiom}` loops: its right side contains its left side verbatim"
            ),
            RecursionWarning::GeneralRecursion { axiom, op } => write!(
                f,
                "axiom `{axiom}` defines `{op}` by general recursion (no constructor on \
                 the left, `{op}` on the right); symbolic rewriting may diverge — prefer \
                 one axiom per constructor case"
            ),
        }
    }
}

/// Flags axioms whose shape endangers termination of rewriting: definite
/// loops (right side contains the left) and general recursive
/// definitions (variable-only left side with head-recursion on the
/// right).
pub fn recursion_warnings(spec: &Spec) -> Vec<RecursionWarning> {
    let mut out = Vec::new();
    for ax in spec.axioms() {
        if ax.rhs().contains(ax.lhs()) {
            out.push(RecursionWarning::DefiniteLoop {
                axiom: ax.label().to_owned(),
            });
            continue;
        }
        let Some(head) = ax.head_op() else { continue };
        let Term::App(_, args) = ax.lhs() else {
            continue;
        };
        let all_vars = args.iter().all(|a| matches!(a, Term::Var(_)));
        if !all_vars {
            continue;
        }
        let head_recursive = ax
            .rhs()
            .subterms()
            .iter()
            .any(|(_, t)| matches!(t, Term::App(op, _) if *op == head));
        if head_recursive {
            out.push(RecursionWarning::GeneralRecursion {
                axiom: ax.label().to_owned(),
                op: spec.sig().op(head).name().to_owned(),
            });
        }
    }
    out
}

/// Renders [`overlapping_axioms`] results as human-readable warnings.
pub fn overlap_warnings(spec: &Spec) -> Vec<String> {
    overlapping_axioms(spec)
        .into_iter()
        .map(|p| {
            if p.fully_shadowed {
                format!(
                    "axiom `{}` can never fire: axiom `{}` matches everything it matches",
                    p.second, p.first
                )
            } else {
                format!(
                    "axioms `{}` and `{}` overlap: rule order decides which fires \
                     on their common instances",
                    p.first, p.second
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::SpecBuilder;

    #[test]
    fn orthogonal_axioms_produce_no_warnings() {
        let mut b = SpecBuilder::new("Nat");
        let s = b.sort("Nat");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let x = Term::Var(b.var("x", s));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [x])]), ff);
        let spec = b.build().unwrap();
        assert!(overlapping_axioms(&spec).is_empty());
    }

    #[test]
    fn a_declared_renaming_name_does_not_hide_an_overlap() {
        // F(x, A) and F(B, x) overlap on F(B, A) once the second `x` is
        // renamed apart, even when a variable already has the name a
        // renaming would pick first.
        let mut b = SpecBuilder::new("S");
        let s = b.sort("S");
        let a = b.ctor("A", [], s);
        let bb = b.ctor("B", [], s);
        let f = b.op("F", [s, s], s);
        let x = Term::Var(b.var("x", s));
        b.var("x~2", s);
        b.var("x\u{2032}", s);
        b.axiom("f1", b.app(f, [x.clone(), b.app(a, [])]), b.app(a, []));
        b.axiom("f2", b.app(f, [b.app(bb, []), x]), b.app(bb, []));
        let spec = b.build().unwrap();
        let pairs = overlapping_axioms(&spec);
        assert_eq!(
            pairs,
            [OverlapPair {
                first: "f1".to_owned(),
                second: "f2".to_owned(),
                fully_shadowed: false,
            }]
        );
    }

    #[test]
    fn a_dead_axiom_is_flagged_as_fully_shadowed() {
        let mut b = SpecBuilder::new("S");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("general", b.app(f, [x]), b.app(c, []));
        b.axiom("specific", b.app(f, [b.app(c, [])]), b.app(c, []));
        let spec = b.build().unwrap();
        let pairs = overlapping_axioms(&spec);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].first, "general");
        assert_eq!(pairs[0].second, "specific");
        assert!(pairs[0].fully_shadowed);
        let warnings = overlap_warnings(&spec);
        assert!(warnings[0].contains("can never fire"), "{warnings:?}");
    }

    #[test]
    fn overlaps_under_several_heads_come_out_in_declaration_order() {
        // Axioms of F and G interleaved: pairs are ordered by the earlier
        // axiom, then the later one, whatever bucket they sit in.
        let mut b = SpecBuilder::new("S");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let g = b.op("G", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("g1", b.app(g, [b.app(c, [])]), b.app(c, []));
        b.axiom("f1", b.app(f, [x.clone()]), b.app(c, []));
        b.axiom("g2", b.app(g, [x.clone()]), b.app(c, []));
        b.axiom("f2", b.app(f, [b.app(c, [])]), b.app(c, []));
        b.axiom("g3", b.app(g, [x]), b.app(c, []));
        let spec = b.build().unwrap();
        let pairs: Vec<_> = overlapping_axioms(&spec)
            .into_iter()
            .map(|p| (p.first, p.second, p.fully_shadowed))
            .collect();
        let expected = [
            ("g1", "g2", false),
            ("g1", "g3", false),
            ("f1", "f2", true),
            ("g2", "g3", true),
        ]
        .map(|(a, b, dead)| (a.to_owned(), b.to_owned(), dead));
        assert_eq!(pairs, expected);
    }

    #[test]
    fn partial_overlap_is_flagged_without_shadowing() {
        // F(C, x) and F(x, C) overlap only on F(C, C).
        let mut b = SpecBuilder::new("S");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s, s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("left", b.app(f, [b.app(c, []), x.clone()]), b.app(d, []));
        b.axiom("right", b.app(f, [x, b.app(c, [])]), b.app(d, []));
        let spec = b.build().unwrap();
        let pairs = overlapping_axioms(&spec);
        assert_eq!(pairs.len(), 1);
        assert!(!pairs[0].fully_shadowed);
        assert!(overlap_warnings(&spec)[0].contains("rule order"));
    }

    #[test]
    fn definite_loops_are_flagged() {
        let mut b = SpecBuilder::new("Loop");
        let s = b.sort("S");
        b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("loop", b.app(f, [x.clone()]), b.app(f, [x]));
        let spec = b.build().unwrap();
        let warnings = recursion_warnings(&spec);
        assert_eq!(warnings.len(), 1);
        assert!(matches!(warnings[0], RecursionWarning::DefiniteLoop { .. }));
        assert!(warnings[0].to_string().contains("verbatim"));
    }

    #[test]
    fn general_recursion_is_flagged_and_case_form_is_not() {
        // G(x) = H(G(K(x))) — general recursion through G.
        let mut b = SpecBuilder::new("Rec");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let k = b.ctor("K", [s], s);
        let g = b.op("G", [s], s);
        let h = b.op("H", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom(
            "general",
            b.app(g, [x.clone()]),
            b.app(h, [b.app(g, [b.app(k, [x.clone()])])]),
        );
        // The case-by-constructor form of the same idea is fine.
        b.axiom("case_c", b.app(h, [b.app(c, [])]), b.app(c, []));
        b.axiom("case_k", b.app(h, [b.app(k, [x.clone()])]), b.app(h, [x]));
        let spec = b.build().unwrap();
        let warnings = recursion_warnings(&spec);
        assert_eq!(warnings.len(), 1);
        match &warnings[0] {
            RecursionWarning::GeneralRecursion { axiom, op } => {
                assert_eq!(axiom, "general");
                assert_eq!(op, "G");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn nonrecursive_general_rules_pass() {
        // REPLACE-style: variable-only left side, but no self-recursion.
        let mut b = SpecBuilder::new("Ok");
        let s = b.sort("S");
        let c = b.ctor("C", [s], s);
        b.ctor("D", [], s);
        let r = b.op("R", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("r", b.app(r, [x.clone()]), b.app(c, [x]));
        let spec = b.build().unwrap();
        assert!(recursion_warnings(&spec).is_empty());
    }

    #[test]
    fn the_paper_specs_are_overlap_free_except_general_rules() {
        // A spot check used by the shipped-spec hygiene test: the Queue
        // axioms never overlap.
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        b.ctor("A", [], item);
        let new = b.ctor("NEW", [], queue);
        let add = b.ctor("ADD", [queue, item], queue);
        let front = b.op("FRONT", [queue], item);
        let q = Term::Var(b.var("q", queue));
        let i = Term::Var(b.var("i", item));
        b.axiom("3", b.app(front, [b.app(new, [])]), Term::Error(item));
        b.axiom("4", b.app(front, [b.app(add, [q, i.clone()])]), i);
        let spec = b.build().unwrap();
        assert!(overlapping_axioms(&spec).is_empty());
    }
}
