//! Critical pairs: superpositions of rule left-hand sides.
//!
//! When two axioms can both rewrite one term, the two results must be
//! joinable or the axiom set equates things it should not — the paper's
//! *consistency* concern ("If any two of these are contradictory, the
//! axiomatization is inconsistent", §3). This module enumerates the
//! superpositions of a specification ([`superpositions`]) and classifies
//! each as joinable or diverged ([`classify_superposition`]).

use std::iter::successors;

use adt_core::{unify, Axiom, Fuel, FuelSpent, Interrupt, Position, Spec, Subst, Term};

use crate::engine::Rewriter;
use crate::error::RewriteError;

/// How a critical pair resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairStatus {
    /// Both reducts normalize to the same term.
    Joinable(Term),
    /// The reducts normalize to different terms — evidence of
    /// inconsistency if the two normal forms are distinct constructor
    /// terms (e.g. `true` vs `false`).
    Diverged {
        /// Normal form of the root-rewrite reduct.
        left_nf: Term,
        /// Normal form of the inner-rewrite reduct.
        right_nf: Term,
    },
    /// Normalization ran out of fuel, so joinability is unknown — but
    /// structurally so: the receipt lets a retry ladder re-classify the
    /// pair with a bigger budget.
    Exhausted {
        /// What was spent before the budget tripped.
        spent: FuelSpent,
        /// The budget that tripped.
        budget: Fuel,
    },
    /// The run's supervisor stopped the classification (cancellation or
    /// deadline); never retried.
    Interrupted {
        /// Why the supervisor fired.
        kind: Interrupt,
    },
    /// Normalization failed for another reason, so joinability is
    /// unknown.
    Unknown {
        /// Human-readable reason.
        reason: String,
    },
}

/// One superposition: a critical pair before joinability classification.
///
/// Produced by [`superpositions`]; classified into a [`PairStatus`] by
/// [`classify_superposition`]. The split exists so callers (the parallel
/// checking engine in `adt-check`) can enumerate sequentially — the
/// enumeration order defines report order — and classify each pair on any
/// worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superposition {
    /// Label of the rule applied at the root.
    pub outer_rule: String,
    /// Label of the rule applied at `position`.
    pub inner_rule: String,
    /// The overlap position inside `outer_rule`'s left-hand side.
    pub position: Position,
    /// The common ancestor `σ(l_outer)`.
    pub peak: Term,
    /// The root-rewrite reduct `σ(r_outer)`.
    pub left: Term,
    /// The inner-rewrite reduct `σ(l_outer[r_inner]_p)`.
    pub right: Term,
}

/// All superpositions of a specification, with the variable-renamed
/// extension of the spec their terms live in.
#[derive(Debug, Clone)]
pub struct SuperpositionSet {
    /// The input specification extended with renamed-apart variables.
    pub spec: Spec,
    /// Superpositions in declaration order: outer axiom, inner axiom,
    /// position.
    pub superpositions: Vec<Superposition>,
}

/// Enumerates every non-trivial superposition of the specification's
/// axioms *without* checking joinability.
///
/// Trivial self-overlaps (an axiom superposed on itself at the root) are
/// skipped, as are overlaps at variable positions. The returned order is
/// the declaration order of [`Spec::axioms`]: outer axiom first, then
/// inner axiom, then position in `subterms()` order. It is the same on
/// every run and at every job count, which is what lets pair indices key
/// fault arming, retry lines and checkpoints.
///
/// A non-variable subterm can only unify with a left-hand side of the
/// same root operation, so the inner axioms are bucketed by root
/// ([`Spec::axiom_indices_by_head`]). Each outer axiom lists its subterms
/// once, gathers (inner axiom, position) candidates from the bucket of
/// each subterm's root, sorts them into declaration order and unifies
/// only those. The cost is one unification per candidate — the size of
/// the buckets the positions hit — instead of one per axiom² × position.
pub fn superpositions(spec: &Spec) -> SuperpositionSet {
    let (extended, renaming) = rename_apart(spec);
    let axioms = extended.axioms();
    let renamed: Vec<(Term, Term)> = axioms
        .iter()
        .map(|ax| (renaming.apply(ax.lhs()), renaming.apply(ax.rhs())))
        .collect();
    let by_root = extended.axiom_indices_by_head();
    let mut found = Vec::new();
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (oi, outer) in axioms.iter().enumerate() {
        let subterms = outer.lhs().subterms();
        candidates.clear();
        for (pi, (pos, sub)) in subterms.iter().enumerate() {
            // Variables are skipped; a conditional or error subterm never
            // unifies with a left-hand side, which is an application.
            let Term::App(op, _) = sub else {
                continue;
            };
            candidates.extend(
                by_root[op.index()]
                    .iter()
                    .filter(|&&ii| !(ii == oi && pos.is_empty())) // trivial self-overlap
                    .map(|&ii| (ii, pi)),
            );
        }
        candidates.sort_unstable();
        for &(ii, pi) in &candidates {
            let (pos, sub) = &subterms[pi];
            let (inner_lhs, inner_rhs) = &renamed[ii];
            if let Some(unifier) = unify(sub, inner_lhs) {
                found.push(superpose(
                    outer,
                    &axioms[ii],
                    inner_rhs,
                    pos,
                    &unifier.subst,
                ));
            }
        }
    }
    SuperpositionSet {
        spec: extended,
        superpositions: found,
    }
}

/// The spec extended with a renamed copy of every variable, and the
/// renaming from each variable to its copy, so that two axioms, one of
/// them renamed, never share a variable.
///
/// The copy of `x` is `x′` (a prime mark), or `x′′`, `x′′′`, … if that
/// name is taken.
pub fn rename_apart(spec: &Spec) -> (Spec, Subst) {
    spec.extend(|fresh| {
        let mut renaming = Subst::new();
        for v in spec.sig().var_ids() {
            let info = spec.sig().var(v);
            let primed = successors(Some(format!("{}\u{2032}", info.name())), |name| {
                Some(format!("{name}\u{2032}"))
            });
            renaming.bind(v, Term::Var(fresh.var(info.sort(), primed)));
        }
        renaming
    })
}

/// The superposition of `inner` (renamed apart, right side `inner_rhs`)
/// into `outer` at `pos`, under the unifier `subst` of the two.
fn superpose(
    outer: &Axiom,
    inner: &Axiom,
    inner_rhs: &Term,
    pos: &Position,
    subst: &Subst,
) -> Superposition {
    let replaced = outer
        .lhs()
        .replace_at(pos, inner_rhs.clone())
        .expect("position came from subterms()");
    Superposition {
        outer_rule: outer.label().to_owned(),
        inner_rule: inner.label().to_owned(),
        position: pos.clone(),
        peak: deep_apply(subst, outer.lhs()),
        left: deep_apply(subst, outer.rhs()),
        right: deep_apply(subst, &replaced),
    }
}

/// Classifies one superposition as joinable, diverged, or unknown, by
/// normalizing both reducts with the given rewriter.
///
/// The rewriter must have been built over [`SuperpositionSet::spec`] (the
/// extended spec), not the original input spec. Safe to call from several
/// threads at once when the rewriter is shared by reference.
pub fn classify_superposition(rw: &Rewriter<'_>, sp: &Superposition) -> PairStatus {
    join(rw, &sp.left, &sp.right)
}

/// Applies a (possibly triangular) unifier until fixpoint, so chained
/// variable bindings fully resolve.
fn deep_apply(subst: &Subst, term: &Term) -> Term {
    let mut current = subst.apply(term);
    for _ in 0..64 {
        let next = subst.apply(&current);
        if next == current {
            return current;
        }
        current = next;
    }
    current
}

fn join(rw: &Rewriter<'_>, left: &Term, right: &Term) -> PairStatus {
    match rw.prove_equal(left, right, 6) {
        Ok(crate::Proof::Proved { .. }) => match rw.normalize(left) {
            Ok(nf) => PairStatus::Joinable(nf),
            Err(e) => undetermined(e),
        },
        Ok(crate::Proof::Undecided { lhs_nf, rhs_nf, .. }) => PairStatus::Diverged {
            left_nf: lhs_nf,
            right_nf: rhs_nf,
        },
        Err(e) => undetermined(e),
    }
}

/// Maps a normalization error to the matching undetermined status,
/// keeping exhaustion receipts and interrupts structural so the check
/// layer can retry (or refuse to retry) without parsing strings.
fn undetermined(e: RewriteError) -> PairStatus {
    match e {
        RewriteError::Exhausted { spent, budget } => PairStatus::Exhausted { spent, budget },
        RewriteError::Interrupted { kind, .. } => PairStatus::Interrupted { kind },
        other => PairStatus::Unknown {
            reason: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::{DetRng, OpId, SpecBuilder};

    /// The enumeration the root-operation index replaced: every triple of
    /// outer axiom, inner axiom and non-variable position, unified. Kept
    /// as the reference the index must agree with, order included.
    fn naive_superpositions(spec: &Spec) -> Vec<Superposition> {
        let (extended, renaming) = rename_apart(spec);
        let axioms = extended.axioms();
        let mut found = Vec::new();
        for (oi, outer) in axioms.iter().enumerate() {
            for (ii, inner) in axioms.iter().enumerate() {
                let inner_lhs = renaming.apply(inner.lhs());
                let inner_rhs = renaming.apply(inner.rhs());
                for (pos, sub) in outer.lhs().subterms() {
                    if matches!(sub, Term::Var(_)) || (oi == ii && pos.is_empty()) {
                        continue;
                    }
                    if let Some(unifier) = unify(sub, &inner_lhs) {
                        found.push(superpose(outer, inner, &inner_rhs, &pos, &unifier.subst));
                    }
                }
            }
        }
        found
    }

    /// Asserts that the index and the naive loop agree on `spec`, and
    /// returns the superpositions.
    fn indexed_matches_naive(spec: &Spec) -> Vec<Superposition> {
        let indexed = superpositions(spec).superpositions;
        assert_eq!(indexed, naive_superpositions(spec), "spec {}", spec.name());
        indexed
    }

    /// Every `.adt` file in `dir` (relative to the workspace root),
    /// parsed, in file-name order, with its file name.
    fn specs_in(dir: &str) -> Vec<(String, Spec)> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "adt"))
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).unwrap();
                let spec =
                    adt_dsl::parse(&text).unwrap_or_else(|e| panic!("{}: {e:?}", p.display()));
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, spec)
            })
            .collect()
    }

    /// `(outer, inner, position)` of each superposition.
    fn shape(sps: &[Superposition]) -> Vec<(&str, &str, Position)> {
        sps.iter()
            .map(|sp| {
                (
                    sp.outer_rule.as_str(),
                    sp.inner_rule.as_str(),
                    sp.position.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn index_matches_naive_on_shipped_specs_and_fixtures() {
        let specs = specs_in("specs");
        assert_eq!(specs.len(), 12);
        for (_, spec) in &specs {
            indexed_matches_naive(spec);
        }
        // Every fixture runs the check; these have their pair counts
        // pinned: the pairs the fault-injection tests arm, twelve root
        // pairs under six heads, and none.
        let pinned = [
            ("f_h_pairs.adt", 2),
            ("overlap_heads.adt", 12),
            ("taken_witness_name.adt", 0),
        ];
        let fixtures = specs_in("tests/fixtures");
        for (name, spec) in &fixtures {
            let pairs = indexed_matches_naive(spec);
            if let Some(&(_, want)) = pinned.iter().find(|(file, _)| file == name) {
                assert_eq!(pairs.len(), want, "{name}");
            }
            if name == "f_h_pairs.adt" {
                assert_eq!(shape(&pairs), [("f0", "f1", vec![]), ("f1", "f0", vec![])]);
            }
        }
        for (file, _) in pinned {
            assert!(
                fixtures.iter().any(|(name, _)| name == file),
                "{file} is missing"
            );
        }
    }

    /// Sort `N` with `ZERO`, `SUCC`, unary `F`, `G`, and `SAME?: N N -> Bool`.
    struct Nat {
        b: SpecBuilder,
        n: adt_core::SortId,
        zero: OpId,
        succ: OpId,
        f: OpId,
        g: OpId,
        same: OpId,
    }

    fn nat_builder(name: &str) -> Nat {
        let mut b = SpecBuilder::new(name);
        let n = b.sort("N");
        let zero = b.ctor("ZERO", [], n);
        let succ = b.ctor("SUCC", [n], n);
        let f = b.op("F", [n], n);
        let g = b.op("G", [n], n);
        let same = b.op("SAME?", [n, n], b.bool_sort());
        Nat {
            b,
            n,
            zero,
            succ,
            f,
            g,
            same,
        }
    }

    #[test]
    fn index_matches_naive_on_a_nested_overlap() {
        // G(SUCC(F(ZERO))) = ZERO and F(ZERO) = SUCC(ZERO): the inner rule
        // sits at position [0, 0], below the root.
        let Nat {
            mut b,
            zero,
            succ,
            f,
            g,
            ..
        } = nat_builder("Nested");
        let z = b.app(zero, []);
        let f_zero = b.app(f, [z.clone()]);
        b.axiom("g1", b.app(g, [b.app(succ, [f_zero.clone()])]), z.clone());
        b.axiom("f1", f_zero, b.app(succ, [z]));
        let spec = b.build().unwrap();
        let sps = indexed_matches_naive(&spec);
        assert_eq!(shape(&sps), [("g1", "f1", vec![0, 0])]);
    }

    #[test]
    fn index_matches_naive_on_a_non_root_self_overlap() {
        // F(F(x)) = x overlaps itself at [0]: F(F(F(x'))).
        let Nat { mut b, n, f, .. } = nat_builder("SelfOverlap");
        let x = b.var("x", n);
        b.axiom("ff", b.app(f, [b.app(f, [Term::Var(x)])]), Term::Var(x));
        let spec = b.build().unwrap();
        let sps = indexed_matches_naive(&spec);
        assert_eq!(shape(&sps), [("ff", "ff", vec![0])]);
    }

    #[test]
    fn index_matches_naive_on_a_non_linear_left_hand_side() {
        // SAME?(x, x) = true against SAME?(ZERO, SUCC(y)) = false does not
        // unify; against SAME?(y, ZERO) = false it does, at the root.
        let Nat {
            mut b,
            n,
            zero,
            succ,
            same,
            ..
        } = nat_builder("NonLinear");
        let x = b.var("x", n);
        let y = b.var("y", n);
        let (tt, ff) = (b.tt(), b.ff());
        let z = b.app(zero, []);
        b.axiom("s1", b.app(same, [Term::Var(x), Term::Var(x)]), tt);
        b.axiom(
            "s2",
            b.app(same, [z.clone(), b.app(succ, [Term::Var(y)])]),
            ff.clone(),
        );
        b.axiom("s3", b.app(same, [Term::Var(y), z]), ff);
        let spec = b.build().unwrap();
        let sps = indexed_matches_naive(&spec);
        assert_eq!(shape(&sps), [("s1", "s3", vec![]), ("s3", "s1", vec![])]);
    }

    /// A random pattern of sort `N` over `ZERO`, `SUCC`, `F`, `G` and the
    /// variables `vars`.
    fn random_pattern(nat: &Nat, vars: &[adt_core::VarId], rng: &mut DetRng, depth: usize) -> Term {
        match rng.below(if depth == 0 { 2 } else { 5 }) {
            0 => Term::Var(vars[rng.below(vars.len())]),
            1 => nat.b.app(nat.zero, []),
            k => {
                let op = [nat.succ, nat.f, nat.g][k - 2];
                nat.b.app(op, [random_pattern(nat, vars, rng, depth - 1)])
            }
        }
    }

    /// A seeded random spec of two to seven axioms headed by `F`, `G` or
    /// `SAME?`, whose left-hand sides nest `F` and `G` and may repeat a
    /// variable. The signature is small, so most specs overlap.
    fn random_spec(seed: u64) -> Spec {
        let mut rng = DetRng::new(seed);
        let mut nat = nat_builder(&format!("Random{seed}"));
        let n = nat.n;
        let vars = [nat.b.var("x", n), nat.b.var("y", n), nat.b.var("z", n)];
        for k in 0..2 + rng.below(6) {
            let (lhs, rhs) = if rng.below(4) == 0 {
                let args = [
                    random_pattern(&nat, &vars, &mut rng, 2),
                    random_pattern(&nat, &vars, &mut rng, 2),
                ];
                let rhs = if rng.flip() { nat.b.tt() } else { nat.b.ff() };
                (nat.b.app(nat.same, args), rhs)
            } else {
                let head = if rng.flip() { nat.f } else { nat.g };
                let lhs = nat.b.app(head, [random_pattern(&nat, &vars, &mut rng, 3)]);
                let lhs_vars = lhs.vars();
                let rhs = match lhs_vars.first() {
                    Some(&v) if rng.flip() => Term::Var(v),
                    _ => nat.b.app(nat.zero, []),
                };
                (lhs, rhs)
            };
            nat.b.axiom(format!("r{k}"), lhs, rhs);
        }
        nat.b.build().unwrap()
    }

    #[test]
    fn index_matches_naive_on_seeded_random_specs() {
        let (mut overlapping, mut pairs, mut non_root, mut self_overlaps) = (0, 0, 0, 0);
        for seed in 0..200 {
            let sps = indexed_matches_naive(&random_spec(seed));
            overlapping += usize::from(!sps.is_empty());
            pairs += sps.len();
            non_root += sps.iter().filter(|sp| !sp.position.is_empty()).count();
            self_overlaps += sps
                .iter()
                .filter(|sp| sp.outer_rule == sp.inner_rule)
                .count();
        }
        // The corpus exercises what the index must get right: many pairs,
        // pairs below the root, and axioms overlapping themselves.
        assert!(overlapping >= 100, "{overlapping} of 200 specs overlap");
        assert!(pairs >= 200, "{pairs} pairs");
        assert!(non_root >= 50, "{non_root} non-root pairs");
        assert!(self_overlaps >= 10, "{self_overlaps} self-overlaps");
    }

    #[test]
    fn rename_apart_primes_each_variable_past_taken_names() {
        let mut b = SpecBuilder::new("Primes");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let x = b.var("x", s);
        let x1 = b.var("x\u{2032}", s);
        let y = b.var("y", s);
        b.axiom("f", b.app(f, [Term::Var(x)]), b.app(c, []));
        let spec = b.build().unwrap();
        let (ext, renaming) = rename_apart(&spec);
        let copy = |v| match renaming.get(v) {
            Some(Term::Var(w)) => ext.sig().var(*w).name().to_owned(),
            other => panic!("{other:?}"),
        };
        assert_eq!(copy(x), "x\u{2032}\u{2032}");
        assert_eq!(copy(x1), "x\u{2032}\u{2032}\u{2032}");
        assert_eq!(copy(y), "y\u{2032}");
        assert_eq!(ext.sig().var_count(), 6);
        assert_eq!(ext.axioms(), spec.axioms());
    }

    /// Every superposition of `spec` with its status, in enumeration
    /// order.
    fn classified(spec: &Spec) -> Vec<(Superposition, PairStatus)> {
        let set = superpositions(spec);
        let rw = Rewriter::new(&set.spec);
        set.superpositions
            .into_iter()
            .map(|sp| {
                let status = classify_superposition(&rw, &sp);
                (sp, status)
            })
            .collect()
    }

    fn joinable((_, status): &(Superposition, PairStatus)) -> bool {
        matches!(status, PairStatus::Joinable(_))
    }

    #[test]
    fn orthogonal_spec_has_no_pairs() {
        // Queue-like axioms on disjoint constructor cases never overlap.
        let mut b = SpecBuilder::new("Tiny");
        let s = b.sort("S");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let x = b.var("x", s);
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [Term::Var(x)])]), ff);
        let spec = b.build().unwrap();
        let pairs = classified(&spec);
        assert!(pairs.is_empty());
        assert!(pairs.iter().all(joinable));
    }

    #[test]
    fn overlapping_consistent_rules_join() {
        // F(x) = C and F(C) = C overlap at the root; both reduce to C.
        let mut b = SpecBuilder::new("Olap");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let x = b.var("x", s);
        b.axiom("general", b.app(f, [Term::Var(x)]), b.app(c, []));
        b.axiom("specific", b.app(f, [b.app(c, [])]), b.app(c, []));
        let spec = b.build().unwrap();
        let pairs = classified(&spec);
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(joinable), "pairs: {pairs:#?}");
    }

    #[test]
    fn contradictory_rules_diverge() {
        // F(x) = C and F(C) = D: the peak F(C) rewrites to both C and D.
        let mut b = SpecBuilder::new("Contradiction");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s], s);
        let x = b.var("x", s);
        b.axiom("general", b.app(f, [Term::Var(x)]), b.app(c, []));
        b.axiom("specific", b.app(f, [b.app(c, [])]), b.app(d, []));
        let spec = b.build().unwrap();
        let pairs = classified(&spec);
        assert!(!pairs.iter().all(joinable));
        let diverged: Vec<_> = pairs
            .iter()
            .filter(|(_, status)| matches!(status, PairStatus::Diverged { .. }))
            .collect();
        assert!(!diverged.is_empty());
        match &diverged[0].1 {
            PairStatus::Diverged { left_nf, right_nf } => {
                assert_ne!(left_nf, right_nf);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn nested_overlap_is_found() {
        // G(F(C)) = C with F(C) = D gives a pair at position [0].
        let mut b = SpecBuilder::new("Nested");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s], s);
        let g = b.op("G", [s], s);
        b.axiom("outer", b.app(g, [b.app(f, [b.app(c, [])])]), b.app(c, []));
        b.axiom("inner", b.app(f, [b.app(c, [])]), b.app(d, []));
        let spec = b.build().unwrap();
        let pairs = classified(&spec);
        let found = pairs.iter().any(|(sp, _)| {
            sp.outer_rule == "outer" && sp.inner_rule == "inner" && sp.position == vec![0]
        });
        assert!(found, "pairs: {pairs:#?}");
        // G(D) is stuck at G(D) on one side and C on the other — diverged.
        assert!(!pairs.iter().all(joinable));
    }
}
