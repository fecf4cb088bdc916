//! Critical pairs: superpositions of rule left-hand sides.
//!
//! When two axioms can both rewrite one term, the two results must be
//! joinable or the axiom set equates things it should not — the paper's
//! *consistency* concern ("If any two of these are contradictory, the
//! axiomatization is inconsistent", §3). This module enumerates the
//! superpositions of a specification ([`superpositions`]) and classifies
//! each as joinable or diverged ([`classify_superposition`]).

use adt_core::{unify, Fuel, FuelSpent, Interrupt, Position, Spec, Subst, Term, VarId};

use crate::engine::Rewriter;
use crate::error::RewriteError;
use crate::Result;

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

/// One critical pair: a *peak* term reducible two ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPair {
    /// Label of the rule applied at the root.
    pub outer_rule: String,
    /// Label of the rule applied at `position`.
    pub inner_rule: String,
    /// The non-variable position of `outer_rule`'s left-hand side where
    /// `inner_rule`'s left-hand side was overlapped.
    pub position: Position,
    /// The common ancestor `σ(l_outer)`.
    pub peak: Term,
    /// The root-rewrite reduct `σ(r_outer)`.
    pub left: Term,
    /// The inner-rewrite reduct `σ(l_outer[r_inner]_p)`.
    pub right: Term,
    /// Joinability classification.
    pub status: PairStatus,
}

impl CriticalPair {
    /// Whether this pair resolved without divergence.
    pub fn is_joinable(&self) -> bool {
        matches!(self.status, PairStatus::Joinable(_))
    }
}

/// One superposition: a critical pair before joinability classification.
///
/// Produced by [`superpositions`]; classified into a [`CriticalPair`] by
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
/// # Errors
///
/// Returns an error only if the extended specification cannot be
/// constructed (which would indicate a bug, not bad input).
pub fn superpositions(spec: &Spec) -> Result<SuperpositionSet> {
    // Extend the signature with a renamed copy of every variable, so the
    // two axioms of a pair never share variables.
    let mut sig = spec.sig().clone();
    let mut renaming = Subst::new();
    let var_ids: Vec<VarId> = sig.var_ids().collect();
    for v in var_ids {
        let info_name = sig.var(v).name().to_owned();
        let sort = sig.var(v).sort();
        let fresh_name = format!("{info_name}\u{2032}"); // a prime mark
        let fresh = sig
            .add_var(&fresh_name, sort)
            .expect("fresh variable names cannot collide");
        renaming.bind(v, Term::Var(fresh));
    }
    let extended = Spec::from_parts(
        spec.name().to_owned(),
        sig,
        spec.axioms().to_vec(),
        spec.tois().to_vec(),
        spec.params().to_vec(),
    )
    .map_err(crate::RewriteError::from)?;

    let axioms = extended.axioms();
    // Each axiom renamed apart once, for its turns as the inner axiom.
    let renamed: Vec<(Term, Term)> = axioms
        .iter()
        .map(|ax| (renaming.apply(ax.lhs()), renaming.apply(ax.rhs())))
        .collect();
    let mut found = Vec::new();
    for (oi, outer) in axioms.iter().enumerate() {
        for (ii, (inner, (inner_lhs, inner_rhs))) in axioms.iter().zip(&renamed).enumerate() {
            for (pos, sub) in outer.lhs().subterms() {
                if matches!(sub, Term::Var(_)) {
                    continue;
                }
                if oi == ii && pos.is_empty() {
                    continue; // trivial self-overlap
                }
                let Some(unifier) = unify(sub, inner_lhs) else {
                    continue;
                };
                let subst = &unifier.subst;
                let peak = deep_apply(subst, outer.lhs());
                let left = deep_apply(subst, outer.rhs());
                let replaced = outer
                    .lhs()
                    .replace_at(&pos, inner_rhs.clone())
                    .expect("position came from subterms()");
                let right = deep_apply(subst, &replaced);
                found.push(Superposition {
                    outer_rule: outer.label().to_owned(),
                    inner_rule: inner.label().to_owned(),
                    position: pos,
                    peak,
                    left,
                    right,
                });
            }
        }
    }
    Ok(SuperpositionSet {
        spec: extended,
        superpositions: found,
    })
}

/// Classifies one superposition as joinable, diverged, or unknown, by
/// normalizing both reducts with the given rewriter.
///
/// The rewriter must have been built over [`SuperpositionSet::spec`] (the
/// extended spec), not the original input spec. Safe to call from several
/// threads at once when the rewriter is shared by reference.
pub fn classify_superposition(rw: &Rewriter<'_>, sp: &Superposition) -> CriticalPair {
    let status = join(rw, &sp.left, &sp.right);
    CriticalPair {
        outer_rule: sp.outer_rule.clone(),
        inner_rule: sp.inner_rule.clone(),
        position: sp.position.clone(),
        peak: sp.peak.clone(),
        left: sp.left.clone(),
        right: sp.right.clone(),
        status,
    }
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
    use adt_core::SpecBuilder;

    /// Every superposition of `spec`, classified in enumeration order.
    fn classified(spec: &Spec) -> Vec<CriticalPair> {
        let set = superpositions(spec).unwrap();
        let rw = Rewriter::new(&set.spec);
        set.superpositions
            .iter()
            .map(|sp| classify_superposition(&rw, sp))
            .collect()
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
        assert!(pairs.iter().all(CriticalPair::is_joinable));
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
        assert!(
            pairs.iter().all(CriticalPair::is_joinable),
            "pairs: {pairs:#?}"
        );
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
        assert!(!pairs.iter().all(CriticalPair::is_joinable));
        let diverged: Vec<_> = pairs
            .iter()
            .filter(|p| matches!(p.status, PairStatus::Diverged { .. }))
            .collect();
        assert!(!diverged.is_empty());
        match &diverged[0].status {
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
        let found = pairs
            .iter()
            .any(|p| p.outer_rule == "outer" && p.inner_rule == "inner" && p.position == vec![0]);
        assert!(found, "pairs: {pairs:#?}");
        // G(D) is stuck at G(D) on one side and C on the other — diverged.
        assert!(!pairs.iter().all(CriticalPair::is_joinable));
    }
}
