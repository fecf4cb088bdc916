//! Generator induction (Wegbreit [23], cited in §4).
//!
//! To prove an equation `lhs = rhs` universally in a variable `x` of a
//! defined sort, case-split `x` over the sort's constructors. In the case
//! `x = c(y₁, …, yₙ)`, the `yᵢ` become fresh *skolem constants* and, for
//! every recursive argument (same sort as `x`), the equation instantiated
//! at that argument is available as an **induction hypothesis** — an extra
//! rewrite rule. Each case is then closed by the normalization prover.

use adt_core::{Axiom, OpId, Spec, Subst, Term, VarId};
use adt_rewrite::{Proof, Rewriter, RuleSet};

/// The outcome of an induction proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InductionOutcome {
    /// Every constructor case closed.
    Proved {
        /// One entry per constructor case: (constructor name, leaf cases
        /// closed by the boolean splitter).
        cases: Vec<(String, usize)>,
    },
    /// Some case did not close; the normal forms are rendered against the
    /// extended (skolemized) specification's signature.
    Failed {
        /// Name of the constructor case that failed.
        case: String,
        /// Rendered normal form of the left side in that case.
        lhs_nf: String,
        /// Rendered normal form of the right side in that case.
        rhs_nf: String,
    },
}

impl InductionOutcome {
    /// Whether the proof succeeded.
    pub fn is_proved(&self) -> bool {
        matches!(self, InductionOutcome::Proved { .. })
    }
}

/// Attempts to prove `lhs = rhs` for all values of `ind_var` by structural
/// induction over the constructors of `ind_var`'s sort.
///
/// `max_splits` bounds the boolean case analysis inside each constructor
/// case (see [`Rewriter::prove_equal`]).
///
/// # Errors
///
/// Returns a rewriting error (fuel exhaustion) if some case fails to
/// normalize.
pub fn prove_by_induction(
    spec: &Spec,
    lhs: &Term,
    rhs: &Term,
    ind_var: VarId,
    max_splits: usize,
) -> Result<InductionOutcome, adt_rewrite::RewriteError> {
    let sort = spec.sig().var(ind_var).sort();
    let ctors: Vec<OpId> = spec.sig().constructors_of(sort).collect();
    assert!(
        !ctors.is_empty(),
        "cannot induct over sort `{}`: it has no constructors",
        spec.sig().sort(sort).name()
    );

    let mut cases = Vec::new();
    for ctor in ctors {
        let ctor_name = spec.sig().op(ctor).name().to_owned();

        // Extend a copy of the spec with skolem constants for the
        // constructor's arguments: `sk<n>_<sort>`, n = i + 1 for argument i,
        // stepped by the arity while taken.
        let arg_sorts = spec.sig().op(ctor).args();
        let (ext, skolems) = spec.extend(|fresh| {
            let mut skolems = Vec::with_capacity(arg_sorts.len());
            for (i, &arg_sort) in arg_sorts.iter().enumerate() {
                let sort_name = fresh.sig().sort(arg_sort).name().to_lowercase();
                let names = (i + 1..)
                    .step_by(arg_sorts.len())
                    .map(|n| format!("sk{n}_{sort_name}"));
                skolems.push((fresh.constant(arg_sort, names), arg_sort));
            }
            skolems
        });

        // The case instantiation x ↦ c(sk₁, …, skₙ).
        let case_term = Term::App(
            ctor,
            skolems.iter().map(|&(sk, _)| Term::constant(sk)).collect(),
        );
        let case_subst = Subst::single(ind_var, case_term);

        // Induction hypotheses for recursive arguments.
        let mut rules = RuleSet::from_spec(&ext);
        for (k, &(sk, arg_sort)) in skolems.iter().enumerate() {
            if arg_sort != sort {
                continue;
            }
            let ih_subst = Subst::single(ind_var, Term::constant(sk));
            let ih_lhs = ih_subst.apply(lhs);
            let ih_rhs = ih_subst.apply(rhs);
            if matches!(ih_lhs, Term::App(_, _)) {
                rules.add(Axiom::new(format!("IH{}", k + 1), ih_lhs, ih_rhs));
            }
        }

        let rw = Rewriter::with_rules(&ext, rules);
        let goal_lhs = case_subst.apply(lhs);
        let goal_rhs = case_subst.apply(rhs);
        match rw.prove_equal(&goal_lhs, &goal_rhs, max_splits)? {
            Proof::Proved { cases: leaf } => cases.push((ctor_name, leaf)),
            Proof::Undecided { lhs_nf, rhs_nf, .. } => {
                return Ok(InductionOutcome::Failed {
                    case: ctor_name,
                    lhs_nf: adt_core::display::term(ext.sig(), &lhs_nf).to_string(),
                    rhs_nf: adt_core::display::term(ext.sig(), &rhs_nf).to_string(),
                });
            }
        }
    }
    Ok(InductionOutcome::Proved { cases })
}

/// Returns a copy of the specification with an extra axiom — typically a
/// lemma previously proved (e.g. by [`prove_by_induction`]) that a larger
/// proof needs as a rewrite rule.
///
/// This is how multi-lemma induction proofs compose: prove the lemma,
/// install it, prove the theorem in the extended specification. The §5
/// claim that algebraic specifications provide "a set of powerful rules
/// of inference" is this function in action.
///
/// # Errors
///
/// Returns a validation error if the lemma is ill-formed as an axiom
/// (ill-sorted, variable-introducing right side, …).
pub fn with_lemma(
    spec: &Spec,
    label: &str,
    lhs: Term,
    rhs: Term,
) -> Result<Spec, adt_core::CoreError> {
    let mut axioms = spec.axioms().to_vec();
    axioms.push(adt_core::Axiom::new(label, lhs, rhs));
    Spec::from_parts(
        spec.name().to_owned(),
        spec.sig().clone(),
        axioms,
        spec.tois().to_vec(),
        spec.params().to_vec(),
    )
}

/// Instantiates `var ↦ ctor(fresh variables)` in a copy of the
/// specification, returning the extended spec and the substitution.
///
/// Unlike skolemization this keeps the arguments as *variables*, so a
/// subsequent round of case analysis can split them again — the mechanism
/// behind nested case analysis in representation proofs.
pub fn instantiate_case(spec: &Spec, var: VarId, ctor: OpId, round: usize) -> (Spec, Subst) {
    // Argument i gets `<sort>#<round>_<n>`, n = i + 1, stepped by the
    // arity while taken.
    let arg_sorts = spec.sig().op(ctor).args();
    let (ext, args) = spec.extend(|fresh| {
        let mut args = Vec::with_capacity(arg_sorts.len());
        for (i, &arg_sort) in arg_sorts.iter().enumerate() {
            let sort_name = fresh.sig().sort(arg_sort).name().to_lowercase();
            let names = (i + 1..)
                .step_by(arg_sorts.len())
                .map(|n| format!("{sort_name}#{round}_{n}"));
            args.push(Term::Var(fresh.var(arg_sort, names)));
        }
        args
    });
    (ext, Subst::single(var, Term::App(ctor, args)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::SpecBuilder;

    /// Peano naturals with PLUS, the classic induction example.
    fn nat_spec() -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let nat = b.sort("Nat");
        let zero = b.ctor("ZERO", [], nat);
        let succ = b.ctor("SUCC", [nat], nat);
        let plus = b.op("PLUS", [nat, nat], nat);
        let n = Term::Var(b.var("n", nat));
        let m = Term::Var(b.var("m", nat));
        b.axiom("p1", b.app(plus, [b.app(zero, []), m.clone()]), m.clone());
        b.axiom(
            "p2",
            b.app(plus, [b.app(succ, [n.clone()]), m.clone()]),
            b.app(succ, [b.app(plus, [n, m])]),
        );
        b.build().unwrap()
    }

    #[test]
    fn plus_n_zero_needs_and_gets_induction() {
        let spec = nat_spec();
        let n = spec.sig().find_var("n").unwrap();
        let zero = spec.sig().apply("ZERO", vec![]).unwrap();
        let lhs = spec.sig().apply("PLUS", vec![Term::Var(n), zero]).unwrap();
        let rhs = Term::Var(n);

        // Plain rewriting cannot prove it (PLUS recurses on its *first*
        // argument, which is a variable here)…
        let rw = Rewriter::new(&spec);
        assert!(!rw.prove_equal(&lhs, &rhs, 4).unwrap().is_proved());

        // …but induction over n closes both cases.
        let outcome = prove_by_induction(&spec, &lhs, &rhs, n, 4).unwrap();
        match &outcome {
            InductionOutcome::Proved { cases } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(cases[0].0, "ZERO");
                assert_eq!(cases[1].0, "SUCC");
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn false_equation_fails_with_a_case_report() {
        let spec = nat_spec();
        let n = spec.sig().find_var("n").unwrap();
        let zero = spec.sig().apply("ZERO", vec![]).unwrap();
        // PLUS(n, ZERO) = ZERO is false for n = SUCC(…).
        let lhs = spec
            .sig()
            .apply("PLUS", vec![Term::Var(n), zero.clone()])
            .unwrap();
        let outcome = prove_by_induction(&spec, &lhs, &zero, n, 4).unwrap();
        match outcome {
            InductionOutcome::Failed {
                case,
                lhs_nf,
                rhs_nf,
            } => {
                assert_eq!(case, "SUCC");
                assert_ne!(lhs_nf, rhs_nf);
                assert!(lhs_nf.contains("SUCC"), "{lhs_nf}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn succ_plus_commutes_with_plus_succ() {
        // PLUS(n, SUCC(m)) = SUCC(PLUS(n, m)) — needs induction on n.
        let spec = nat_spec();
        let n = spec.sig().find_var("n").unwrap();
        let m = spec.sig().find_var("m").unwrap();
        let lhs = spec
            .sig()
            .apply(
                "PLUS",
                vec![
                    Term::Var(n),
                    spec.sig().apply("SUCC", vec![Term::Var(m)]).unwrap(),
                ],
            )
            .unwrap();
        let rhs = spec
            .sig()
            .apply(
                "SUCC",
                vec![spec
                    .sig()
                    .apply("PLUS", vec![Term::Var(n), Term::Var(m)])
                    .unwrap()],
            )
            .unwrap();
        let outcome = prove_by_induction(&spec, &lhs, &rhs, n, 4).unwrap();
        assert!(outcome.is_proved(), "{outcome:?}");
    }

    /// Nat with ZERO, SUCC and an identity on the left of PLUS, plus a
    /// variable or operation under the name `taken`.
    fn nat_with_taken_name(taken: &str, as_var: bool) -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let nat = b.sort("Nat");
        let zero = b.ctor("ZERO", [], nat);
        b.ctor("SUCC", [nat], nat);
        let plus = b.op("PLUS", [nat, nat], nat);
        let m = Term::Var(b.var("m", nat));
        b.var("n", nat);
        if as_var {
            b.var(taken, nat);
        } else {
            b.op(taken, [], nat);
        }
        b.axiom("p1", b.app(plus, [b.app(zero, []), m.clone()]), m);
        b.build().unwrap()
    }

    #[test]
    fn skolems_step_past_a_taken_name() {
        // PLUS(ZERO, n) = ZERO fails in the SUCC case, whose normal form
        // shows the skolem: `sk1_nat` is taken, so it is `sk2_nat`.
        for (taken, skolem) in [("other", "sk1_nat"), ("sk1_nat", "sk2_nat")] {
            let spec = nat_with_taken_name(taken, false);
            let sig = spec.sig();
            let n = sig.find_var("n").unwrap();
            let zero = sig.apply("ZERO", vec![]).unwrap();
            let lhs = sig.apply("PLUS", vec![zero.clone(), Term::Var(n)]).unwrap();
            let outcome = prove_by_induction(&spec, &lhs, &zero, n, 4).unwrap();
            assert_eq!(
                outcome,
                InductionOutcome::Failed {
                    case: "SUCC".to_owned(),
                    lhs_nf: format!("SUCC({skolem})"),
                    rhs_nf: "ZERO".to_owned(),
                }
            );
        }
    }

    #[test]
    fn case_variables_step_past_a_taken_name() {
        for (taken, name) in [("other", "nat#1_1"), ("nat#1_1", "nat#1_2")] {
            let spec = nat_with_taken_name(taken, true);
            let n = spec.sig().find_var("n").unwrap();
            let succ = spec.sig().find_op("SUCC").unwrap();
            let (ext, subst) = instantiate_case(&spec, n, succ, 1);
            let Some(Term::App(_, args)) = subst.get(n) else {
                panic!()
            };
            let Term::Var(v) = args[0] else { panic!() };
            assert_eq!(ext.sig().var(v).name(), name);
        }
    }

    #[test]
    fn instantiate_case_produces_fresh_variables() {
        let spec = nat_spec();
        let n = spec.sig().find_var("n").unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        let (ext, subst) = instantiate_case(&spec, n, succ, 1);
        let case = subst.get(n).unwrap();
        let Term::App(op, args) = case else { panic!() };
        assert_eq!(*op, succ);
        let Term::Var(fresh) = &args[0] else { panic!() };
        // The fresh variable exists only in the extended spec.
        assert!(ext.sig().var(*fresh).name().contains("nat#1"));
        assert_eq!(ext.sig().var_count(), spec.sig().var_count() + 1);
    }

    #[test]
    fn nested_instantiation_keeps_minting_names() {
        let spec = nat_spec();
        let n = spec.sig().find_var("n").unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        let (ext1, s1) = instantiate_case(&spec, n, succ, 1);
        let Term::App(_, args) = s1.get(n).unwrap() else {
            panic!()
        };
        let Term::Var(fresh1) = args[0] else { panic!() };
        let (ext2, s2) = instantiate_case(&ext1, fresh1, succ, 2);
        let Term::App(_, args2) = s2.get(fresh1).unwrap() else {
            panic!()
        };
        let Term::Var(fresh2) = args2[0] else {
            panic!()
        };
        assert_ne!(fresh1, fresh2);
        assert_eq!(ext2.sig().var_count(), spec.sig().var_count() + 2);
    }
}
