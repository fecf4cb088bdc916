//! `Rewriter::prove_equal` runs its case split on ids in one store. The
//! oracle here is the same search on `Term`s: every normalization a
//! separate cold `normalize_under` call, and each split's normal forms
//! taken back to `Term`s and searched for the first stuck condition
//! there. Both must return the same `Proof` or the same error at every
//! step budget from 1 to one past the largest a normalization of the
//! proof needs, and at every split bound from 0 to 4.
//!
//! The equations are every axiom of the shipped specs and of the seeded
//! case-split specs, each in both directions, and the 18 obligations of
//! the Symboltable representation proof.

use adt_core::{ExhaustionCause, Fuel, Spec, Term};
use adt_rewrite::{Proof, RewriteError, Rewriter};
use adt_structures::sources;
use adt_structures::specs::{symboltable_spec, symtab_rep_op_map, symtab_rep_spec};
use adt_verify::translate_obligations;

mod seeded;
use seeded::{seeded_spec, Flaw};

/// The first stuck condition of a normal form: the condition of its
/// outermost conditional, in pre-order.
fn first_stuck_cond(term: &Term) -> Option<&Term> {
    match term {
        Term::Ite(ite) => Some(&ite.cond),
        Term::App(_, args) => args.iter().find_map(first_stuck_cond),
        _ => None,
    }
}

/// The case split on `Term`s.
fn oracle(
    rw: &Rewriter,
    a: &Term,
    b: &Term,
    asms: &mut Vec<(Term, bool)>,
    splits_left: usize,
) -> Result<Proof, RewriteError> {
    let na = rw.normalize_under(a, asms)?;
    let nb = rw.normalize_under(b, asms)?;
    if na == nb {
        return Ok(Proof::Proved { cases: 1 });
    }
    let cond = (splits_left > 0)
        .then(|| first_stuck_cond(&na).or_else(|| first_stuck_cond(&nb)))
        .flatten()
        .cloned();
    let Some(cond) = cond else {
        return Ok(Proof::Undecided {
            assumptions: asms.clone(),
            lhs_nf: na,
            rhs_nf: nb,
        });
    };
    let mut cases = 0;
    for value in [true, false] {
        asms.push((cond.clone(), value));
        let sub = oracle(rw, &na, &nb, asms, splits_left - 1)?;
        asms.pop();
        match sub {
            Proof::Proved { cases: c } => cases += c,
            undecided @ Proof::Undecided { .. } => return Ok(undecided),
        }
    }
    Ok(Proof::Proved { cases })
}

/// The depth bound of the sweep. `arithmetic`'s `d2` unfolds
/// symbolically without end; under this bound it reaches the depth
/// bound after a few dozen steps instead of hundreds.
const DEPTH: usize = 128;

/// Compares the two provers on `lhs = rhs` over the budget and split
/// sweep.
fn agree(name: &str, spec: &Spec, lhs: &Term, rhs: &Term) {
    for steps in 1.. {
        let rw = Rewriter::new(spec).with_budget(Fuel::steps(steps).with_max_depth(DEPTH));
        let mut exhausted = false;
        for max_splits in 0..=4 {
            let want = oracle(&rw, lhs, rhs, &mut Vec::new(), max_splits);
            let got = rw.prove_equal(lhs, rhs, max_splits);
            assert_eq!(got, want, "{name}: {steps} steps, {max_splits} splits");
            exhausted |= matches!(want, Err(RewriteError::Exhausted { spent, .. })
                if spent.cause == ExhaustionCause::Steps);
        }
        if !exhausted {
            // One budget past the cold cost: no normalization runs out
            // of steps. (A symbolic unfolding may still hit the depth
            // bound, at any budget from here on.)
            let rw = rw.with_fuel(steps + 1);
            for max_splits in 0..=4 {
                let want = oracle(&rw, lhs, rhs, &mut Vec::new(), max_splits);
                assert_eq!(rw.prove_equal(lhs, rhs, max_splits), want, "{name}");
            }
            return;
        }
        assert!(steps < 100_000, "{name}: no budget is enough");
    }
    unreachable!("the sweep returns")
}

/// Every axiom of `spec`, as lhs = rhs and as rhs = lhs. The second
/// direction normalizes the right side's subterms first, so a left side
/// that read their normal forms from the first normalization would take
/// fewer steps than a cold run.
fn agree_on_axioms(name: &str, spec: &Spec) {
    for ax in spec.axioms() {
        agree(
            &format!("{name} [{}]", ax.label()),
            spec,
            ax.lhs(),
            ax.rhs(),
        );
        agree(
            &format!("{name} [{}] reversed", ax.label()),
            spec,
            ax.rhs(),
            ax.lhs(),
        );
    }
}

#[test]
fn the_prover_on_ids_matches_the_term_level_search_on_every_shipped_axiom() {
    for (name, source) in sources::all() {
        agree_on_axioms(name, &adt_dsl::parse(source).unwrap());
    }
}

#[test]
fn the_prover_on_ids_matches_the_term_level_search_on_the_representation_proof() {
    let (ext, obligations) = translate_obligations(
        &symboltable_spec(),
        &symtab_rep_spec(),
        &symtab_rep_op_map(),
        Some("PHI"),
    )
    .unwrap();
    assert_eq!(obligations.len(), 18);
    let mut undecided = 0;
    for ob in &obligations {
        agree(&format!("obligation {}", ob.label), &ext, &ob.lhs, &ob.rhs);
        let proof = Rewriter::new(&ext).prove_equal(&ob.lhs, &ob.rhs, 4);
        undecided += usize::from(!proof.unwrap().is_proved());
    }
    // Some obligations need constructor instantiation on top of the case
    // split, so the sweep meets undecided proofs as well as proved ones.
    assert!((1..18).contains(&undecided), "{undecided} undecided");
}

#[test]
fn the_prover_on_ids_matches_the_term_level_search_on_seeded_specs() {
    for seed in 0..240u64 {
        let flaw = match seed % 6 {
            4 => Flaw::Overlap,
            5 => Flaw::NonLinear,
            _ => Flaw::None,
        };
        agree_on_axioms(&format!("seeded {seed}"), &seeded_spec(seed, flaw));
    }
}
