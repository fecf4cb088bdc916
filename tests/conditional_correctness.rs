//! EX-7: conditional correctness (§4).
//!
//! "The proof that the implementation satisfies Axiom 9 is based upon an
//! assumption about the environment in which the operations of the type
//! are to be used. … This observation leads to a notion of conditional
//! correctness: the representation of the abstract type is correct if the
//! enclosing program obeys certain constraints."
//!
//! Three manifestations are tested:
//!
//! 1. At the term level, axioms 6 and 9 of the Symboltable fail against
//!    the Stack-of-Arrays representation when stacks may be empty, and
//!    hold under Assumption 1 (our mechanization finds that axiom 6 — the
//!    other axiom whose left side adds to an arbitrary table — shares
//!    axiom 9's dependence; the paper discusses 9).
//! 2. At the value level, the fixed-capacity ring buffer is a correct
//!    Queue representation only for programs that never hold more than
//!    `capacity` elements — the environment assumption of the bounded
//!    queue.
//! 3. The defensive `ADD'` ("needless inefficiency") restores
//!    unconditional agreement where the unchecked one relies on the
//!    invariant.

use adt_structures::models::{fifo_model, fifo_phi, max_add_chain, ring_model, ring_phi};
use adt_structures::specs::{queue_spec, symboltable_spec, symtab_rep_op_map, symtab_rep_spec};
use adt_structures::{AttrList, Ident, SymbolTable};
use adt_verify::{
    check_representation, translate_obligations, verify_obligation, ObligationOutcome, ProofConfig,
    RepCheckConfig,
};

#[test]
fn axioms_6_and_9_fail_without_assumption_1() {
    let abs = symboltable_spec();
    let rep = symtab_rep_spec();
    let (ext, obligations) =
        translate_obligations(&abs, &rep, &symtab_rep_op_map(), Some("PHI")).unwrap();
    let cfg = ProofConfig::default();
    let mut failed = Vec::new();
    for ob in &obligations {
        if !verify_obligation(&ext, ob, &cfg).unwrap().is_proved() {
            failed.push(ob.label.clone());
        }
    }
    failed.sort();
    assert_eq!(failed, vec!["6".to_owned(), "9".to_owned()]);
}

#[test]
fn the_failing_case_is_the_empty_stack() {
    let abs = symboltable_spec();
    let rep = symtab_rep_spec();
    let (ext, obligations) =
        translate_obligations(&abs, &rep, &symtab_rep_op_map(), Some("PHI")).unwrap();
    let ob9 = obligations.iter().find(|o| o.label == "9").unwrap();
    match verify_obligation(&ext, ob9, &ProofConfig::default()).unwrap() {
        ObligationOutcome::Failed {
            trail,
            lhs_nf,
            rhs_nf,
            ..
        } => {
            // The counterexample path instantiates the stack to NEWSTACK…
            assert!(
                trail.iter().any(|step| step.contains("NEWSTACK")),
                "trail: {trail:?}"
            );
            // …where adding to an empty symbol table is error on one side
            // but not the other.
            assert_ne!(lhs_nf, rhs_nf);
            assert!(
                lhs_nf == "error" || rhs_nf == "error",
                "one side must be the error value: {lhs_nf} vs {rhs_nf}"
            );
        }
        other => panic!("expected a failure without Assumption 1: {other:#?}"),
    }
}

#[test]
fn ring_buffer_is_conditionally_correct_for_bounded_workloads() {
    let spec = queue_spec();
    let capacity = 3;
    let model = ring_model(&spec, capacity);
    let phi = ring_phi(&spec);

    // Under the environment assumption (programs never hold more than
    // `capacity` elements), the ring commutes with abstraction.
    let assumption = |t: &adt_core::Term| max_add_chain(&spec, t) <= capacity;
    let cfg = RepCheckConfig {
        assumption: Some(&assumption),
        ..RepCheckConfig::default()
    };
    let report = check_representation(&model, &phi, &cfg);
    assert!(report.passed(), "{}", report.summary());
    assert!(report.terms_checked > 50);
    assert!(report.terms_skipped > 0, "the assumption must bite");

    // Without the assumption the representation is *wrong*: deep ADD
    // chains overflow the ring and become error where the specification
    // has a bigger queue.
    let unrestricted = RepCheckConfig::default();
    let report = check_representation(&model, &phi, &unrestricted);
    assert!(!report.passed());
    assert!(report
        .mismatches
        .iter()
        .all(|m| m.term.matches("ADD").count() > capacity));
}

#[test]
fn unbounded_fifo_is_unconditionally_correct() {
    let spec = queue_spec();
    let model = fifo_model(&spec);
    let phi = fifo_phi(&spec);
    let report = check_representation(&model, &phi, &RepCheckConfig::default());
    assert!(report.passed(), "{}", report.summary());
}

#[test]
fn defensive_add_only_matters_when_the_invariant_is_broken() {
    // Under the structural invariant (INIT establishes a scope,
    // LEAVEBLOCK refuses to drop the last one), the checked and unchecked
    // ADD are indistinguishable — the check is the paper's "needless
    // inefficiency" (measured by the `defensive_check` group of `adt-bench`).
    let universe: Vec<Ident> = ["x", "y", "z"].iter().map(|s| Ident::new(*s)).collect();
    let mut checked: SymbolTable = SymbolTable::init();
    let mut unchecked: SymbolTable = SymbolTable::init();
    let attrs = |n: u32| AttrList::new().with("v", &n.to_string());
    let mut n = 0;
    for round in 0..5 {
        for name in ["x", "y", "z"] {
            n += 1;
            checked.add_defensive(Ident::new(name), attrs(n));
            unchecked.add(Ident::new(name), attrs(n));
        }
        if round % 2 == 0 {
            checked.enter_block();
            unchecked.enter_block();
        } else {
            checked.leave_block().unwrap();
            unchecked.leave_block().unwrap();
        }
    }
    assert!(checked.observationally_eq(&unchecked, &universe));
}
