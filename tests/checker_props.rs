//! Metamorphic properties of the mechanical checkers: for randomly
//! generated *complete-by-construction* specifications, the completeness
//! checker must agree; delete any one axiom and it must flag exactly the
//! affected operation; inject a contradiction and the consistency checker
//! must catch it.
//!
//! Spec shapes and seeds are drawn from a seeded [`DetRng`] (48 cases per
//! property), so every run exercises the same specifications.

use adt_check::{check_completeness, check_consistency, Coverage};
use adt_core::{DetRng, Spec, SpecBuilder, Term};

const CASES: usize = 48;

/// Builds a synthetic specification: one sort with `ctors` constructors
/// (the first nullary, the rest unary-recursive) and `obs` boolean
/// observers, each observer fully case-covered. Returns the spec plus the
/// list of (observer index, constructor index) pairs in axiom order.
fn synthetic(ctors: usize, obs: usize, seed: u64) -> (Spec, Vec<(usize, usize)>) {
    let mut b = SpecBuilder::new("Synthetic");
    let s = b.sort("S");
    let mut ctor_ids = Vec::new();
    ctor_ids.push((b.ctor("C0", [], s), 0usize));
    for k in 1..ctors {
        ctor_ids.push((b.ctor(&format!("C{k}"), [s], s), 1));
    }
    let x = Term::Var(b.var("x", s));
    let mut layout = Vec::new();
    let mut state = seed;
    for o in 0..obs {
        let op = b.op(&format!("OBS{o}?"), [s], b.bool_sort());
        for (k, &(ctor, arity)) in ctor_ids.iter().enumerate() {
            let lhs = if arity == 0 {
                b.app(op, [b.app(ctor, [])])
            } else {
                b.app(op, [b.app(ctor, [x.clone()])])
            };
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let rhs = if state.is_multiple_of(2) {
                b.tt()
            } else {
                b.ff()
            };
            b.axiom(format!("a{o}_{k}"), lhs, rhs);
            layout.push((o, k));
        }
    }
    (b.build().unwrap(), layout)
}

/// Rebuilds the synthetic spec with axiom number `drop` omitted.
fn synthetic_without(ctors: usize, obs: usize, seed: u64, drop: usize) -> Spec {
    let (full, _) = synthetic(ctors, obs, seed);
    let axioms: Vec<_> = full
        .axioms()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != drop)
        .map(|(_, a)| a.clone())
        .collect();
    Spec::from_parts(
        full.name().to_owned(),
        full.sig().clone(),
        axioms,
        full.tois().to_vec(),
        full.params().to_vec(),
    )
    .unwrap()
}

/// Complete-by-construction specs pass; they are also consistent
/// (orthogonal constructor cases cannot contradict).
#[test]
fn complete_specs_pass_both_checkers() {
    let mut rng = DetRng::new(0xC4EC_0001);
    for _ in 0..CASES {
        let ctors = 1 + rng.below(4);
        let obs = 1 + rng.below(4);
        let seed = rng.next_u64();
        let (spec, _) = synthetic(ctors, obs, seed);
        let report = check_completeness(&spec);
        assert!(report.is_sufficiently_complete(), "{}", report.prompts());
        assert!(check_consistency(&spec).is_consistent());
    }
}

/// Deleting any single axiom breaks completeness for exactly the
/// observer that lost a case, and no other.
#[test]
fn deleting_one_axiom_is_localized() {
    let mut rng = DetRng::new(0xC4EC_0002);
    for _ in 0..CASES {
        let ctors = 1 + rng.below(4);
        let obs = 1 + rng.below(4);
        let seed = rng.next_u64();
        let (full, layout) = synthetic(ctors, obs, seed);
        let drop = rng.below(full.axioms().len());
        let (dropped_obs, _) = layout[drop];
        let spec = synthetic_without(ctors, obs, seed, drop);
        let report = check_completeness(&spec);
        assert!(!report.is_sufficiently_complete());
        for cov in report.coverage() {
            let is_dropped = cov.op_name() == format!("OBS{dropped_obs}?");
            match cov.coverage() {
                Coverage::Missing(cases) => {
                    assert!(is_dropped, "wrong op flagged: {}", cov.op_name());
                    assert_eq!(cases.len(), 1);
                }
                Coverage::Complete => assert!(!is_dropped),
                other => panic!(
                    "{}: synthetic specs are small enough to analyze fully, got {other:?}",
                    cov.op_name()
                ),
            }
        }
    }
}

/// Adding a contradicting duplicate of an existing axiom (same left
/// side, flipped right side) is caught by the consistency checker.
#[test]
fn injected_contradictions_are_caught() {
    let mut rng = DetRng::new(0xC4EC_0003);
    for _ in 0..CASES {
        let ctors = 1 + rng.below(3);
        let obs = 1 + rng.below(3);
        let seed = rng.next_u64();
        let (full, _) = synthetic(ctors, obs, seed);
        let victim = rng.below(full.axioms().len());
        let ax = full.axioms()[victim].clone();
        let flipped = if ax.rhs() == &full.sig().tt() {
            full.sig().ff()
        } else {
            full.sig().tt()
        };
        let mut axioms = full.axioms().to_vec();
        axioms.push(adt_core::Axiom::new(
            "contradiction",
            ax.lhs().clone(),
            flipped,
        ));
        let spec = Spec::from_parts(
            full.name().to_owned(),
            full.sig().clone(),
            axioms,
            full.tois().to_vec(),
            full.params().to_vec(),
        )
        .unwrap();
        let report = check_consistency(&spec);
        assert!(!report.is_consistent(), "{}", report.summary());
    }
}
