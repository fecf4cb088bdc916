//! Soundness guard for the consistency certificate: on every spec
//! `check_consistency` proves orthogonal, the ground probes it skips
//! could not have found anything. Each probe term the probe phase would
//! draw (the default `ProbeConfig`) has at most one one-step reduct, so
//! there is no second normal form to compare, and normalizing that reduct
//! at the default fuel reaches a normal form: the probe's verdict would
//! be "agreed". Every observer applied to every constructor term up to
//! depth 3 (`adt_verify::enumerate_ctor_terms`) has at most one reduct too.
//!
//! The corpus is the shipped specs, the test fixtures, the synthetic
//! checker workload at every size perfbench and the bench rows use, and
//! 240 seeded specs whose left-hand sides are constructor case splits,
//! some of them with an overlapping or a non-linear axiom added.

use std::path::Path;

use adt_bench::workloads::synthetic_spec;
use adt_check::{
    check_consistency, check_consistency_with_config, random_ctor_term, CheckConfig,
    ConsistencyCertificate, ProbeConfig,
};
use adt_core::{DetRng, OpId, SortId, Spec, SpecBuilder, Term, TermStore};
use adt_rewrite::Rewriter;
use adt_structures::sources;
use adt_verify::enumerate_ctor_terms;

mod seeded;
use seeded::{seeded_spec, Flaw};

fn certificate(spec: &Spec) -> Option<ConsistencyCertificate> {
    // The certificate is decided before any probe is sampled.
    let no_probes = ProbeConfig {
        samples: 0,
        ..ProbeConfig::default()
    };
    check_consistency_with_config(spec, &no_probes, &CheckConfig::default()).certificate()
}

fn fixtures() -> Vec<(String, Spec)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "adt"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let source = std::fs::read_to_string(path).unwrap();
            (path.display().to_string(), adt_dsl::parse(&source).unwrap())
        })
        .collect()
}

/// The probe terms of the probe phase: the same draws from the same
/// seeded stream, an observer then a constructor term per argument.
fn probe_terms(spec: &Spec, probe: &ProbeConfig) -> Vec<Term> {
    let observers: Vec<OpId> = spec.derived_ops().collect();
    let mut rng = DetRng::new(probe.seed);
    let mut terms = Vec::new();
    if observers.is_empty() {
        return terms;
    }
    for _ in 0..probe.samples {
        let op = observers[rng.below(observers.len())];
        let args: Option<Vec<Term>> = spec
            .sig()
            .op(op)
            .args()
            .iter()
            .map(|&sort| random_ctor_term(spec.sig(), sort, probe.max_depth, &mut rng))
            .collect();
        terms.extend(args.map(|args| Term::App(op, args)));
    }
    terms
}

/// Asserts the guard on a certified spec and returns how many probe terms
/// and enumerated applications it covered.
fn guard(name: &str, spec: &Spec) -> (usize, usize) {
    let rw = Rewriter::new(spec);
    let mut store = TermStore::new();
    let probes = probe_terms(spec, &ProbeConfig::default());
    for term in &probes {
        store.clear();
        let root = store.arena_mut().intern(term);
        let reducts = rw.one_step_reducts(store.arena_mut(), root);
        assert!(
            reducts.len() <= 1,
            "{name}: {term:?} has {} one-step reducts",
            reducts.len()
        );
        for reduct in reducts {
            assert!(
                rw.normalize_in(&mut store, reduct).is_ok(),
                "{name}: the probe {term:?} would not have agreed at the default fuel"
            );
        }
    }
    let mut enumerated = 0;
    for op in spec.derived_ops() {
        let sorts = spec.sig().op(op).args().to_vec();
        for args in argument_tuples(spec, &sorts) {
            let term = Term::App(op, args);
            store.clear();
            let root = store.arena_mut().intern(&term);
            let reducts = rw.one_step_reducts(store.arena_mut(), root).len();
            assert!(reducts <= 1, "{name}: {term:?} has {reducts} reducts");
            enumerated += 1;
        }
    }
    (probes.len(), enumerated)
}

/// Every tuple of constructor terms of depth at most 3 (at most 12 per
/// sort, at most 64 tuples) for the argument sorts.
fn argument_tuples(spec: &Spec, sorts: &[SortId]) -> Vec<Vec<Term>> {
    let mut tuples = vec![Vec::new()];
    for &sort in sorts {
        let terms = enumerate_ctor_terms(spec.sig(), sort, 3, 12);
        tuples = tuples
            .iter()
            .flat_map(|t| {
                terms.iter().map(move |x| {
                    let mut next = t.clone();
                    next.push(x.clone());
                    next
                })
            })
            .take(64)
            .collect();
    }
    tuples
}

#[test]
fn certified_specs_have_no_probe_with_two_reducts_and_every_probe_agrees() {
    let mut corpus: Vec<(String, Spec, bool)> = Vec::new();
    for (name, source) in sources::all() {
        corpus.push((name.to_owned(), adt_dsl::parse(source).unwrap(), true));
    }
    assert_eq!(corpus.len(), 12, "shipped specs");
    for (name, spec) in fixtures() {
        corpus.push((name, spec, false));
    }
    for ctors in [1, 2, 4, 8] {
        for obs in [1, 8, 16, 32, 64] {
            let spec = synthetic_spec(ctors, obs);
            corpus.push((format!("synthetic {ctors}x{obs}"), spec, true));
        }
    }
    let mut flaws = [0usize; 3];
    for seed in 0..240u64 {
        let flaw = match seed % 6 {
            4 => Flaw::Overlap,
            5 => Flaw::NonLinear,
            _ => Flaw::None,
        };
        flaws[flaw as usize] += 1;
        // A flawed spec is never certified; a case split always is.
        let expect = flaw == Flaw::None;
        corpus.push((
            format!("seeded {seed} ({flaw:?})"),
            seeded_spec(seed, flaw),
            expect,
        ));
    }

    let (mut certified, mut probes, mut enumerated) = (0, 0, 0);
    for (name, spec, must_certify) in &corpus {
        let cert = certificate(spec);
        if *must_certify || name.starts_with("seeded") {
            assert_eq!(cert.is_some(), *must_certify, "{name}");
        }
        if cert.is_some() {
            let (p, e) = guard(name, spec);
            certified += 1;
            probes += p;
            enumerated += e;
        }
    }
    assert_eq!(flaws, [160, 40, 40]);
    assert!(certified >= 12 + 20 + 160, "{certified} certified specs");
    assert!(probes >= 30_000, "{probes} probe terms");
    assert!(enumerated >= 10_000, "{enumerated} enumerated applications");
}

#[test]
fn a_non_linear_side_or_a_single_overlap_is_not_certified() {
    // EQ?(x, x) = true: no superposition, but not left-linear.
    let mut b = SpecBuilder::new("NonLinear");
    let s = b.sort("S");
    let c = b.ctor("C", [], s);
    let d = b.ctor("D", [], s);
    let eq = b.op("EQ?", [s, s], b.bool_sort());
    let x = Term::Var(b.var("x", s));
    let tt = b.tt();
    b.axiom("refl", b.app(eq, [x.clone(), x]), tt);
    let _ = (c, d);
    let nonlinear = b.build().unwrap();

    // F(x) = C and F(C) = C: left-linear, one overlap (two root pairs).
    let mut b = SpecBuilder::new("Overlap");
    let s = b.sort("S");
    let c = b.ctor("C", [], s);
    let f = b.op("F", [s], s);
    let x = Term::Var(b.var("x", s));
    b.axiom("general", b.app(f, [x]), b.app(c, []));
    b.axiom("special", b.app(f, [b.app(c, [])]), b.app(c, []));
    let overlap = b.build().unwrap();

    for spec in [nonlinear, overlap] {
        let report = check_consistency(&spec);
        assert_eq!(report.certificate(), None, "{}", spec.name());
        assert!(report.is_consistent(), "{}", report.summary());
        assert!(report.probes_run() > 0, "{}", spec.name());
    }
}
