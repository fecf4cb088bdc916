//! Session-reuse invariance: one [`Session`] carried across checks must
//! produce reports byte-identical to session-less runs of the same checks,
//! at every job count and at every fuel budget. The session's store (its
//! arena and normal-form table) is performance machinery only — if a warm
//! session changes a single report byte, store state has leaked into
//! semantics.

use adt_check::{
    check_completeness_session, check_completeness_with_config, check_consistency_session,
    check_consistency_with_config, CheckConfig, CompletenessReport, ConsistencyReport, ProbeConfig,
};
use adt_core::{Fuel, Session};
use adt_rewrite::Rewriter;
use adt_structures::sources;

/// Every observable of a completeness report, folded into one string so
/// comparisons are byte-for-byte.
fn completeness_fingerprint(r: &CompletenessReport) -> String {
    let per_op: Vec<String> = r
        .coverage()
        .iter()
        .map(|c| {
            format!(
                "{}: complete={} axioms={} notes={}",
                c.op_name(),
                c.is_complete(),
                c.axiom_count(),
                c.notes().len()
            )
        })
        .collect();
    format!(
        "sufficient={} missing={} ops=[{}]\n{}",
        r.is_sufficiently_complete(),
        r.missing_case_count(),
        per_op.join("; "),
        r.prompts()
    )
}

/// Every observable of a consistency report, folded into one string.
fn consistency_fingerprint(r: &ConsistencyReport) -> String {
    format!(
        "consistent={} pairs={} unresolved={} probes={} exhausted={}\npairs:\n{}\nprobes:\n{}\n{}",
        r.is_consistent(),
        r.pairs_checked(),
        r.unresolved_pairs(),
        r.probes_run(),
        r.exhausted_probes().len(),
        r.pair_verdicts().join("\n"),
        r.probe_verdicts().join("\n"),
        r.summary()
    )
}

#[test]
fn shared_session_reports_match_fresh_runs_on_every_spec() {
    for jobs in [1, 4] {
        let config = CheckConfig::jobs(jobs);
        let probe = ProbeConfig::default();
        for (name, source) in sources::all() {
            let spec =
                adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));

            // Session-less baseline.
            let comp_fresh = check_completeness_with_config(&spec, &config);
            let cons_fresh = check_consistency_with_config(&spec, &probe, &config);

            // One session carried across the checks in sequence, the
            // consistency check run twice so the second sees a session
            // already used by the first.
            let session = Session::new(spec.clone());
            let comp_shared = check_completeness_session(&session, &config);
            let cons_first = check_consistency_session(&session, &probe, &config);
            let cons_again = check_consistency_session(&session, &probe, &config);

            assert_eq!(
                completeness_fingerprint(&comp_fresh),
                completeness_fingerprint(&comp_shared),
                "{name} at {jobs} jobs: completeness"
            );
            for (run, cons_shared) in [("first", &cons_first), ("second", &cons_again)] {
                assert_eq!(
                    consistency_fingerprint(&cons_fresh),
                    consistency_fingerprint(cons_shared),
                    "{name} at {jobs} jobs: consistency, {run} session run"
                );
            }
        }
    }
}

#[test]
fn tight_fuel_verdicts_do_not_depend_on_session_warmth() {
    // At a budget that some items only just exhaust, a cache warmed by an
    // earlier check could hand back a normal form the cold run never
    // reaches. Warm each session at the default budget, then check it at
    // a tight one: every pair and probe verdict must equal a cold run's.
    const FUELS: [u64; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];
    let probe = ProbeConfig::default();
    let mut differing = Vec::new();
    for (name, source) in sources::all() {
        let spec =
            adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)));
        let session = Session::new(spec.clone());
        check_consistency_session(&session, &probe, &CheckConfig::jobs(1));
        for fuel in FUELS {
            let config = CheckConfig::jobs(1).with_fuel(Fuel::steps(fuel));
            let warm = check_consistency_session(&session, &probe, &config);
            let cold = check_consistency_with_config(&spec, &probe, &config);
            if warm.pair_verdicts() != cold.pair_verdicts()
                || warm.probe_verdicts() != cold.probe_verdicts()
            {
                differing.push(format!("{name} at fuel {fuel}"));
            }
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} cases differ from a cold run: {}",
        differing.len(),
        sources::all().len() * FUELS.len(),
        differing.join(", ")
    );
}

#[test]
fn a_reused_session_accumulates_monotone_telemetry() {
    // A session counts the work routed through it: counters only grow,
    // a consistency check adds one normalization per probe and exactly
    // the rewrite steps its report states, and the arena grows only by
    // what callers intern.
    let spec = sources::load("symboltable").unwrap();
    let session = Session::new(spec.clone());
    let config = CheckConfig::jobs(1);

    // Completeness is a static pattern-coverage analysis: it normalizes
    // and interns nothing.
    check_completeness_session(&session, &config);
    let after_comp = session.stats();
    assert_eq!(after_comp.normalizations, 0);
    assert_eq!(after_comp.rewrite_steps, 0);
    assert_eq!(after_comp.interned_terms, 0);

    let report = check_consistency_session(&session, &ProbeConfig::default(), &config);
    let after_cons = session.stats();
    assert_eq!(after_cons.normalizations, report.probes_run() as u64);
    assert_eq!(after_cons.rewrite_steps, report.stats().rewrite_steps);
    assert!(after_cons.rewrite_steps > 0, "the probes took no steps");
    assert_eq!(after_cons.interned_terms, 0, "the check interned terms");

    // An id-native normalization evaluates in the session store, growing
    // it, and counts one more normalization.
    let sig = session.sig();
    let args = vec![
        sig.apply("INIT", vec![]).unwrap(),
        sig.apply("ID_X", vec![]).unwrap(),
    ];
    let id = session.intern(&sig.apply("IS_INBLOCK?", args).unwrap());
    Rewriter::for_session(&session)
        .normalize_id(&session, id)
        .unwrap();
    let after_nf = session.stats();
    assert_eq!(after_nf.normalizations, after_cons.normalizations + 1);
    assert!(after_nf.rewrite_steps > after_cons.rewrite_steps);
    assert!(after_nf.interned_terms > after_cons.interned_terms);
    assert!(after_nf.arena_bytes > after_cons.arena_bytes);

    // A second check adds the same counts again.
    check_consistency_session(&session, &ProbeConfig::default(), &config);
    let after_again = session.stats();
    assert_eq!(
        after_again.normalizations,
        after_nf.normalizations + report.probes_run() as u64
    );
    assert_eq!(
        after_again.rewrite_steps,
        after_nf.rewrite_steps + report.stats().rewrite_steps
    );
    assert_eq!(after_again.interned_terms, after_nf.interned_terms);
    assert_eq!((after_again.memo_hits, after_again.memo_misses), (0, 0));

    // An incomplete spec's missing-case witnesses stay in the report;
    // nothing reads them from the session.
    let gappy = sources::load("queue_incomplete").unwrap();
    let gappy_session = Session::new(gappy.clone());
    let report = check_completeness_session(&gappy_session, &config);
    assert!(!report.is_sufficiently_complete());
    assert_eq!(gappy_session.stats().interned_terms, 0);
}

#[test]
fn normalize_id_reuses_recorded_argument_normal_forms() {
    // One session, one store: once `LEAVEBLOCK(s)` has been normalized
    // by id, a query with it as an argument finds its normal form in the
    // store's table and pays only the query's own steps, exactly what a
    // cold run on the already-normal argument pays.
    let spec = sources::load("symboltable").unwrap();
    let sig = spec.sig();
    let app = |name: &str, args: Vec<adt_core::Term>| sig.apply(name, args).unwrap();
    let c = |name: &str| app(name, vec![]);
    let mut state = app("ADD", vec![c("INIT"), c("ID_X"), c("ATTR_2")]);
    state = app("ENTERBLOCK", vec![state]);
    for k in 0..32 {
        let id = ["ID_X", "ID_Y", "ID_Z"][k % 3];
        let attrs = ["ATTR_1", "ATTR_2", "ATTR_3"][k % 3];
        state = app("ADD", vec![state, c(id), c(attrs)]);
    }
    let session = Session::new(spec.clone());
    let rw = Rewriter::for_session(&session);
    let leave = app("LEAVEBLOCK", vec![state]);
    let left = rw.normalize_id(&session, session.intern(&leave)).unwrap();

    let before = session.stats().rewrite_steps;
    let query = app("RETRIEVE", vec![leave, c("ID_X")]);
    let warm = rw.normalize_id(&session, session.intern(&query)).unwrap();
    let warm_steps = session.stats().rewrite_steps - before;

    let cold = Rewriter::new(&spec)
        .normalize_full(&app("RETRIEVE", vec![session.term(left), c("ID_X")]))
        .unwrap();
    assert_eq!(session.term(warm), cold.term);
    assert_eq!(cold.term, c("ATTR_2"));
    assert_eq!(warm_steps, cold.steps);
}
