//! Every `Term`-level normalization and proof runs in its thread's cold
//! store, emptied and reused. What the `Term` API reports must not depend
//! on what ran on the thread before: a fixed list of queries answers the
//! same on a fresh thread as on one that has just run a large
//! normalization, an exhausted run, a cancelled run, or a consistency
//! check whose pairs and probes use the same store.

use std::path::Path;

use adt_bench::workloads::queue_term;
use adt_check::{check_consistency_with_config, CheckConfig, ConsistencyVerdict, ProbeConfig};
use adt_core::{CancelToken, Fuel, Spec, Supervisor, Term};
use adt_rewrite::{Normalization, Proof, RewriteError, Rewriter, Trace};
use adt_structures::specs::queue_spec;

type Answer<T> = Result<T, RewriteError>;

/// The answers to the fixed queries: normal forms with step counts,
/// exhaustion receipts, a trace, a normalization under an assumption,
/// and two proofs.
#[derive(Debug, PartialEq)]
struct Answers {
    normal: Vec<Answer<Normalization>>,
    traced: Answer<(Term, Trace)>,
    under: Answer<Term>,
    proofs: Vec<Answer<Proof>>,
}

fn app(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
    spec.sig().apply(op, args).unwrap()
}

fn answers(spec: &Spec) -> Answers {
    let var = |name: &str| Term::Var(spec.sig().find_var(name).unwrap());
    let (q, i) = (var("q"), var("i"));
    let added = app(spec, "ADD", vec![q.clone(), i.clone()]);
    let is_empty_q = app(spec, "IS_EMPTY?", vec![q.clone()]);
    let rw = Rewriter::new(spec);
    let mut normal: Vec<Answer<Normalization>> = [
        app(spec, "FRONT", vec![queue_term(spec, 8, 0, 3)]),
        queue_term(spec, 12, 12, 3),
        app(spec, "FRONT", vec![added.clone()]),
        app(
            spec,
            "REMOVE",
            vec![app(spec, "REMOVE", vec![added.clone()])],
        ),
    ]
    .iter()
    .map(|t| rw.normalize_full(t))
    .collect();
    let drain = queue_term(spec, 16, 16, 3);
    normal.push(Rewriter::new(spec).with_fuel(40).normalize_full(&drain));
    let shallow = Rewriter::new(spec).with_budget(Fuel::default().with_max_depth(6));
    normal.push(shallow.normalize_full(&drain));
    let traced = rw.normalize_traced(&app(spec, "FRONT", vec![queue_term(spec, 3, 1, 3)]));
    let under = rw.normalize_under(
        &app(spec, "FRONT", vec![added.clone()]),
        &[(is_empty_q.clone(), false)],
    );
    let removed = app(spec, "REMOVE", vec![added.clone()]);
    let proofs = vec![
        // Axiom 6.
        rw.prove_equal(
            &removed,
            &Term::ite(
                is_empty_q.clone(),
                app(spec, "NEW", vec![]),
                app(spec, "ADD", vec![app(spec, "REMOVE", vec![q.clone()]), i]),
            ),
            4,
        ),
        // Not an identity: undecided once IS_EMPTY?(q) is assumed.
        rw.prove_equal(
            &app(spec, "FRONT", vec![removed]),
            &app(spec, "FRONT", vec![q]),
            4,
        ),
    ];
    Answers {
        normal,
        traced,
        under,
        proofs,
    }
}

#[test]
fn term_level_answers_do_not_depend_on_earlier_work_on_the_thread() {
    let spec = queue_spec();
    let fresh = std::thread::scope(|s| s.spawn(|| answers(&spec)).join().unwrap());
    assert!(matches!(
        fresh.normal[4],
        Err(RewriteError::Exhausted { .. })
    ));
    assert!(matches!(
        fresh.normal[5],
        Err(RewriteError::Exhausted { .. })
    ));
    assert!(matches!(fresh.proofs[0], Ok(Proof::Proved { .. })));
    assert!(matches!(
        &fresh.proofs[1],
        Ok(Proof::Undecided { assumptions, .. }) if !assumptions.is_empty()
    ));

    let source = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/f_h_pairs.adt"),
    )
    .unwrap();
    let pairs_spec = adt_dsl::parse(&source).unwrap();
    // Everything below runs on one thread, which checks the answers
    // after each piece of earlier work.
    std::thread::scope(|s| {
        s.spawn(|| {
            let check = |what: &str| assert_eq!(answers(&spec), fresh, "after {what}");

            let term = app(&spec, "IS_EMPTY?", vec![queue_term(&spec, 128, 0, 7)]);
            assert_eq!(term.size(), 258);
            assert!(Rewriter::new(&spec).normalize(&term).is_ok());
            check("a large normalization");

            let drain = queue_term(&spec, 64, 64, 7);
            let run = Rewriter::new(&spec).with_fuel(500).normalize(&drain);
            assert!(matches!(run, Err(RewriteError::Exhausted { .. })));
            check("an exhausted run");

            // The second poll, at step 1024, trips the token.
            let cancel = Supervisor::none().with_cancel(CancelToken::after_polls(2));
            let run = Rewriter::new(&spec).supervised(cancel).normalize(&drain);
            assert!(
                matches!(run, Err(RewriteError::Interrupted { steps: 1024, .. })),
                "{run:?}"
            );
            check("a cancelled run");

            // One job: the pairs and probes run on this thread.
            let report = check_consistency_with_config(
                &pairs_spec,
                &ProbeConfig::default(),
                &CheckConfig::jobs(1),
            );
            assert_eq!(report.verdict(), &ConsistencyVerdict::Consistent);
            assert_eq!((report.pairs_checked(), report.probes_run()), (2, 200));
            check("a consistency check");
        })
        .join()
        .unwrap();
    });
}
