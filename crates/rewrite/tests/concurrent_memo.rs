//! Thread-safety stress tests for the shared rewrite state: many threads
//! normalizing through one shared [`Rewriter`], or through one shared
//! [`Session`] and its id-keyed normal-form cache, must produce exactly
//! the normal forms the sequential engine produces, with no deadlock —
//! the property the parallel checking engine relies on when it shares a
//! rewriter across its worker pool.

use adt_core::{DetRng, Session};
use adt_rewrite::Rewriter;
use adt_structures::specs::{queue_spec, symboltable_spec};

/// Builds a ground Queue term of `adds` enqueues then `removes` dequeues,
/// with items drawn from a seeded stream.
fn queue_term(spec: &adt_core::Spec, adds: usize, removes: usize, rng: &mut DetRng) -> adt_core::Term {
    let sig = spec.sig();
    let items = ["A", "B", "C"];
    let mut t = sig.apply("NEW", vec![]).unwrap();
    for _ in 0..adds {
        let item = sig.apply(items[rng.below(3)], vec![]).unwrap();
        t = sig.apply("ADD", vec![t, item]).unwrap();
    }
    for _ in 0..removes {
        t = sig.apply("REMOVE", vec![t]).unwrap();
    }
    t
}

#[test]
fn concurrent_normalization_matches_sequential_normal_forms() {
    let spec = queue_spec();
    let sig = spec.sig();

    // A workload with heavy shared structure: observers over overlapping
    // queue states.
    let mut rng = DetRng::new(0xC0_FFEE);
    let mut terms = Vec::new();
    for _ in 0..48 {
        let adds = 1 + rng.below(24);
        let removes = rng.below(adds);
        let state = queue_term(&spec, adds, removes, &mut rng);
        let op = ["FRONT", "IS_EMPTY?", "REMOVE"][rng.below(3)];
        terms.push(sig.apply(op, vec![state]).unwrap());
    }

    // Sequential ground truth.
    let plain = Rewriter::new(&spec).with_fuel(1_000_000_000);
    let expected: Vec<_> = terms.iter().map(|t| plain.normalize(t).unwrap()).collect();

    // The same rewriter, hammered from 8 threads, each walking the whole
    // term list in a different order.
    std::thread::scope(|scope| {
        for offset in 0..8 {
            let plain = &plain;
            let terms = &terms;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..3 {
                    for k in 0..terms.len() {
                        let idx = (k * (offset + 1) + round * 7) % terms.len();
                        let nf = plain.normalize(&terms[idx]).unwrap();
                        assert_eq!(nf, expected[idx], "term {idx} from thread {offset}");
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_symboltable_queries_share_one_session() {
    let spec = symboltable_spec();
    let sig = spec.sig();

    // One deep state, many observers: every thread interns the same
    // queries into the session arena and races on its nf-cache entries.
    let mut state = sig.apply("INIT", vec![]).unwrap();
    let attr = sig.apply("ATTR_1", vec![]).unwrap();
    let idents = ["ID_X", "ID_Y", "ID_Z"];
    for k in 0..12 {
        if k % 5 == 0 {
            state = sig.apply("ENTERBLOCK", vec![state]).unwrap();
        }
        let id = sig.apply(idents[k % 3], vec![]).unwrap();
        state = sig.apply("ADD", vec![state, id, attr.clone()]).unwrap();
    }
    let queries: Vec<_> = (0..idents.len())
        .map(|k| {
            let id = sig.apply(idents[k], vec![]).unwrap();
            sig.apply("RETRIEVE", vec![state.clone(), id]).unwrap()
        })
        .collect();

    let plain = Rewriter::new(&spec).with_fuel(1_000_000_000);
    let expected: Vec<_> = queries.iter().map(|t| plain.normalize(t).unwrap()).collect();

    let session = Session::new(spec.clone());
    let rw = Rewriter::for_session(&session).with_fuel(1_000_000_000);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (session, rw) = (&session, &rw);
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..4 {
                    for (q, want) in queries.iter().zip(expected) {
                        let nf = rw.normalize_id(session, session.intern(q)).unwrap();
                        assert_eq!(&session.term(nf), want);
                    }
                }
            });
        }
    });
    let stats = session.stats();
    assert_eq!(
        stats.nf_cache_hits + stats.normalizations,
        (8 * 4 * queries.len()) as u64,
        "every lookup is either a hit or one normalization"
    );
}

#[test]
fn session_results_stay_correct_after_concurrent_warmup() {
    // After the concurrent phase has filled the nf-cache, single-threaded
    // reads must still agree with the plain engine (no torn entries).
    let spec = queue_spec();
    let sig = spec.sig();
    let mut rng = DetRng::new(7);
    let deep = queue_term(&spec, 32, 16, &mut rng);
    let front = sig.apply("FRONT", vec![deep]).unwrap();

    let plain = Rewriter::new(&spec).with_fuel(1_000_000_000);
    let want = plain.normalize(&front).unwrap();

    let session = Session::new(spec.clone());
    let rw = Rewriter::for_session(&session).with_fuel(1_000_000_000);
    let id = session.intern(&front);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (session, rw) = (&session, &rw);
            scope.spawn(move || rw.normalize_id(session, id).unwrap());
        }
    });
    let hits = session.stats().nf_cache_hits;
    assert_eq!(session.term(rw.normalize_id(&session, id).unwrap()), want);
    assert_eq!(session.stats().nf_cache_hits, hits + 1);
}
