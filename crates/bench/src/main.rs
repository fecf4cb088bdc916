//! `cargo run -p adt-bench` — the fixed-seed benchmark runner behind the
//! committed `BENCH_rewrite.json`, and the one place its gates live.
//!
//! Measures every experiment row: EX-1's rewrite_queue, TB-2's
//! array_representations, TB-3's defensive_check, TB-4's
//! checker_scaling, session_reuse and retry_ladder (all deterministic,
//! seeds 1 and 7), TB-1's symbolic_vs_direct (seed `0xC0FFEE`), TB-5's
//! verification_depth (seed 1) and the intern and consistency layer
//! rows, and emits the medians as
//! machine-readable JSON. Every run fails if session reuse is less than
//! 1.5× faster than a fresh session per check. CI runs this with
//! `--quick --baseline BENCH_rewrite.json`, which also fails on a >2×
//! regression of a committed row or on a committed row the run lacks;
//! the committed baseline itself is produced with `--merge-before` so it
//! carries the pre-arena medians alongside the current ones.
//!
//! ```text
//! adt-bench [--json PATH] [--baseline PATH] [--max-regress FACTOR]
//!           [--merge-before PATH] [--quick]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use adt_bench::harness::Group;
use adt_bench::report::{regressions, BenchRecord, BenchReport};
use adt_bench::workloads::{ident_names, queue_term, symtab_trace, synthetic_spec, Stream, SymOp};
use adt_check::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, ProbeConfig,
};
use adt_core::{Deadline, Session, Supervisor};
use adt_rewrite::{Rewriter, SymbolicSession};
use adt_structures::models::{array_model, fifo_model, symtab_model};
use adt_structures::specs::{
    array_spec, queue_spec, queue_spec_incomplete, symboltable_spec, symtab_rep_op_map,
    symtab_rep_spec,
};
use adt_structures::{AttrList, BstArray, HashArray, Ident, LinearArray, ScopeArray, SymbolTable};
use adt_verify::{
    check_axioms, translate_obligations, verify_obligation, AxiomCheckConfig, ProofConfig,
};

const USAGE: &str = "\
usage: adt-bench [options]

options:
  --json PATH          write the report as JSON to PATH (default: stdout)
  --baseline PATH      compare against a committed report; exit non-zero
                       if any shared benchmark regresses past the threshold
  --max-regress FACTOR regression threshold for --baseline (default: 2.0)
  --merge-before PATH  copy medians from a previous report into the
                       `before_ns` field of matching benchmarks
  --quick              ~10x smaller time budgets (smoke profile)
  --help               print this help
";

#[derive(Debug, Default)]
struct Options {
    json: Option<String>,
    baseline: Option<String>,
    merge_before: Option<String>,
    max_regress: f64,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        max_regress: 2.0,
        ..Options::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--json" => opts.json = Some(value("--json")?),
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--merge-before" => opts.merge_before = Some(value("--merge-before")?),
            "--max-regress" => {
                let raw = value("--max-regress")?;
                let factor: f64 = raw
                    .parse()
                    .map_err(|_| format!("--max-regress: `{raw}` is not a number"))?;
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(format!("--max-regress must be >= 1.0, got {raw}"));
                }
                opts.max_regress = factor;
            }
            "--quick" => opts.quick = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(opts))
}

const IDENTS: [&str; 3] = ["ID_X", "ID_Y", "ID_Z"];

/// Runs a TB-1 trace on the real `SymbolTable` (a stack of chained hash
/// arrays), returning the number of retrievals that find a declaration.
fn run_direct(trace: &[SymOp]) -> usize {
    let mut st: SymbolTable = SymbolTable::init();
    let attrs = AttrList::new().with("a", "1");
    let mut hits = 0;
    for op in trace {
        match op {
            SymOp::Enter => st.enter_block(),
            SymOp::Leave => st
                .leave_block()
                .expect("traces stay in the outermost block"),
            SymOp::Add(i) => st.add(Ident::new(IDENTS[i % 3]), attrs.clone()),
            SymOp::Retrieve(i) => {
                hits += usize::from(st.retrieve(&Ident::new(IDENTS[i % 3])).is_ok())
            }
        }
    }
    hits
}

/// Runs the same trace op by op against the axioms, in the program
/// variable `st` of a [`SymbolicSession`] with `ATTR_1` for every
/// declaration, and counts the same retrievals.
fn run_symbolic(session: &mut SymbolicSession, trace: &[SymOp]) -> usize {
    let sig = session.session().sig();
    let idents = IDENTS.map(|n| sig.apply(n, vec![]).expect("ident exists"));
    let attr = sig.apply("ATTR_1", vec![]).expect("ATTR_1 exists");
    let mut hits = 0;
    session.assign("st", "INIT", []).expect("normalizes");
    for op in trace {
        let st = || "st".into();
        let id = |i: usize| idents[i % 3].clone().into();
        let bound = match *op {
            SymOp::Enter => session.assign("st", "ENTERBLOCK", [st()]),
            SymOp::Leave => session.assign("st", "LEAVEBLOCK", [st()]),
            SymOp::Add(i) => session.assign("st", "ADD", [st(), id(i), attr.clone().into()]),
            SymOp::Retrieve(i) => {
                let found = session.call("RETRIEVE", [st(), id(i)]).expect("normalizes");
                hits += usize::from(!found.is_error());
                continue;
            }
        };
        bound.expect("normalizes");
    }
    hits
}

/// TB-2's workload on one Array representation: `n` declarations, then
/// `4n` lookups of identifiers drawn from them (seed 1), summing the
/// values read.
fn array_workload<A: ScopeArray<u32>>(names: &[Ident]) -> u32 {
    let mut arr = A::empty();
    for (i, id) in names.iter().enumerate() {
        arr.assign(id.clone(), i as u32);
    }
    let mut s = Stream::new(1);
    let mut acc = 0u32;
    for _ in 0..names.len() * 4 {
        if let Some(v) = arr.read(&names[s.below(names.len())]) {
            acc = acc.wrapping_add(*v);
        }
    }
    acc
}

/// TB-3's workload: 1,000 declarations of 64 names through `add` (the
/// unchecked `ADD'`) or `add_defensive`, entering a block after every
/// 97th; returns the final block depth.
fn declare(
    names: &[Ident],
    attrs: &AttrList,
    mut add: impl FnMut(&mut SymbolTable, Ident, AttrList),
) -> usize {
    let mut st: SymbolTable = SymbolTable::init();
    for i in 0..1_000 {
        add(&mut st, names[i % names.len()].clone(), attrs.clone());
        if i % 97 == 0 {
            st.enter_block();
        }
    }
    st.depth()
}

/// The fixed benchmark set. Seeds and sizes are pinned so two runs on
/// the same machine measure identical work.
fn run_benchmarks(quick: bool) -> Vec<BenchRecord> {
    let group = |name: &str| {
        let g = Group::new(name);
        if quick {
            g.budget(Duration::from_millis(20), Duration::from_millis(90))
        } else {
            g
        }
    };
    let mut rows: Vec<BenchRecord> = Vec::new();
    let mut push = |group: &str, name: &str, m: adt_bench::harness::Measurement| {
        rows.push(BenchRecord {
            group: group.to_string(),
            name: name.to_string(),
            median_ns: u64::try_from(m.per_iter.as_nanos()).unwrap_or(u64::MAX),
            before_ns: None,
            iters: m.iters,
            samples: m.samples,
        });
    };

    // TB-2 and TB-3 run first, on a fresh heap. Both loops are mostly
    // allocation, and after the other groups the allocator's state made
    // them up to 1.4x slower (TB-3: 300 vs 215 µs), which would hide
    // TB-3's effect of a few percent.

    // array_representations (TB-2): the cost of a premature
    // representation choice (§5). The three Array representations satisfy
    // the same axioms 17–20; which one wins depends on `n`, which is what
    // a designer does not know when the representation is chosen early.
    {
        let g = group("array_representations");
        for n in [4usize, 16, 64, 256, 1024] {
            let names = ident_names(n);
            let hash = g.bench(&format!("hash/{n}"), || {
                array_workload::<HashArray<u32>>(std::hint::black_box(&names))
            });
            let linear = g.bench(&format!("linear/{n}"), || {
                array_workload::<LinearArray<u32>>(std::hint::black_box(&names))
            });
            let bst = g.bench(&format!("bst/{n}"), || {
                array_workload::<BstArray<u32>>(std::hint::black_box(&names))
            });
            push("array_representations", &format!("hash/{n}"), hash);
            push("array_representations", &format!("linear/{n}"), linear);
            push("array_representations", &format!("bst/{n}"), bst);
        }
    }

    // defensive_check (TB-3): the defensive `ADD'` the paper calls
    // "needless inefficiency" (§4) against the unchecked one, whose
    // correctness rests on Assumption 1. The effect is a few percent, so
    // the pair is measured with `bench_paired`.
    {
        let g = group("defensive_check");
        let names = ident_names(64);
        let attrs = AttrList::new().with("type", "integer");
        let (unchecked, defensive) = g.bench_paired(
            "unchecked/1000",
            "defensive/1000",
            || (),
            |()| declare(std::hint::black_box(&names), &attrs, SymbolTable::add),
            |()| {
                declare(
                    std::hint::black_box(&names),
                    &attrs,
                    SymbolTable::add_defensive,
                )
            },
        );
        push("defensive_check", "unchecked/1000", unchecked);
        push("defensive_check", "defensive/1000", defensive);
    }

    let spec = queue_spec();
    let sig = spec.sig();

    // rewrite_queue (EX-1): raw single-threaded normalization
    // throughput, and the cost profile of the two observer shapes —
    // `FRONT` recurses the whole ADD chain, `IS_EMPTY?` answers in one
    // step — and of REMOVE-heavy terms, whose normal forms rebuild the
    // queue.
    {
        let g = group("rewrite_queue");
        let rw = Rewriter::new(&spec).with_fuel(100_000_000);
        let mut normalize_row = |name: String, term: adt_core::Term| {
            let m = g.bench(&name, || {
                rw.normalize(std::hint::black_box(&term))
                    .expect("normalizes")
            });
            push("rewrite_queue", &name, m);
        };
        for n in [8usize, 32, 128] {
            let chain = queue_term(&spec, n, 0, 7);
            for (label, op) in [("front", "FRONT"), ("is_empty", "IS_EMPTY?")] {
                let term = sig.apply(op, vec![chain.clone()]).expect("well-sorted");
                normalize_row(format!("{label}/{n}"), term);
            }
        }
        for n in [8usize, 32, 64, 128] {
            normalize_row(format!("drain/{n}"), queue_term(&spec, n, n, 7));
        }
        // 32 alternating observers over one shared state; each
        // normalization runs cold, with only its own run-local cache.
        let queries = 32;
        let state = queue_term(&spec, 64, 32, 7);
        let observations: Vec<_> = (0..queries)
            .map(|k| {
                let op = if k % 2 == 0 { "FRONT" } else { "IS_EMPTY?" };
                sig.apply(op, vec![state.clone()]).expect("well-sorted")
            })
            .collect();
        push(
            "rewrite_queue",
            &format!("queries_plain/{queries}"),
            g.bench(&format!("queries_plain/{queries}"), || {
                observations
                    .iter()
                    .map(|t| {
                        rw.normalize(std::hint::black_box(t))
                            .expect("normalizes")
                            .size()
                    })
                    .sum::<usize>()
            }),
        );
    }

    // intern (layer row): re-interning a 257-node chain (128 ADDs over
    // NEW, each with an item) into a store that already holds it, so
    // every node is a hash-cons hit.
    {
        let g = group("intern");
        let chain = queue_term(&spec, 128, 0, 7);
        assert_eq!(chain.size(), 257);
        let mut store = adt_core::TermStore::new();
        let id = store.arena_mut().intern(&chain);
        let m = g.bench("hit/256", || {
            let again = store.arena_mut().intern(std::hint::black_box(&chain));
            assert_eq!(again, id);
            again
        });
        push("intern", "hit/256", m);
    }

    // consistency (layer row): the consistency check of all 12 shipped
    // specs at one job, as `adt check` runs it after parsing; the ground
    // probes are nearly all of it.
    {
        let g = group("consistency");
        let shipped: Vec<_> = adt_structures::sources::all()
            .into_iter()
            .map(|(name, source)| {
                adt_dsl::parse(source).unwrap_or_else(|e| panic!("{name}: {}", e.render(source)))
            })
            .collect();
        assert_eq!(shipped.len(), 12);
        let (probe, config) = (ProbeConfig::default(), CheckConfig::jobs(1));
        let m = g.bench("shipped", || {
            shipped
                .iter()
                .map(|spec| {
                    let report = check_consistency_with_config(spec, &probe, &config);
                    assert!(report.is_consistent(), "{}", report.summary());
                    report.probes_run()
                })
                .sum::<usize>()
        });
        push("consistency", "shipped", m);
    }

    // checker_scaling (TB-4): the full completeness partition analysis
    // over synthetic specs of growing size, witness synthesis on the
    // paper's incomplete Queue, and the parallel completeness+consistency
    // pipeline at 1 and 4 workers.
    {
        let g = group("checker_scaling");
        for (ctors, obs) in [(2usize, 4usize), (4, 16), (8, 32), (16, 64)] {
            let spec = synthetic_spec(ctors, obs);
            let name = format!("complete/{ctors}ctors_{obs}obs");
            let m = g.bench(&name, || {
                let report = adt_check::check_completeness(std::hint::black_box(&spec));
                assert!(report.is_sufficiently_complete());
                report.coverage().len()
            });
            push("checker_scaling", &name, m);
        }
        let incomplete = queue_spec_incomplete();
        push(
            "checker_scaling",
            "incomplete/queue_minus_axiom4",
            g.bench("incomplete/queue_minus_axiom4", || {
                let report = adt_check::check_completeness(std::hint::black_box(&incomplete));
                assert_eq!(report.missing_case_count(), 1);
                report.missing_case_count()
            }),
        );

        let big = synthetic_spec(8, 64);
        let probe = ProbeConfig {
            samples: 64,
            ..ProbeConfig::default()
        };
        for jobs in [1usize, 4] {
            push(
                "checker_scaling",
                &format!("parallel/64ops_jobs{jobs}"),
                g.bench(&format!("parallel/64ops_jobs{jobs}"), || {
                    let config = CheckConfig::jobs(jobs);
                    let comp = check_completeness_with_config(std::hint::black_box(&big), &config);
                    assert!(comp.is_sufficiently_complete());
                    let cons = check_consistency_with_config(&big, &probe, &config);
                    (comp.coverage().len(), cons.pairs_checked())
                }),
            );
        }
    }

    // session_reuse: the same batch of observer checks run N times — once
    // against a single long-lived session (the first check warms the
    // session store and its normal-form table for the other N-1), and
    // once with a fresh session built per check. The shared row carries
    // the fresh median as its `before_ns`, so the committed JSON records
    // the reuse speedup directly.
    {
        let g = group("session_reuse");
        let checks = 8usize;
        let state = queue_term(&spec, 96, 48, 7);
        let observers: Vec<_> = (0..16)
            .map(|k| {
                let op = if k % 2 == 0 { "FRONT" } else { "IS_EMPTY?" };
                sig.apply(op, vec![state.clone()]).expect("well-sorted")
            })
            .collect();
        let run_checks = |session: &Session| {
            let rw = Rewriter::for_session(session).with_fuel(1_000_000_000);
            let mut total = 0usize;
            for _ in 0..checks {
                for t in &observers {
                    let id = session.intern(std::hint::black_box(t));
                    let nf = rw.normalize_id(session, id).expect("normalizes");
                    total += usize::from(nf != id);
                }
            }
            total
        };
        let fresh = g.bench(&format!("fresh_per_check/{checks}x16"), || {
            let mut total = 0usize;
            for _ in 0..checks {
                let session = Session::new(spec.clone());
                let rw = Rewriter::for_session(&session).with_fuel(1_000_000_000);
                for t in &observers {
                    let id = session.intern(std::hint::black_box(t));
                    let nf = rw.normalize_id(&session, id).expect("normalizes");
                    total += usize::from(nf != id);
                }
            }
            total
        });
        let shared = g.bench_batched(
            &format!("one_session/{checks}x16"),
            || Session::new(spec.clone()),
            |session| run_checks(&session),
        );
        push(
            "session_reuse",
            &format!("fresh_per_check/{checks}x16"),
            fresh,
        );
        push("session_reuse", &format!("one_session/{checks}x16"), shared);
        // fresh-per-check becomes the shared row's "before" below: the
        // speedup field then reads as "reuse is this many times faster".
    }

    // retry_ladder: the supervision tax and the cost of a rescue. The same
    // long normalization runs once bare and once under an armed (but
    // never-firing) deadline supervisor — the supervised row carries the
    // bare median as its `before_ns`, so the committed JSON records the
    // polling overhead directly (budget: under 3%). Both pairs are
    // measured with `bench_paired`: the effect is smaller than this
    // machine's run-to-run drift, so back-to-back rows cannot see it.
    // The rescue rows compare a starved-then-escalated two-pass
    // normalization against a right-sized single pass: the price of
    // discovering a budget was too small, which is what the adaptive
    // retry ladder pays per rung.
    {
        // A wider budget than the quick default: these rows compare
        // ~4 ms routines whose delta is the payload, so each sample
        // needs several interleaved iterations even in the smoke
        // profile or the 2x CI regression gate can trip on noise.
        let g = if quick {
            Group::new("retry_ladder")
                .budget(Duration::from_millis(100), Duration::from_millis(450))
        } else {
            group("retry_ladder")
        };
        let state = queue_term(&spec, 96, 48, 7);
        let front = sig
            .apply("FRONT", vec![state.clone()])
            .expect("well-sorted");
        let far_deadline =
            || Supervisor::none().with_deadline(Deadline::after(Duration::from_secs(3600)));
        let (bare, supervised) = g.bench_paired(
            "unsupervised/front96",
            "supervised/front96",
            || (),
            |()| {
                let rw = Rewriter::new(&spec).with_fuel(1_000_000_000);
                rw.normalize_full(std::hint::black_box(&front))
                    .expect("normalizes")
                    .steps
            },
            |()| {
                let rw = Rewriter::new(&spec)
                    .with_fuel(1_000_000_000)
                    .supervised(far_deadline());
                rw.normalize_full(std::hint::black_box(&front))
                    .expect("normalizes")
                    .steps
            },
        );
        push("retry_ladder", "unsupervised/front96", bare);
        push("retry_ladder", "supervised/front96", supervised);
        let (sized, rescued) = g.bench_paired(
            "right_sized/front96",
            "rescue_two_pass/front96",
            || (),
            |()| {
                let rw = Rewriter::new(&spec).with_fuel(1_000_000);
                rw.normalize_full(std::hint::black_box(&front))
                    .expect("normalizes")
                    .steps
            },
            |()| {
                // Rung 0 starves on purpose; the ladder's next rung finishes.
                let starved = Rewriter::new(&spec).with_fuel(16);
                match starved.normalize_full(std::hint::black_box(&front)) {
                    Ok(norm) => norm.steps,
                    Err(_) => {
                        let rung1 = Rewriter::new(&spec).with_fuel(1_000_000);
                        rung1
                            .normalize_full(std::hint::black_box(&front))
                            .expect("normalizes")
                            .steps
                    }
                }
            },
        );
        push("retry_ladder", "right_sized/front96", sized);
        push("retry_ladder", "rescue_two_pass/front96", rescued);
    }

    // symbolic_vs_direct (TB-1): one compiler-like trace, run directly
    // and symbolically. Each symbolic run gets a fresh session, built
    // outside the timing.
    {
        let g = group("symbolic_vs_direct");
        let symtab = symboltable_spec();
        for len in [16usize, 64, 256] {
            let trace = symtab_trace(len, 8, 0xC0FFEE);
            let direct = g.bench(&format!("direct/{len}"), || {
                run_direct(std::hint::black_box(&trace))
            });
            let symbolic = g.bench_batched(
                &format!("symbolic/{len}"),
                || SymbolicSession::new(&symtab),
                |mut session| run_symbolic(&mut session, std::hint::black_box(&trace)),
            );
            push("symbolic_vs_direct", &format!("direct/{len}"), direct);
            push("symbolic_vs_direct", &format!("symbolic/{len}"), symbolic);
        }
    }

    // verification_depth (TB-5): the cost of mechanical verification (§4).
    // `bounded_check/{depth}` checks the Queue axioms against the FIFO
    // as the enumeration depth grows (the instance count grows
    // geometrically; the cost per instance stays flat); the `*_ex9` rows
    // check the Symboltable and Array models at the EX-9 depth, the
    // configuration of `tests/impl_verification.rs` and of perfbench's
    // `rep_verify`. The last row is the full Musser-style proof of the
    // Symboltable representation: translate all 18 obligations and prove
    // each under Assumption 1.
    {
        let g = group("verification_depth");
        let queue = queue_spec();
        let fifo = fifo_model(&queue);
        for depth in [3usize, 4, 5, 6] {
            let cfg = AxiomCheckConfig {
                max_depth: depth,
                cap_per_sort: 1_000,
                max_instances_per_axiom: 100_000,
                random_instances: 0,
                random_depth: depth,
                seed: 1,
            };
            let name = format!("bounded_check/{depth}");
            let m = g.bench(&name, || {
                let report = check_axioms(&fifo, std::hint::black_box(&cfg));
                assert!(report.passed());
                report.instances_checked
            });
            push("verification_depth", &name, m);
        }

        let ex9 = AxiomCheckConfig {
            max_depth: 5,
            cap_per_sort: 80,
            max_instances_per_axiom: 6_000,
            random_instances: 200,
            random_depth: 10,
            seed: 1,
        };
        let symtab = symboltable_spec();
        let array = array_spec();
        for (name, model) in [
            ("symtab_ex9", symtab_model(&symtab)),
            ("array_ex9", array_model(&array)),
        ] {
            let name = format!("bounded_check/{name}");
            let m = g.bench(&name, || {
                let report = check_axioms(&model, std::hint::black_box(&ex9));
                assert!(report.passed());
                report.instances_checked
            });
            push("verification_depth", &name, m);
        }

        let rep = symtab_rep_spec();
        let proof = ProofConfig::default().restrict("Stack", &["PUSH"]);
        let m = g.bench("symboltable_representation_proof", || {
            let (ext, obligations) =
                translate_obligations(&symtab, &rep, &symtab_rep_op_map(), Some("PHI"))
                    .expect("the Symboltable representation translates");
            let proved = obligations
                .iter()
                .filter(|ob| {
                    verify_obligation(&ext, ob, &proof)
                        .expect("no engine error")
                        .is_proved()
                })
                .count();
            assert_eq!(proved, 18);
            proved
        });
        push("verification_depth", "symboltable_representation_proof", m);
    }

    rows
}

/// Comparison rows `(group, row, counterpart, minimum speedup)`. Each
/// carries its counterpart's median as `before_ns`, so the committed JSON
/// reads as "reuse is this much faster" / "supervision costs this much"
/// without consulting a second report. A row with a minimum speedup
/// fails the run when it is less than that many times faster than its
/// counterpart.
const COMPARISONS: [(&str, &str, &str, Option<f64>); 4] = [
    (
        "session_reuse",
        "one_session/8x16",
        "fresh_per_check/8x16",
        Some(1.5),
    ),
    (
        "retry_ladder",
        "supervised/front96",
        "unsupervised/front96",
        None,
    ),
    (
        "retry_ladder",
        "rescue_two_pass/front96",
        "right_sized/front96",
        None,
    ),
    ("defensive_check", "defensive/1000", "unchecked/1000", None),
];

/// Gives each comparison row its counterpart's median as `before_ns`,
/// prints every gated speedup, and returns one message per row below its
/// minimum.
fn link_comparisons(rows: &mut [BenchRecord]) -> Vec<String> {
    let mut failures = Vec::new();
    for (group, row, counterpart, min_speedup) in COMPARISONS {
        let before = rows
            .iter()
            .find(|r| r.group == group && r.name == counterpart)
            .map(|r| r.median_ns);
        let Some(r) = rows.iter_mut().find(|r| r.group == group && r.name == row) else {
            continue;
        };
        r.before_ns = before;
        if let (Some(min), Some(speedup)) = (min_speedup, r.speedup()) {
            println!("{group}/{row}: {speedup:.2}x faster than {counterpart} (minimum {min:.1}x)");
            if speedup < min {
                failures.push(format!(
                    "{group}/{row} is only {speedup:.2}x faster than {counterpart}, below {min:.1}x"
                ));
            }
        }
    }
    failures
}

fn read_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn run(opts: &Options) -> Result<(), String> {
    let mut report = BenchReport::new(if opts.quick { "quick" } else { "full" });
    report.benchmarks = run_benchmarks(opts.quick);
    let mut failures = link_comparisons(&mut report.benchmarks);

    if let Some(path) = &opts.merge_before {
        report.merge_before(&read_report(path)?);
    }

    let json = report.to_json();
    match &opts.json {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?
        }
        None => print!("{json}"),
    }

    if let Some(path) = &opts.baseline {
        let baseline = read_report(path)?;
        let regs = regressions(&report, &baseline, opts.max_regress);
        if regs.is_empty() {
            println!(
                "baseline `{path}`: all {} benchmark(s) ran, none past {:.1}x",
                baseline.benchmarks.len(),
                opts.max_regress
            );
        } else {
            let mut msg = format!(
                "{} benchmark(s) of the baseline `{path}` missing or past {:.1}x:",
                regs.len(),
                opts.max_regress
            );
            for r in &regs {
                match r.fresh_ns {
                    Some(ns) => msg.push_str(&format!(
                        "\n  {}: {} ns -> {ns} ns ({:.2}x)",
                        r.key,
                        r.baseline_ns,
                        ns as f64 / r.baseline_ns.max(1) as f64
                    )),
                    None => msg.push_str(&format!("\n  {}: missing from this run", r.key)),
                }
            }
            failures.push(msg);
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolic_and_direct_runs_agree() {
        let symtab = symboltable_spec();
        for len in [16usize, 64, 256] {
            let trace = symtab_trace(len, 8, 0xC0FFEE);
            let mut session = SymbolicSession::new(&symtab);
            assert_eq!(run_symbolic(&mut session, &trace), run_direct(&trace));
        }
    }

    #[test]
    fn array_representations_agree() {
        for n in [4usize, 16, 64, 256, 1024] {
            let names = ident_names(n);
            let hash = array_workload::<HashArray<u32>>(&names);
            assert_eq!(array_workload::<LinearArray<u32>>(&names), hash, "n = {n}");
            assert_eq!(array_workload::<BstArray<u32>>(&names), hash, "n = {n}");
        }
    }

    #[test]
    fn defensive_and_unchecked_declarations_agree() {
        let names = ident_names(64);
        let attrs = AttrList::new().with("type", "integer");
        assert_eq!(
            declare(&names, &attrs, SymbolTable::add),
            declare(&names, &attrs, SymbolTable::add_defensive)
        );
    }

    fn row(group: &str, name: &str, median_ns: u64) -> BenchRecord {
        BenchRecord {
            group: group.to_string(),
            name: name.to_string(),
            median_ns,
            before_ns: None,
            iters: 1,
            samples: 10,
        }
    }

    #[test]
    fn session_reuse_must_be_at_least_one_and_a_half_times_faster() {
        for (fresh_ns, passes) in [(1_490, false), (1_500, true)] {
            let mut rows = vec![
                row("session_reuse", "fresh_per_check/8x16", fresh_ns),
                row("session_reuse", "one_session/8x16", 1_000),
            ];
            let failures = link_comparisons(&mut rows);
            assert_eq!(failures.is_empty(), passes, "{failures:?}");
            assert_eq!(rows[1].before_ns, Some(fresh_ns));
        }
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse_args(&strings(&[
            "--json",
            "out.json",
            "--baseline",
            "base.json",
            "--max-regress",
            "1.5",
            "--merge-before",
            "before.json",
            "--quick",
        ]))
        .expect("parses")
        .expect("not help");
        assert_eq!(opts.json.as_deref(), Some("out.json"));
        assert_eq!(opts.baseline.as_deref(), Some("base.json"));
        assert_eq!(opts.merge_before.as_deref(), Some("before.json"));
        assert!((opts.max_regress - 1.5).abs() < 1e-9);
        assert!(opts.quick);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&strings(&["--wat"])).is_err());
        assert!(parse_args(&strings(&["--json"])).is_err());
        assert!(parse_args(&strings(&["--max-regress", "0.5"])).is_err());
        assert!(parse_args(&strings(&["--max-regress", "nan"])).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse_args(&strings(&["--help"])).expect("ok").is_none());
    }
}
