//! `cargo run -p adt-bench` — the fixed-seed benchmark runner behind the
//! committed `BENCH_rewrite.json`.
//!
//! Measures a curated subset of the `benches/` workloads (rewrite_queue,
//! checker_scaling, session_reuse, retry_ladder — all deterministic,
//! seed 7) plus TB-1's symbolic_vs_direct (seed `0xC0FFEE`) and TB-5's
//! verification_depth (seed 1), and emits the medians as
//! machine-readable JSON. CI runs this
//! with `--quick --baseline BENCH_rewrite.json` to catch >2× regressions;
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
use adt_bench::workloads::{queue_term, symtab_trace, synthetic_spec, SymOp};
use adt_check::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, ProbeConfig,
};
use adt_core::{Deadline, Session, Supervisor};
use adt_rewrite::{Rewriter, SymbolicSession};
use adt_structures::models::{array_model, fifo_model, symtab_model};
use adt_structures::specs::{
    array_spec, queue_spec, symboltable_spec, symtab_rep_op_map, symtab_rep_spec,
};
use adt_structures::{AttrList, Ident, SymbolTable};
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

/// The fixed benchmark set. Labels match the interactive `benches/`
/// programs so numbers are comparable; seeds and sizes are pinned so two
/// runs on the same machine measure identical work.
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

    let spec = queue_spec();
    let sig = spec.sig();

    // rewrite_queue: raw single-threaded normalization throughput.
    {
        let g = group("rewrite_queue");
        let rw = Rewriter::new(&spec).with_fuel(100_000_000);
        for &n in &[32usize, 128] {
            let chain = queue_term(&spec, n, 0, 7);
            let front = sig.apply("FRONT", vec![chain]).expect("well-sorted");
            push(
                "rewrite_queue",
                &format!("front/{n}"),
                g.bench(&format!("front/{n}"), || {
                    rw.normalize(std::hint::black_box(&front))
                        .expect("normalizes")
                }),
            );
        }
        let is_empty = sig
            .apply("IS_EMPTY?", vec![queue_term(&spec, 128, 0, 7)])
            .expect("well-sorted");
        push(
            "rewrite_queue",
            "is_empty/128",
            g.bench("is_empty/128", || {
                rw.normalize(std::hint::black_box(&is_empty))
                    .expect("normalizes")
            }),
        );
        let drain = queue_term(&spec, 64, 64, 7);
        push(
            "rewrite_queue",
            "drain/64",
            g.bench("drain/64", || {
                rw.normalize(std::hint::black_box(&drain))
                    .expect("normalizes")
            }),
        );
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

    // checker_scaling: the full completeness partition analysis, and the
    // parallel completeness+consistency pipeline at 1 and 4 workers.
    {
        let g = group("checker_scaling");
        let small = synthetic_spec(8, 32);
        push(
            "checker_scaling",
            "complete/8ctors_32obs",
            g.bench("complete/8ctors_32obs", || {
                let report = adt_check::check_completeness(std::hint::black_box(&small));
                assert!(report.is_sufficiently_complete());
                report.coverage().len()
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

    // Comparison rows carry their counterpart's median as `before_ns`, so
    // the committed JSON reads as "reuse is this much faster" /
    // "supervision costs this much" without consulting a second report.
    for (group, row, baseline) in [
        ("session_reuse", "one_session/8x16", "fresh_per_check/8x16"),
        ("retry_ladder", "supervised/front96", "unsupervised/front96"),
        (
            "retry_ladder",
            "rescue_two_pass/front96",
            "right_sized/front96",
        ),
    ] {
        let before = rows
            .iter()
            .find(|r| r.group == group && r.name == baseline)
            .map(|r| r.median_ns);
        if let Some(r) = rows.iter_mut().find(|r| r.group == group && r.name == row) {
            r.before_ns = before;
        }
    }

    rows
}

fn read_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("`{path}`: {e}"))
}

fn run(opts: &Options) -> Result<(), String> {
    let quick = opts.quick || std::env::var_os("ADT_BENCH_QUICK").is_some_and(|v| v != "0");
    let mut report = BenchReport::new(if quick { "quick" } else { "full" });
    report.benchmarks = run_benchmarks(quick);

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
        if !regs.is_empty() {
            let mut msg = format!(
                "{} benchmark(s) regressed past {:.1}x the baseline `{path}`:\n",
                regs.len(),
                opts.max_regress
            );
            for r in &regs {
                msg.push_str(&format!(
                    "  {}: {} ns -> {} ns ({:.2}x)\n",
                    r.key, r.baseline_ns, r.fresh_ns, r.factor
                ));
            }
            return Err(msg);
        }
        println!(
            "baseline `{path}`: {} shared benchmark(s), none past {:.1}x",
            report
                .benchmarks
                .iter()
                .filter(|b| baseline.find(&b.key()).is_some())
                .count(),
            opts.max_regress
        );
    }
    Ok(())
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
