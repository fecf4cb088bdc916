//! End-to-end benchmark of the guttag-adt pipeline. See `NOTES.md`.
//!
//! ```text
//! perfbench --workload <check_corpus|symbolic_repl|rep_verify> --seed <n>
//!           --seconds <s> --trace <0|1> [--jobs <n>]
//! perfbench --self-test [--seed <n>] [--jobs <n>]
//! ```
//!
//! Every workload is a closed loop with one client on one process:
//! round `r` is a fixed list of ops for the seed and `r`, run on fresh
//! sessions, and rounds follow each other until `--seconds` have
//! passed. `--trace 0` prints the end-to-end metrics, with every
//! timing scaled to a reference machine speed (see `calib`); `--trace 1` runs
//! every round untraced and then traced and prints the per-layer
//! metrics, read from spans the benchmark records around each call into
//! a crate. The last line of output is one JSON object; the lines before
//! it start with `#`.

mod calib;
mod check_corpus;
mod rec;
mod rep_verify;
mod symbolic_repl;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check_corpus::CheckCorpus;
use rec::{quantile, Recorder};
use rep_verify::RepVerify;
use symbolic_repl::SymbolicRepl;

/// One workload: inputs built from a seed, run in rounds.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The quantile reported as `op_tail_us`. A run does at least enough
    /// ops that more than ten samples lie beyond it.
    const TAIL_Q: f64;
    /// Builds every input a round needs (the timed set-up).
    fn setup(seed: u64, jobs: usize) -> Self;
    /// Runs round `index`: a fixed list of ops for a given seed and
    /// index, each answer checked.
    fn round(&mut self, index: u64, rec: &mut Recorder);
    /// Extra lines for the traced run's report.
    fn report(&self, _out: &mut String) {}
}

/// Ops whose latencies the untraced run can log without growing the log
/// (64 MiB of address space, resident only as far as it is written).
const LOG_OPS: usize = 1 << 23;

const MIB: f64 = 1024.0 * 1024.0;

/// `adt check` runs at this many jobs unless `--jobs` says otherwise.
/// At 2 jobs on a 2-CPU shared host, short checks wait on waking the
/// pool's workers on the other CPU, which the single-threaded reference
/// kernel cannot track, and `op_p50_us` spread over 0.17 of its median
/// in five runs against 0.03 at 1 job; see `NOTES.md`.
const DEFAULT_JOBS: usize = 1;

/// Counters that must repeat exactly between two runs on one seed.
const EXACT_COUNTS: &[&str] = &[
    "ops",
    "check.items",
    "check.pairs",
    "check.probes",
    "check.steps",
    "rewrite.steps",
    "core.arena_terms",
    "verify.instances",
    "verify.phi_terms",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    jobs: usize,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        jobs: DEFAULT_JOBS,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            "--jobs" => args.jobs = num(&value)?.max(1) as usize,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    let ok = match args.workload.as_str() {
        CheckCorpus::NAME => run::<CheckCorpus>(&args),
        SymbolicRepl::NAME => run::<SymbolicRepl>(&args),
        RepVerify::NAME => run::<RepVerify>(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (check_corpus, symbolic_repl, rep_verify)"
            );
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The machine and build the numbers came from.
fn stamp(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"jobs\": {}, \"available_parallelism\": {parallelism}, \"profile\": \"{profile}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.jobs,
        env!("PERFBENCH_RUSTC"),
        commit()
    )
}

/// The checked-out commit, read from `.git` beside the benchmark, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_once(' '))
                .map(|(hash, _)| hash.to_owned())
        }),
        None => Some(head.to_owned()),
    };
    match hash.map(|h| h.trim().to_owned()) {
        Some(h) if !h.is_empty() => h,
        _ => "unknown".to_owned(),
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean_ns(lat: &[u64]) -> f64 {
    lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64
}

/// `a / b`, or 0 when there is no base.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Builds the inputs once; returns them and the build time in seconds.
fn setup<W: Workload>(args: &Args) -> (W, f64) {
    let t = Instant::now();
    let built = W::setup(args.seed, args.jobs);
    (built, t.elapsed().as_secs_f64())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_failures(rec: &Recorder) {
    for f in &rec.failures {
        println!("# FAILED: {f}");
    }
}

fn run<W: Workload>(args: &Args) -> bool {
    println!("# stamp {}", stamp(args));
    let mut w = W::setup(args.seed, args.jobs);
    let epoch = Instant::now();

    // One untimed round first, so allocator growth and page faults of
    // the first sessions do not land in the measurement.
    let mut warm = Recorder::new(epoch, false);
    w.round(0, &mut warm);

    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        return run_traced(args, &mut w, warm, epoch, budget);
    }

    let min_ops = (11.0 / (1.0 - W::TAIL_Q)).ceil() as usize;
    let mut rec = Recorder::new(epoch, false).calibrating();
    // Room for every op's latency, reserved up front so the log is never
    // copied: its pages become resident only as they are written, 8
    // bytes per timed op, and `peak_rss_mb` leaves them out.
    rec.lat_ns.reserve(LOG_OPS);
    // A checkpoint before and after every round, and inside the rounds
    // of workloads whose rounds are long. Every round is the range of
    // checkpoint-to-checkpoint segments it covers, and every timed
    // set-up sits in a segment of its own, after a round.
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut index = 1;
    rec.checkpoint();
    while start.elapsed() < budget || rec.lat_ns.len() < min_ops {
        let first = rec.checkpoints.len() - 1;
        w.round(index, &mut rec);
        rec.checkpoint();
        rounds.push(first..rec.checkpoints.len() - 1);
        index += 1;
        // The first set-up after a round pays for the allocator tidying
        // the memory the round freed (up to 2 ms, depending on the
        // seed); an untimed set-up absorbs that, and the next is timed.
        drop(black_box(W::setup(args.seed, args.jobs)));
        let (again, s) = setup::<W>(args);
        drop(black_box(again));
        setups.push((rec.checkpoints.len() - 1, s));
        rec.checkpoint();
    }
    let wall = start.elapsed().as_secs_f64();
    // Read before the statistics below copy the log.
    let peak_mb = peak_rss_mb() - (rec.lat_ns.len() * 8) as f64 / MIB;

    // Every segment's timings are scaled by the reference kernel time
    // over the mean kernel time at the segment's two ends.
    let cps = &rec.checkpoints;
    let scale: Vec<f64> = cps
        .windows(2)
        .map(|p| 2.0 * calib::REFERENCE_NS / (p[0].kernel_ns + p[1].kernel_ns) as f64)
        .collect();
    let secs = |j: usize| (cps[j + 1].start - cps[j].end) as f64 / 1e9;
    let lat: Vec<u64> = (0..scale.len())
        .flat_map(|j| {
            let k = scale[j];
            rec.lat_ns[cps[j].op..cps[j + 1].op]
                .iter()
                .map(move |&ns| (ns as f64 * k).round() as u64)
        })
        .collect();
    let (mut rates, mut raw_rates): (Vec<f64>, Vec<f64>) = rounds
        .iter()
        .map(|segs| {
            let ops = (cps[segs.end].op - cps[segs.start].op) as f64;
            let raw: f64 = segs.clone().map(secs).sum();
            let scaled: f64 = segs.clone().map(|j| secs(j) * scale[j]).sum();
            (ops / scaled, ops / raw)
        })
        .unzip();
    let (mut setup_s, mut raw_setup_s): (Vec<f64>, Vec<f64>) =
        setups.iter().map(|&(j, s)| (s * scale[j], s)).unzip();
    let mut kernel: Vec<f64> = cps.iter().map(|c| c.kernel_ns as f64).collect();

    let attempted = warm.attempted + rec.attempted;
    let failed = warm.failed + rec.failed;
    let (p50, _) = quantile(&lat, 0.5);
    let (tail, beyond) = quantile(&lat, W::TAIL_Q);
    let metrics = [
        metric("ops_per_s", median(&mut rates), "1/s"),
        metric("op_p50_us", p50 as f64 / 1e3, "us"),
        metric("op_tail_us", tail as f64 / 1e3, "us"),
        metric("setup_s", median(&mut setup_s), "s"),
        metric("peak_rss_mb", peak_mb, "MB"),
    ];
    print_failures(&warm);
    print_failures(&rec);
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "# failed_share = {} ratio ({failed} failed / {attempted} attempted)",
        ratio(failed as f64, attempted as f64)
    );
    println!(
        "# {} rounds ({} ops) and {} set-ups in {wall:.3} s, {} checkpoints included; ops_per_s is the median of the rounds' throughputs, op_tail_us is p{} over all {} ops ({beyond} beyond it)",
        rounds.len(),
        lat.len(),
        setups.len(),
        cps.len(),
        W::TAIL_Q * 100.0,
        lat.len()
    );
    let kernel_ns = median(&mut kernel);
    println!(
        "# machine speed: median kernel {kernel_ns:.0} ns against the reference {} ns; timings are scaled to the reference speed",
        calib::REFERENCE_NS
    );
    println!(
        "# unscaled wall-clock figures: ops_per_s = {} 1/s, op_p50_us = {} us, op_tail_us = {} us, setup_s = {} s",
        median(&mut raw_rates),
        quantile(&rec.lat_ns, 0.5).0 as f64 / 1e3,
        quantile(&rec.lat_ns, W::TAIL_Q).0 as f64 / 1e3,
        median(&mut raw_setup_s)
    );
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    failed == 0
}

/// Runs every round twice, untraced and then traced, until the budget
/// is spent, then reports the per-layer metrics. Pairing the two runs
/// of one round keeps the tracing overhead free of round-to-round
/// differences.
fn run_traced<W: Workload>(
    args: &Args,
    w: &mut W,
    warm: Recorder,
    epoch: Instant,
    budget: Duration,
) -> bool {
    let mut plain = Recorder::new(epoch, false);
    let mut traced = Recorder::new(epoch, true);
    let start = Instant::now();
    let mut index = 1;
    while start.elapsed() < budget || index == 1 {
        w.round(index, &mut plain);
        w.round(index, &mut traced);
        traced.end_round();
        index += 1;
    }
    let attempted = warm.attempted + plain.attempted + traced.attempted;
    let failed = warm.failed + plain.failed + traced.failed;

    let first = traced.rounds[0].clone();
    let get = |name: &str| first.get(name).copied().unwrap_or(0) as f64;
    let total = |name: &str| traced.total(name) as f64;
    let mean_us = |name: &str| {
        let (ns, n) = traced.span_total(name);
        ratio(ns as f64, n as f64) / 1e3
    };
    let span_s = |name: &str| traced.span_total(name).0 as f64 / 1e9;
    let op_s = traced.lat_ns.iter().sum::<u64>() as f64 / 1e9;

    let check_calls = total("check.calls");
    let check_call_ns = (traced.span_total("check.completeness").0
        + traced.span_total("check.consistency").0) as f64;
    let pool_ns = total("check.pool_ns");
    let direct_op_ns = ratio(
        traced.span_total("structures.direct").0 as f64,
        total("structures.direct_ops"),
    );
    let untraced_op_ns = mean_ns(&plain.lat_ns);
    let metrics = [
        metric("dsl.parse_us", mean_us("dsl.parse"), "us"),
        metric("core.intern_us", mean_us("core.intern"), "us"),
        metric("core.term_us", mean_us("core.term"), "us"),
        metric("core.arena_terms", get("core.arena_terms"), "count"),
        metric("core.arena_bytes", get("core.arena_bytes"), "B"),
        metric(
            "core.memo_hit_ratio",
            ratio(total("core.memo_hits"), total("core.memo_lookups")),
            "ratio",
        ),
        metric(
            "core.nf_cache_hit_ratio",
            ratio(total("core.nf_hits"), total("core.nf_lookups")),
            "ratio",
        ),
        metric("rewrite.read_us", mean_us("rewrite.read"), "us"),
        metric("rewrite.write_us", mean_us("rewrite.write"), "us"),
        metric(
            "rewrite.steps_per_op",
            ratio(get("rewrite.steps"), get("ops")),
            "count",
        ),
        metric(
            "rewrite.steps_per_s",
            ratio(total("rewrite.steps"), op_s),
            "1/s",
        ),
        metric(
            "rewrite.symbolic_slowdown",
            ratio(untraced_op_ns, direct_op_ns),
            "x",
        ),
        metric("structures.direct_op_ns", direct_op_ns, "ns"),
        metric("check.completeness_us", mean_us("check.completeness"), "us"),
        metric("check.consistency_us", mean_us("check.consistency"), "us"),
        metric("check.pool_us", ratio(pool_ns, check_calls) / 1e3, "us"),
        metric(
            "check.serial_us",
            ratio(check_call_ns - pool_ns, check_calls) / 1e3,
            "us",
        ),
        metric(
            "check.pool_utilization",
            ratio(total("check.busy_ns"), total("check.capacity_ns")),
            "ratio",
        ),
        metric("check.items", get("check.items"), "count"),
        metric("check.pairs", get("check.pairs"), "count"),
        metric("check.probes", get("check.probes"), "count"),
        metric("check.steps", get("check.steps"), "count"),
        metric("check.undetermined", get("check.undetermined"), "count"),
        metric("verify.translate_us", mean_us("verify.translate"), "us"),
        metric("verify.prove_us", mean_us("verify.prove"), "us"),
        metric("verify.axioms_us", mean_us("verify.axioms"), "us"),
        metric(
            "verify.instances_per_s",
            ratio(total("verify.instances"), span_s("verify.axioms")),
            "1/s",
        ),
        metric("verify.instances", get("verify.instances"), "count"),
        metric("verify.phi_us", mean_us("verify.phi"), "us"),
        metric("verify.phi_terms", get("verify.phi_terms"), "count"),
        metric(
            "trace.overhead_pct",
            (ratio(mean_ns(&traced.lat_ns), untraced_op_ns) - 1.0) * 100.0,
            "%",
        ),
    ];

    print_failures(&warm);
    print_failures(&plain);
    print_failures(&traced);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} rounds, each run untraced ({} ops) and traced ({} ops, {} spans)",
        traced.rounds.len(),
        plain.lat_ns.len(),
        traced.lat_ns.len(),
        traced.spans.len()
    );
    let _ = writeln!(out, "# counts of round 1:");
    for (k, v) in &first {
        let _ = writeln!(out, "#   {k} = {v}");
    }
    let _ = writeln!(out, "# self time by span over the traced rounds (ms):");
    for (name, ns) in traced.self_times() {
        let _ = writeln!(out, "#   {name:<20} {:>12.3}", ns as f64 / 1e6);
    }
    let _ = writeln!(
        out,
        "# ratio bases: memo {} hits / {} lookups; nf-cache {} hits / {} lookups (hits + session normalizations); pool {} busy ns / {} jobs×wall ns",
        total("core.memo_hits"),
        total("core.memo_lookups"),
        total("core.nf_hits"),
        total("core.nf_lookups"),
        total("check.busy_ns"),
        total("check.capacity_ns")
    );
    let _ = writeln!(
        out,
        "# slowdown base: untraced symbolic op {untraced_op_ns:.1} ns / direct op {direct_op_ns:.1} ns; overhead base: traced op {:.1} ns / untraced op {untraced_op_ns:.1} ns",
        mean_ns(&traced.lat_ns)
    );
    w.report(&mut out);
    for m in &metrics {
        let _ = writeln!(out, "# {} = {} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        out,
        "# failed_share = {} ratio ({failed} failed / {attempted} attempted)",
        ratio(failed as f64, attempted as f64)
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans_{}_{}.tsv", W::NAME, args.seed));
    match traced.write_spans(&path) {
        Ok(()) => {
            let _ = writeln!(out, "# spans written to {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(out, "# spans not written: {e}");
        }
    }
    print!("{out}");
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    failed == 0
}

/// Runs one round of every workload twice on one seed, each time from a
/// fresh set-up, and checks that the counters repeat exactly and that no
/// op failed.
fn self_test(args: &Args) -> ExitCode {
    fn counts<W: Workload>(args: &Args) -> (BTreeMap<&'static str, u64>, u64) {
        let mut w = W::setup(args.seed, args.jobs);
        let mut rec = Recorder::new(Instant::now(), true);
        w.round(1, &mut rec);
        rec.end_round();
        print_failures(&rec);
        (rec.rounds.remove(0), rec.failed)
    }
    fn twice<W: Workload>(args: &Args) -> bool {
        let (a, fa) = counts::<W>(args);
        let (b, fb) = counts::<W>(args);
        let mut ok = fa == 0 && fb == 0;
        println!("# {} seed {}: {fa} + {fb} failed op(s)", W::NAME, args.seed);
        for name in EXACT_COUNTS {
            let (x, y) = (a.get(name), b.get(name));
            if x.is_none() && y.is_none() {
                continue;
            }
            let same = x == y;
            ok &= same;
            println!(
                "#   {name}: {} / {} {}",
                x.copied().unwrap_or(0),
                y.copied().unwrap_or(0),
                if same { "repeats" } else { "DIFFERS" }
            );
        }
        ok
    }
    let ok = twice::<CheckCorpus>(args) & twice::<SymbolicRepl>(args) & twice::<RepVerify>(args);
    println!("# self-test {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
