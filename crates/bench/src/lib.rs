//! # adt-bench — workload generators and a dependency-free harness
//!
//! The `adt-bench` runner regenerates every measured row of
//! EXPERIMENTS.md; this library holds the deterministic workload
//! generators it shares, so a bench and its corresponding test exercise
//! identical operation sequences, plus the [`harness`] module — a small
//! `std`-only timing loop that replaces the external Criterion
//! dependency so the whole workspace builds offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness {
    //! A minimal micro-benchmark harness over [`std::time::Instant`].
    //!
    //! Each measurement warms the routine up, picks an iteration count
    //! that fills a per-sample time budget, takes a fixed number of
    //! samples and reports the *median* per-iteration time (medians are
    //! robust to scheduler noise, which matters more than statistical
    //! power for the factor-level comparisons EXPERIMENTS.md makes).
    //!
    //! [`Group::budget`] shrinks the budgets; the runner's `--quick`
    //! profile uses it for smoke runs.

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// One completed measurement.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Measurement {
        /// Median wall-clock time of one routine invocation.
        pub per_iter: Duration,
        /// Iterations per sample the harness settled on.
        pub iters: u64,
        /// Number of samples taken.
        pub samples: u32,
    }

    impl Measurement {
        /// `self` as a speedup factor over `other` (>1 means `self` is
        /// faster).
        pub fn speedup_over(&self, other: &Measurement) -> f64 {
            other.per_iter.as_secs_f64() / self.per_iter.as_secs_f64().max(f64::MIN_POSITIVE)
        }
    }

    /// A named group of related measurements, printed as
    /// `group/label  <time>/iter`.
    #[derive(Debug)]
    pub struct Group {
        name: String,
        warmup: Duration,
        budget: Duration,
    }

    /// Samples per measurement.
    const SAMPLES: u32 = 10;

    impl Group {
        /// Starts a group with the default budget (10 samples over
        /// ~900 ms, after ~200 ms of warm-up — the same budget the old
        /// Criterion configuration used).
        pub fn new(name: &str) -> Self {
            Group {
                name: name.to_string(),
                warmup: Duration::from_millis(200),
                budget: Duration::from_millis(900),
            }
        }

        /// Overrides the warm-up and measurement budgets (mainly for
        /// tests and one-off quick runs).
        #[must_use]
        pub fn budget(mut self, warmup: Duration, budget: Duration) -> Self {
            self.warmup = warmup;
            self.budget = budget;
            self
        }

        /// Measures `routine`, prints one line, and returns the
        /// measurement.
        pub fn bench<R>(&self, label: &str, mut routine: impl FnMut() -> R) -> Measurement {
            self.bench_batched(label, || (), |()| routine())
        }

        /// Measures `routine` over inputs produced per-iteration by
        /// `setup`; only the routine is timed (the replacement for
        /// Criterion's `iter_batched`).
        pub fn bench_batched<S, R>(
            &self,
            label: &str,
            mut setup: impl FnMut() -> S,
            mut routine: impl FnMut(S) -> R,
        ) -> Measurement {
            let warm_start = Instant::now();
            let mut warm_iters = 0u64;
            let mut warm_spent = Duration::ZERO;
            while warm_start.elapsed() < self.warmup || warm_iters == 0 {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                warm_spent += t.elapsed();
                warm_iters += 1;
            }
            let est = warm_spent / u32::try_from(warm_iters).unwrap_or(u32::MAX);
            let per_sample = self.budget / SAMPLES;
            let iters = (per_sample.as_nanos() / est.as_nanos().max(1))
                .clamp(1, u128::from(u32::MAX)) as u64;

            let mut times = Vec::with_capacity(SAMPLES as usize);
            for _ in 0..SAMPLES {
                let inputs: Vec<S> = (0..iters).map(|_| setup()).collect();
                let t = Instant::now();
                for input in inputs {
                    black_box(routine(input));
                }
                times.push(t.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX));
            }
            self.report(label, &mut times, iters)
        }

        /// Measures two routines over the same per-iteration inputs by
        /// strict alternation: sample *k* of `a` runs immediately before
        /// sample *k* of `b`, so slow drift (thermal throttling, noisy
        /// co-tenants) lands on both sides equally. Use this instead of
        /// two [`Group::bench_batched`] calls whenever the effect being
        /// measured is smaller than run-to-run drift — an A/B delta of a
        /// few percent is invisible to back-to-back rows but survives
        /// pairing.
        pub fn bench_paired<S, R>(
            &self,
            label_a: &str,
            label_b: &str,
            mut setup: impl FnMut() -> S,
            mut a: impl FnMut(S) -> R,
            mut b: impl FnMut(S) -> R,
        ) -> (Measurement, Measurement) {
            let warm_start = Instant::now();
            let mut warm_iters = 0u64;
            let mut warm_spent = Duration::ZERO;
            while warm_start.elapsed() < self.warmup || warm_iters == 0 {
                let t = Instant::now();
                black_box(a(setup()));
                black_box(b(setup()));
                warm_spent += t.elapsed();
                warm_iters += 1;
            }
            // `est` covers one a+b pair, so the shared budget splits fairly.
            let est = warm_spent / u32::try_from(warm_iters).unwrap_or(u32::MAX);
            let per_sample = self.budget / SAMPLES;
            let iters = (per_sample.as_nanos() / est.as_nanos().max(1))
                .clamp(1, u128::from(u32::MAX)) as u64;

            let mut times_a = Vec::with_capacity(SAMPLES as usize);
            let mut times_b = Vec::with_capacity(SAMPLES as usize);
            for _ in 0..SAMPLES {
                // Alternate at iteration granularity — a, b, a, b — so a
                // burst of noise inside one sample still hits both sides.
                let mut spent_a = Duration::ZERO;
                let mut spent_b = Duration::ZERO;
                for _ in 0..iters {
                    let input = setup();
                    let t = Instant::now();
                    black_box(a(input));
                    spent_a += t.elapsed();
                    let input = setup();
                    let t = Instant::now();
                    black_box(b(input));
                    spent_b += t.elapsed();
                }
                times_a.push(spent_a / u32::try_from(iters).unwrap_or(u32::MAX));
                times_b.push(spent_b / u32::try_from(iters).unwrap_or(u32::MAX));
            }
            (
                self.report(label_a, &mut times_a, iters),
                self.report(label_b, &mut times_b, iters),
            )
        }

        fn report(&self, label: &str, times: &mut [Duration], iters: u64) -> Measurement {
            times.sort_unstable();
            let per_iter = times[times.len() / 2];
            println!(
                "{}/{label:<28} {:>12}/iter   ({} samples x {iters} iters)",
                self.name,
                fmt_duration(per_iter),
                times.len(),
            );
            Measurement {
                per_iter,
                iters,
                samples: SAMPLES,
            }
        }
    }

    /// Renders a duration with an adaptive unit (`ns`, `µs`, `ms`, `s`).
    pub fn fmt_duration(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns < 1_000 {
            format!("{ns} ns")
        } else if ns < 1_000_000 {
            format!("{:.2} µs", ns as f64 / 1_000.0)
        } else if ns < 1_000_000_000 {
            format!("{:.2} ms", ns as f64 / 1_000_000.0)
        } else {
            format!("{:.2} s", ns as f64 / 1_000_000_000.0)
        }
    }
}

pub mod report {
    //! Machine-readable benchmark reports (`BENCH_rewrite.json`).
    //!
    //! The runner binary (`cargo run -p adt-bench`) measures a fixed set
    //! of benchmarks and emits them as JSON. [`BenchReport::to_json`] owns
    //! the field layout; string escaping and parsing go through the
    //! workspace's one codec, [`adt_core::json`]. Two readers exist: the
    //! runner's `--baseline` regression gate (CI), and humans diffing the
    //! committed baseline at the repo root.

    use std::fmt::Write as _;

    use adt_core::json::{self, quote, Json};

    /// One measured benchmark row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchRecord {
        /// Benchmark group (`"rewrite_queue"`, `"checker_scaling"`, …).
        pub group: String,
        /// Label within the group (`"front/128"`, …).
        pub name: String,
        /// Median per-iteration time of the current engine, nanoseconds.
        pub median_ns: u64,
        /// The median this row is compared against, if any: a previous
        /// engine's median (merged with `--merge-before`; the pre-arena
        /// engine for most committed rows) or, for a comparison row, the
        /// median of its counterpart row in the same run.
        pub before_ns: Option<u64>,
        /// Iterations per sample the harness settled on.
        pub iters: u64,
        /// Samples taken.
        pub samples: u32,
    }

    impl BenchRecord {
        /// `before_ns / median_ns`, if a before measurement is present.
        pub fn speedup(&self) -> Option<f64> {
            self.before_ns
                .map(|b| b as f64 / (self.median_ns.max(1)) as f64)
        }

        /// The `group/name` key used for baseline comparisons.
        pub fn key(&self) -> String {
            format!("{}/{}", self.group, self.name)
        }
    }

    /// A full report: schema tag, measurement profile, rows.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BenchReport {
        /// Schema identifier (`"adt-bench/v1"`).
        pub schema: String,
        /// `"full"` or `"quick"` (the runner's `--quick` profile).
        pub profile: String,
        /// Measured rows.
        pub benchmarks: Vec<BenchRecord>,
    }

    impl BenchReport {
        /// Current schema tag.
        pub const SCHEMA: &'static str = "adt-bench/v1";

        /// Creates an empty report for the given profile.
        pub fn new(profile: &str) -> Self {
            BenchReport {
                schema: Self::SCHEMA.to_string(),
                profile: profile.to_string(),
                benchmarks: Vec::new(),
            }
        }

        /// Looks a row up by `group/name` key.
        pub fn find(&self, key: &str) -> Option<&BenchRecord> {
            self.benchmarks.iter().find(|b| b.key() == key)
        }

        /// Copies `before.median_ns` into `self.before_ns` for every row
        /// present in both reports (the before/after merge the committed
        /// baseline carries).
        pub fn merge_before(&mut self, before: &BenchReport) {
            for row in &mut self.benchmarks {
                if let Some(prev) = before
                    .benchmarks
                    .iter()
                    .find(|b| b.group == row.group && b.name == row.name)
                {
                    row.before_ns = Some(prev.median_ns);
                }
            }
        }

        /// Renders the report as pretty-printed JSON.
        pub fn to_json(&self) -> String {
            let mut out = String::new();
            out.push_str("{\n");
            let _ = writeln!(out, "  \"schema\": {},", quote(&self.schema));
            let _ = writeln!(out, "  \"profile\": {},", quote(&self.profile));
            out.push_str("  \"benchmarks\": [\n");
            for (i, b) in self.benchmarks.iter().enumerate() {
                out.push_str("    {\n");
                let _ = writeln!(out, "      \"group\": {},", quote(&b.group));
                let _ = writeln!(out, "      \"name\": {},", quote(&b.name));
                if let Some(before) = b.before_ns {
                    let _ = writeln!(out, "      \"before_ns\": {before},");
                }
                let _ = writeln!(out, "      \"median_ns\": {},", b.median_ns);
                if let Some(speedup) = b.speedup() {
                    let _ = writeln!(out, "      \"speedup\": {speedup:.2},");
                }
                let _ = writeln!(out, "      \"iters\": {},", b.iters);
                let _ = writeln!(out, "      \"samples\": {}", b.samples);
                out.push_str(if i + 1 == self.benchmarks.len() {
                    "    }\n"
                } else {
                    "    },\n"
                });
            }
            out.push_str("  ]\n}\n");
            out
        }

        /// Parses a report previously produced by [`BenchReport::to_json`].
        ///
        /// # Errors
        ///
        /// Returns a human-readable message for malformed input or an
        /// unknown schema tag.
        pub fn from_json(text: &str) -> Result<Self, String> {
            let top = json::parse(text)?;
            let schema = top.field("schema", Json::as_str)?;
            if schema != Self::SCHEMA {
                return Err(format!(
                    "unknown schema `{schema}` (expected `{}`)",
                    Self::SCHEMA
                ));
            }
            let mut benchmarks = Vec::new();
            for row in top.field("benchmarks", Json::as_arr)? {
                benchmarks.push(BenchRecord {
                    group: row.field("group", Json::as_str)?.to_string(),
                    name: row.field("name", Json::as_str)?.to_string(),
                    median_ns: row.field("median_ns", Json::as_u64)?,
                    before_ns: row.field("before_ns", Json::as_u64).ok(),
                    iters: row.field("iters", Json::as_u64)?,
                    samples: u32::try_from(row.field("samples", Json::as_u64)?)
                        .map_err(|_| "`samples` out of range".to_string())?,
                });
            }
            Ok(BenchReport {
                schema: schema.to_string(),
                profile: top.field("profile", Json::as_str)?.to_string(),
                benchmarks,
            })
        }
    }

    /// One baseline benchmark that got slower than the baseline allows,
    /// or that the fresh run lacks.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        /// `group/name` of the offending benchmark.
        pub key: String,
        /// Baseline median, nanoseconds.
        pub baseline_ns: u64,
        /// Fresh median, nanoseconds; `None` if the fresh run has no
        /// such row.
        pub fresh_ns: Option<u64>,
    }

    /// Compares a fresh run against a committed baseline. Every baseline
    /// benchmark is reported that the fresh run lacks, or whose fresh
    /// median exceeds `max_regress ×` the baseline median. Benchmarks
    /// present only in the fresh run are not reported: adding one is not
    /// a regression, but a committed row that stops running would let
    /// its regression go unseen.
    pub fn regressions(
        fresh: &BenchReport,
        baseline: &BenchReport,
        max_regress: f64,
    ) -> Vec<Regression> {
        let mut out = Vec::new();
        for b in &baseline.benchmarks {
            let fresh_ns = fresh.find(&b.key()).map(|f| f.median_ns);
            let within = |ns: u64| ns as f64 / b.median_ns.max(1) as f64 <= max_regress;
            if !fresh_ns.is_some_and(within) {
                out.push(Regression {
                    key: b.key(),
                    baseline_ns: b.median_ns,
                    fresh_ns,
                });
            }
        }
        out
    }
}

pub mod workloads {
    //! Deterministic pseudo-random workloads over symbol tables, arrays
    //! and queues.

    use adt_core::{Spec, SpecBuilder, Term};
    use adt_structures::Ident;

    /// Builds a complete synthetic spec with `ctors` constructors (one
    /// nullary, the rest unary-recursive) and `obs` observers, each fully
    /// case-covered — the family the checker-scaling benchmarks measure.
    pub fn synthetic_spec(ctors: usize, obs: usize) -> Spec {
        let mut b = SpecBuilder::new("Synthetic");
        let s = b.sort("S");
        let mut ctor_ids = Vec::new();
        ctor_ids.push((b.ctor("C0", [], s), 0usize));
        for k in 1..ctors {
            ctor_ids.push((b.ctor(&format!("C{k}"), [s], s), 1));
        }
        let x = Term::Var(b.var("x", s));
        for o in 0..obs {
            let op = b.op(&format!("OBS{o}?"), [s], b.bool_sort());
            for (k, &(ctor, arity)) in ctor_ids.iter().enumerate() {
                let lhs = if arity == 0 {
                    b.app(op, [b.app(ctor, [])])
                } else {
                    b.app(op, [b.app(ctor, [x.clone()])])
                };
                let rhs = if (o + k) % 2 == 0 { b.tt() } else { b.ff() };
                b.axiom(format!("a{o}_{k}"), lhs, rhs);
            }
        }
        b.build().expect("synthetic specs are well-formed")
    }

    /// One symbol-table operation of a compiler-like trace.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum SymOp {
        /// Open a scope.
        Enter,
        /// Close a scope (generated only when one is open).
        Leave,
        /// Declare identifier `idx` in the current scope.
        Add(usize),
        /// Look the identifier up.
        Retrieve(usize),
    }

    /// A deterministic splitmix64 stream.
    #[derive(Debug, Clone)]
    pub struct Stream(u64);

    impl Stream {
        /// Creates a stream from a seed.
        pub fn new(seed: u64) -> Self {
            Stream(seed)
        }

        /// Next raw value.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// Next value below `n`.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Generates a compiler-like symbol-table trace: `len` operations,
    /// roughly 50% ADD, 30% RETRIEVE, 10% ENTER, 10% LEAVE, drawn from
    /// `idents` distinct identifiers. Block structure is kept well formed
    /// (never leaves the outermost block).
    pub fn symtab_trace(len: usize, idents: usize, seed: u64) -> Vec<SymOp> {
        let mut s = Stream::new(seed);
        let mut depth = 1usize;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let roll = s.below(10);
            let op = match roll {
                0 => {
                    depth += 1;
                    SymOp::Enter
                }
                1 if depth > 1 => {
                    depth -= 1;
                    SymOp::Leave
                }
                2..=6 => SymOp::Add(s.below(idents)),
                _ => SymOp::Retrieve(s.below(idents)),
            };
            out.push(op);
        }
        out
    }

    /// Builds a ground Queue term of `adds` enqueues followed by
    /// `removes` dequeues.
    pub fn queue_term(spec: &Spec, adds: usize, removes: usize, seed: u64) -> Term {
        let sig = spec.sig();
        let items = ["A", "B", "C"];
        let mut s = Stream::new(seed);
        let mut t = sig.apply("NEW", vec![]).expect("NEW exists");
        for _ in 0..adds {
            let item = sig.apply(items[s.below(3)], vec![]).expect("item exists");
            t = sig.apply("ADD", vec![t, item]).expect("well-sorted");
        }
        for _ in 0..removes {
            t = sig.apply("REMOVE", vec![t]).expect("well-sorted");
        }
        t
    }

    /// Identifiers for array benchmarks: `v0`, `v1`, ….
    pub fn ident_names(n: usize) -> Vec<Ident> {
        (0..n).map(|i| Ident::new(format!("v{i}"))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::workloads::*;
    use adt_rewrite::Rewriter;
    use adt_structures::specs::queue_spec;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Stream::new(7);
        let mut b = Stream::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Stream::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn traces_keep_block_structure_well_formed() {
        let trace = symtab_trace(500, 10, 3);
        assert_eq!(trace.len(), 500);
        let mut depth = 1i64;
        for op in &trace {
            match op {
                SymOp::Enter => depth += 1,
                SymOp::Leave => depth -= 1,
                _ => {}
            }
            assert!(depth >= 1);
        }
    }

    #[test]
    fn queue_terms_normalize_to_values_or_error() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        for (adds, removes) in [(0, 0), (5, 2), (3, 5), (20, 20)] {
            let t = queue_term(&spec, adds, removes, 42);
            let nf = rw.normalize(&t).unwrap();
            assert!(nf.is_constructor_term(spec.sig()));
        }
    }

    #[test]
    fn ident_names_are_distinct() {
        let names = ident_names(100);
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn synthetic_specs_are_complete() {
        use adt_check::check_completeness;
        let spec = synthetic_spec(4, 8);
        assert!(check_completeness(&spec).is_sufficiently_complete());
    }

    mod report {
        use crate::report::{regressions, BenchRecord, BenchReport, Regression};

        fn row(group: &str, name: &str, median_ns: u64) -> BenchRecord {
            BenchRecord {
                group: group.to_string(),
                name: name.to_string(),
                median_ns,
                before_ns: None,
                iters: 100,
                samples: 10,
            }
        }

        fn sample_report() -> BenchReport {
            let mut r = BenchReport::new("full");
            r.benchmarks.push(row("rewrite_queue", "front/128", 5_000));
            r.benchmarks
                .push(row("rewrite_queue", "queries_plain/32", 900));
            r.benchmarks[1].before_ns = Some(2_700);
            r
        }

        #[test]
        fn json_round_trips() {
            let report = sample_report();
            let text = report.to_json();
            let parsed = BenchReport::from_json(&text).expect("parses");
            assert_eq!(parsed, report);
        }

        #[test]
        fn committed_baseline_re_renders_byte_for_byte() {
            let committed = include_str!("../../../BENCH_rewrite.json");
            let parsed = BenchReport::from_json(committed).expect("baseline parses");
            assert!(!parsed.benchmarks.is_empty());
            assert_eq!(parsed.to_json(), committed);
        }

        #[test]
        fn control_characters_survive_the_round_trip() {
            let mut report = sample_report();
            report.benchmarks[0].name = "tab\there \"quoted\" nl\n bell\u{7}".to_string();
            let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
            assert_eq!(parsed, report);
        }

        #[test]
        fn speedup_is_before_over_after() {
            let report = sample_report();
            assert_eq!(report.benchmarks[0].speedup(), None);
            let s = report.benchmarks[1].speedup().expect("has before");
            assert!((s - 3.0).abs() < 1e-9, "got {s}");
        }

        #[test]
        fn merge_before_fills_matching_rows_only() {
            let mut after = sample_report();
            after.benchmarks.push(row("rewrite_queue", "drain/64", 10));
            let mut before = BenchReport::new("full");
            before
                .benchmarks
                .push(row("rewrite_queue", "front/128", 20_000));
            after.merge_before(&before);
            assert_eq!(after.benchmarks[0].before_ns, Some(20_000));
            // Untouched: no matching row in `before`.
            assert_eq!(after.benchmarks[2].before_ns, None);
        }

        #[test]
        fn regressions_flag_only_slowdowns_past_threshold() {
            let baseline = sample_report();
            let mut fresh = sample_report();
            fresh.benchmarks[0].median_ns = 11_000; // 2.2x slower
            fresh.benchmarks[1].median_ns = 1_700; // 1.89x slower
            fresh.benchmarks.push(row("new", "bench/1", 1)); // not in baseline
            let regs = regressions(&fresh, &baseline, 2.0);
            assert_eq!(regs.len(), 1);
            assert_eq!(regs[0].key, "rewrite_queue/front/128");
            assert_eq!(regs[0].fresh_ns, Some(11_000));
            assert!(regressions(&fresh, &baseline, 2.5).is_empty());
        }

        #[test]
        fn a_baseline_row_missing_from_the_fresh_run_is_reported() {
            let baseline = sample_report();
            let mut fresh = sample_report();
            fresh.benchmarks.remove(0);
            fresh.benchmarks.push(row("new", "bench/1", 1)); // not in baseline
            let regs = regressions(&fresh, &baseline, 2.0);
            assert_eq!(
                regs,
                [Regression {
                    key: "rewrite_queue/front/128".to_string(),
                    baseline_ns: 5_000,
                    fresh_ns: None,
                }]
            );
        }

        #[test]
        fn from_json_rejects_malformed_input() {
            assert!(BenchReport::from_json("").is_err());
            assert!(BenchReport::from_json("[1, 2]").is_err());
            assert!(BenchReport::from_json("{\"schema\": \"other/v9\"}").is_err());
            let mut text = sample_report().to_json();
            text.push('x');
            assert!(BenchReport::from_json(&text).is_err());
        }
    }

    mod harness {
        use crate::harness::{fmt_duration, Group};
        use std::time::Duration;

        fn quick_group(name: &str) -> Group {
            Group::new(name).budget(Duration::from_millis(2), Duration::from_millis(9))
        }

        #[test]
        fn bench_measures_and_orders_work() {
            let g = quick_group("harness_test");
            let fast = g.bench("fast", || std::hint::black_box(1u64 + 1));
            let slow = g.bench("slow", || {
                let mut acc = 0u64;
                for i in 0..20_000u64 {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                acc
            });
            assert!(fast.iters >= 1 && slow.iters >= 1);
            assert!(slow.per_iter >= fast.per_iter);
            assert!(slow.speedup_over(&fast) <= 1.0 + f64::EPSILON);
        }

        #[test]
        fn bench_batched_runs_setup_per_iteration() {
            let g = quick_group("harness_test");
            let m = g.bench_batched(
                "batched",
                || vec![1u32, 2, 3],
                |v| v.into_iter().sum::<u32>(),
            );
            assert!(m.per_iter > Duration::ZERO);
        }

        #[test]
        fn bench_paired_alternates_and_shares_the_iteration_count() {
            let g = quick_group("harness_test");
            let (fast, slow) = g.bench_paired(
                "paired_fast",
                "paired_slow",
                || 200u64,
                |n| std::hint::black_box(n + 1),
                |n| {
                    let mut acc = 0u64;
                    for i in 0..n * 100 {
                        acc = acc.wrapping_add(std::hint::black_box(i));
                    }
                    acc
                },
            );
            // Both sides of a pair are measured at the same iteration
            // count — that is the point of pairing.
            assert_eq!(fast.iters, slow.iters);
            assert!(slow.per_iter >= fast.per_iter);
        }

        #[test]
        fn durations_format_with_adaptive_units() {
            assert_eq!(fmt_duration(Duration::from_nanos(120)), "120 ns");
            assert_eq!(fmt_duration(Duration::from_nanos(2_500)), "2.50 µs");
            assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
            assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        }
    }
}
