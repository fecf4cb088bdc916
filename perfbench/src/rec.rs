//! The recorder every workload reports into: op latencies, pass/fail
//! verdicts, and — in a traced run only — spans around each call into a
//! crate and the per-round counters read from the crates' public stats.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::calib;

/// Marks a span with no parent (work outside any op).
const NO_PARENT: u32 = u32::MAX;

/// One timed call, nanoseconds from the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the span list, or `NO_PARENT`.
    pub parent: u32,
    /// The op the span belongs to (`u64::MAX` outside ops).
    pub op: u64,
}

/// One run of the reference kernel between two ops.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint {
    /// Number of ops recorded before it.
    pub op: usize,
    /// Start and end of the checkpoint, nanoseconds from the run's epoch.
    pub start: u64,
    pub end: u64,
    /// The kernel's time, from `calib::measure`.
    pub kernel_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-run measurements. Latencies and verdicts are always recorded;
/// spans and counters only when `tracing` is on, so the untraced run
/// pays one branch per span site.
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    /// Latency of every op, in completion order.
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
    /// Machine-speed checkpoints, in order (calibrating runs only).
    pub checkpoints: Vec<Checkpoint>,
    calibrating: bool,
    open_op: Option<(u32, u64)>,
    next_op: u64,
    last_span_ns: u64,
    /// Counters of the round in progress.
    round: BTreeMap<&'static str, u64>,
    /// Counters of every finished round, in order.
    pub rounds: Vec<BTreeMap<&'static str, u64>>,
}

impl Recorder {
    pub fn new(epoch: Instant, tracing: bool) -> Self {
        Recorder {
            epoch,
            tracing,
            lat_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            spans: Vec::new(),
            checkpoints: Vec::new(),
            calibrating: false,
            open_op: None,
            next_op: 0,
            last_span_ns: 0,
            round: BTreeMap::new(),
            rounds: Vec::new(),
        }
    }

    /// Makes `checkpoint` measure the machine's speed.
    pub fn calibrating(mut self) -> Self {
        self.calibrating = true;
        self
    }

    /// Times the reference kernel between two ops (see `calib`); does
    /// nothing unless the recorder is calibrating.
    pub fn checkpoint(&mut self) {
        if !self.calibrating {
            return;
        }
        let start = self.now();
        let kernel_ns = calib::measure();
        let end = self.now();
        self.checkpoints.push(Checkpoint {
            op: self.lat_ns.len(),
            start,
            end,
            kernel_ns,
        });
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs one op: times it, catches a panic as a failure, and records
    /// an `Err` as a failure. Answer checks belong after this call, so
    /// they stay out of the latency.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Recorder) -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        let id = self.next_op;
        self.next_op += 1;
        let start = self.now();
        if self.tracing {
            self.open_op = Some((self.spans.len() as u32, id));
            self.spans.push(Span {
                name: "op",
                start,
                end: start,
                parent: NO_PARENT,
                op: id,
            });
        }
        let result = catch_unwind(AssertUnwindSafe(|| f(self)));
        let end = self.now();
        self.lat_ns.push(end - start);
        if let Some((idx, _)) = self.open_op.take() {
            self.spans[idx as usize].end = end;
        }
        match result {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                self.fail(e);
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.fail(format!("panic: {msg}"));
                None
            }
        }
    }

    /// Records a wrong answer for the op just run.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    /// Checks an answer: a mismatch is a failure.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Times `f` as a span named after the layer call it wraps, a child
    /// of the open op if there is one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let start = self.now();
        let r = f();
        let end = self.now();
        let (parent, op) = self.open_op.unwrap_or((NO_PARENT, u64::MAX));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.last_span_ns = end - start;
        r
    }

    /// Duration of the most recent span (0 when not tracing).
    pub fn last_span_ns(&self) -> u64 {
        self.last_span_ns
    }

    /// Adds to a counter of the round in progress (traced runs only).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.tracing {
            *self.round.entry(name).or_insert(0) += n;
        }
    }

    /// Closes the round in progress.
    pub fn end_round(&mut self) {
        if self.tracing {
            self.rounds.push(std::mem::take(&mut self.round));
        }
    }

    /// The value of a counter summed over every finished round.
    pub fn total(&self, name: &str) -> u64 {
        self.rounds.iter().filter_map(|r| r.get(name)).sum()
    }

    /// Sum and number of the spans with this name.
    pub fn span_total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.ns(), n + 1))
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `name start_ns end_ns parent op`.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tparent\top")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == u64::MAX {
                "-".to_owned()
            } else {
                s.op.to_string()
            };
            writeln!(w, "{}\t{}\t{}\t{parent}\t{op}", s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

/// Nearest-rank quantile of unsorted samples, with the number of samples
/// strictly above the returned rank.
pub fn quantile(samples: &[u64], q: f64) -> (u64, usize) {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}
