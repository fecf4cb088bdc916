//! A dependency-free parallel work pool and check instrumentation.
//!
//! The ROADMAP's north star is a checker that is "as fast as the hardware
//! allows". Both checks — and `adt-verify`'s axiom-instance evaluation —
//! reduce to the same shape: a list of *independent* work items (operations
//! to analyse, critical pairs to classify, probes to normalize, instances to
//! evaluate) whose *results must come back in input order* so reports stay
//! byte-identical to the sequential path.
//!
//! [`run_indexed`] implements exactly that shape on `std::thread::scope`:
//! workers claim chunks of the item index space from a shared atomic
//! counter (a degenerate but contention-free form of work stealing — idle
//! workers take the next chunk rather than stealing from a victim), tag
//! every result with its item index, and the merge step sorts by index.
//! Determinism therefore does not depend on scheduling: only the *timing*
//! numbers in [`CheckStats`] vary between runs.
//!
//! The three checker phases (completeness, critical pairs, probes) run
//! their items through one crate-private protocol on top of
//! [`run_isolated`], `run_supervised`. In each item's worker it fires the
//! item's armed fault (a sleep or a panic), runs an exhaust-faulted item
//! once, unsupervised, at a one-step budget pinned at rung 0, stops with
//! the [`Interrupt`] kind if the supervisor has fired, and otherwise
//! attempts the item at the configured fuel, climbing the retry ladder
//! while the result is retryable. An item's outcome thus depends only on
//! the item and the configuration, at any job count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use adt_core::{EngineError, ExhaustionCause, Fuel, Interrupt, Supervisor};

use crate::config::CheckConfig;
use crate::fault::{ArmedFaults, COMPLETENESS};

/// The stack of each pool worker [`run_isolated`] spawns: twice what a
/// debug build needs to evaluate to [`adt_core::DEFAULT_MAX_DEPTH`],
/// which would overflow the 2 MiB a spawned thread gets by default. A
/// jobs-1 run stays on the caller's stack.
const WORKER_STACK_BYTES: usize = 16 << 20;

/// Resolves a requested job count: `0` means "use every available core"
/// (per `std::thread::available_parallelism`), anything else is taken
/// literally.
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// The outcome of one pool run: in-order results plus timing telemetry.
#[derive(Debug, Clone)]
pub struct PoolRun<R> {
    /// One result per input item, in input order.
    pub results: Vec<R>,
    /// Per-worker busy time (time spent inside the work closure's loop).
    pub busy: Vec<Duration>,
    /// Wall time of the whole run, including spawn and merge.
    pub elapsed: Duration,
}

/// A work item that could not be completed even after its retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// What went wrong (always names the item via the caller's label).
    pub error: EngineError,
}

/// Per-item outcome of a panic-isolated pool run ([`run_isolated`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemOutcome<R> {
    /// The work closure returned normally (possibly only on retry).
    Done(R),
    /// The work closure panicked on every attempt.
    Failed(CheckFailure),
}

impl<R> ItemOutcome<R> {
    /// The failure, if the item did not complete.
    pub fn failure(&self) -> Option<&CheckFailure> {
        match self {
            ItemOutcome::Done(_) => None,
            ItemOutcome::Failed(f) => Some(f),
        }
    }
}

/// Renders a panic payload for an error report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one item with a single retry: an item whose first attempt panics
/// is attempted once more on the calling thread (a fresh stack); a second
/// panic produces [`ItemOutcome::Failed`].
fn run_one<T, R, W, L>(idx: usize, item: &T, work: &W, label: &L) -> ItemOutcome<R>
where
    W: Fn(usize, &T) -> R,
    L: Fn(usize, &T) -> String,
{
    if let Ok(r) = catch_unwind(AssertUnwindSafe(|| work(idx, item))) {
        return ItemOutcome::Done(r);
    }
    match catch_unwind(AssertUnwindSafe(|| work(idx, item))) {
        Ok(r) => ItemOutcome::Done(r),
        Err(payload) => ItemOutcome::Failed(CheckFailure {
            index: idx,
            error: EngineError::WorkerPanicked {
                item: label(idx, item),
                message: panic_message(payload.as_ref()),
            },
        }),
    }
}

/// Like [`run_indexed`], but a panicking work item cannot take the pool
/// (or the process) down: every chunk runs under `catch_unwind`, a
/// panicked chunk's unfinished items are re-run item-by-item on the
/// coordinating thread (a fresh stack), and an item that still panics is
/// reported as [`ItemOutcome::Failed`] carrying an
/// [`EngineError::WorkerPanicked`] that names the item via `label`. All
/// other workers keep draining the queue; their results are untouched.
///
/// The `AssertUnwindSafe` is justified: a panicked chunk's partial
/// results are discarded wholesale and its items retried from scratch,
/// and no checker attempt reads what an earlier one left: a critical
/// pair's proof and a probe each run in their thread's cold store, which
/// `adt_rewrite::with_cold_store` empties before every use, so a panic
/// that leaves that store half-built costs the next attempt nothing.
pub fn run_isolated<T, R, W, L>(
    jobs: usize,
    items: &[T],
    work: W,
    label: L,
) -> PoolRun<ItemOutcome<R>>
where
    T: Sync,
    R: Send,
    W: Fn(usize, &T) -> R + Sync,
    L: Fn(usize, &T) -> String,
{
    let started = Instant::now();
    let jobs = effective_jobs(jobs).min(items.len()).max(1);
    if jobs == 1 {
        let t0 = Instant::now();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, t)| run_one(i, t, &work, &label))
            .collect();
        let busy = vec![t0.elapsed()];
        return PoolRun {
            results,
            busy,
            elapsed: started.elapsed(),
        };
    }

    // Chunk size balances claim overhead against load balance: aim for a
    // few claims per worker, but never below one item.
    let chunk = (items.len() / (jobs * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let work = &work;
    let per_worker: Vec<(Vec<(usize, R)>, Duration)> = std::thread::scope(|scope| {
        // A worker that cannot be spawned claims nothing: its share is
        // left to the others, or recovered inline below.
        let handles: Vec<_> = (0..jobs)
            .filter_map(|_| {
                let worker = std::thread::Builder::new().stack_size(WORKER_STACK_BYTES);
                worker
                    .spawn_scoped(scope, || {
                        let t0 = Instant::now();
                        let mut out = Vec::new();
                        loop {
                            let base = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if base >= items.len() {
                                break;
                            }
                            let end = (base + chunk).min(items.len());
                            // One catch_unwind per chunk: a panic forfeits the
                            // chunk's partial results (recovered below) but the
                            // worker itself survives to claim the next chunk.
                            let attempt = catch_unwind(AssertUnwindSafe(|| {
                                let mut got = Vec::new();
                                for (idx, item) in items.iter().enumerate().take(end).skip(base) {
                                    got.push((idx, work(idx, item)));
                                }
                                got
                            }));
                            if let Ok(got) = attempt {
                                out.extend(got);
                            }
                        }
                        (out, t0.elapsed())
                    })
                    .ok()
            })
            .collect();
        // A worker thread can only die outside the catch_unwind (e.g. an
        // allocation failure building its result vector); its items show
        // up as missing below and are recovered inline, so a failed join
        // costs results nothing.
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });

    let busy: Vec<Duration> = per_worker.iter().map(|(_, d)| *d).collect();
    let mut slots: Vec<Option<ItemOutcome<R>>> = (0..items.len()).map(|_| None).collect();
    for (idx, r) in per_worker.into_iter().flat_map(|(results, _)| results) {
        slots[idx] = Some(ItemOutcome::Done(r));
    }
    // Items lost to a panicked chunk (or a dead worker) are re-run on
    // this thread, each with the standard single retry.
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| match slot {
            Some(done) => done,
            None => run_one(idx, &items[idx], work, &label),
        })
        .collect();
    PoolRun {
        results,
        busy,
        elapsed: started.elapsed(),
    }
}

/// Runs `work(index, &items[index])` for every item and returns the
/// results **in item order**, fanning the items across `jobs` worker
/// threads (resolved by [`effective_jobs`]; capped at the item count).
///
/// Workers claim fixed-size chunks of the index space from an atomic
/// cursor, so items are processed at most once and no queue allocation or
/// locking is needed. With `jobs <= 1` — or a single item — the work runs
/// on the calling thread, making the sequential path literally the same
/// code minus the spawn.
///
/// Built on [`run_isolated`]: a transient panic is absorbed by the retry.
///
/// # Panics
///
/// Panics (on the calling thread, after all other items finish) if an
/// item panics on every attempt.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], work: F) -> PoolRun<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run = run_isolated(jobs, items, work, |i, _| format!("item #{i}"));
    let results = run
        .results
        .into_iter()
        .map(|outcome| match outcome {
            ItemOutcome::Done(r) => r,
            ItemOutcome::Failed(f) => panic!("{}", f.error),
        })
        .collect();
    PoolRun {
        results,
        busy: run.busy,
        elapsed: run.elapsed,
    }
}

/// How one checker work item ended under [`run_supervised`].
pub(crate) enum Supervised<R> {
    /// The attempt returned (on the last rung the ladder reached).
    Done(R),
    /// The supervisor had fired before the item started.
    Stopped(Interrupt),
    /// The item panicked on every attempt.
    Failed(CheckFailure),
}

/// Runs one checker phase's items under the shared per-item protocol
/// (see the module docs) and hands them back in input order.
///
/// `budget` turns a rung's fuel and supervisor into what `attempt`
/// runs with (a rewriter, a case budget); it is called once per rung
/// before any item starts, and for the one-step sabotage budget only when
/// an exhaust fault is armed. `attempt` also receives the previous
/// rung's result, if any. `exhaustion` reads which bound a result ran
/// out of, if any; the ladder is climbed while that is the step budget,
/// the only bound more fuel raises. Pool timing is folded into `stats`,
/// and every item that climbed the ladder adds one retry line, labelled
/// by `label` and by how its last rung ended.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervised<T, C, R>(
    config: &CheckConfig,
    phase: &str,
    items: &[T],
    budget: impl Fn(Fuel, &Supervisor) -> C,
    attempt: impl Fn(&C, &T, Option<R>) -> R + Sync,
    exhaustion: impl Fn(&R) -> Option<ExhaustionCause> + Sync,
    label: impl Fn(usize, &T) -> String,
    stats: &mut CheckStats,
) -> Vec<Supervised<R>>
where
    T: Sync,
    C: Sync,
    R: Send,
{
    let armed = config
        .faults
        .as_ref()
        .map_or_else(ArmedFaults::none, |faults| faults.arm(phase, items.len()));
    let first = budget(config.fuel, &config.supervisor);
    // Unsupervised, so an injected exhaustion stands even after the
    // supervisor fires.
    let sabotage = armed
        .exhaust_indices()
        .next()
        .map(|_| budget(Fuel::steps(1), &Supervisor::none()));
    let ladder: Vec<(u32, u64, C)> = config
        .retry
        .map(|retry| retry.ladder(config.fuel))
        .unwrap_or_default()
        .into_iter()
        .map(|(rung, fuel)| (rung, fuel.steps, budget(fuel, &config.supervisor)))
        .collect();
    let run = run_isolated(
        config.jobs,
        items,
        |idx, item| {
            armed.on_item(idx);
            if let Some(tiny) = sabotage.as_ref().filter(|_| armed.exhausts(idx)) {
                // Pinned at rung 0: a bigger budget would rescue the
                // sabotage, and the fault-isolation harness would be
                // testing the ladder instead of the fault.
                return Ok((attempt(tiny, item, None), None));
            }
            if let Some(kind) = config.supervisor.interrupted() {
                return Err(kind);
            }
            let mut out = attempt(&first, item, None);
            let mut reached = None;
            for (rung, steps, cx) in &ladder {
                if exhaustion(&out) != Some(ExhaustionCause::Steps) {
                    break;
                }
                out = attempt(cx, item, Some(out));
                reached = Some((*rung, *steps));
            }
            Ok((out, reached))
        },
        &label,
    );
    stats.absorb(&run.busy, run.elapsed, items.len());
    // Completeness budgets count case partitions, not rewrite steps.
    let unit = if phase == COMPLETENESS {
        "budget"
    } else {
        "fuel"
    };
    run.results
        .into_iter()
        .enumerate()
        .map(|(idx, outcome)| match outcome {
            ItemOutcome::Done(Ok((out, reached))) => {
                if let Some((rung, steps)) = reached {
                    let end = match exhaustion(&out) {
                        None => "rescued",
                        Some(ExhaustionCause::Steps) => "still exhausted",
                        Some(ExhaustionCause::Depth) => "depth bound exhausted",
                    };
                    stats.retries.push(format!(
                        "{}: {end} at rung {rung} ({unit} {steps})",
                        label(idx, &items[idx])
                    ));
                }
                Supervised::Done(out)
            }
            ItemOutcome::Done(Err(kind)) => Supervised::Stopped(kind),
            ItemOutcome::Failed(failure) => Supervised::Failed(failure),
        })
        .collect()
}

/// Observability counters for one checking run.
///
/// Everything here is *telemetry*: two runs of the same check produce
/// identical reports but different `CheckStats` timings. Comparisons of
/// checker output must therefore never include the stats — which is why
/// the report types expose them through a getter instead of folding them
/// into `PartialEq`.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Independent work items processed (ops, pairs, probes, instances).
    pub items: usize,
    /// Critical pairs classified (consistency checks only).
    pub pairs_checked: usize,
    /// Ground probes normalized (consistency checks only).
    pub probes_run: usize,
    /// Rewrite steps performed by instrumented normalizations.
    pub rewrite_steps: u64,
    /// Wall time of the parallel phase(s).
    pub elapsed: Duration,
    /// Per-worker busy time.
    pub busy: Vec<Duration>,
    /// Per-operation analysis wall time (completeness checks only), in
    /// operation-declaration order.
    pub op_times: Vec<(String, Duration)>,
    /// One line per item the retry ladder re-ran ("… rescued at rung 2
    /// (fuel 16000)", "… still exhausted …" or "… depth bound exhausted
    /// …"), in item order. Deterministic for a given
    /// configuration, unlike the timing fields.
    pub retries: Vec<String>,
}

impl CheckStats {
    /// Folds a pool run's telemetry into the stats.
    pub fn absorb(&mut self, run_busy: &[Duration], run_elapsed: Duration, items: usize) {
        self.items += items;
        self.elapsed += run_elapsed;
        for (i, b) in run_busy.iter().enumerate() {
            if i < self.busy.len() {
                self.busy[i] += *b;
            } else {
                self.busy.push(*b);
            }
        }
        self.jobs = self.jobs.max(run_busy.len());
    }

    /// Fraction of `jobs × elapsed` the workers spent busy, in `0.0..=1.0`.
    /// Near 1.0 means the fan-out kept every worker fed.
    pub fn utilization(&self) -> f64 {
        if self.jobs == 0 || self.elapsed.is_zero() {
            return 0.0;
        }
        let total_busy: Duration = self.busy.iter().sum();
        (total_busy.as_secs_f64() / (self.elapsed.as_secs_f64() * self.jobs as f64)).min(1.0)
    }

    /// Renders the stats in the `adt check --stats` format.
    pub fn render(&self) -> String {
        let mut out = format!(
            "stats: {} job(s), {} item(s), {} pair(s), {} probe(s), {} rewrite step(s)\n",
            self.jobs, self.items, self.pairs_checked, self.probes_run, self.rewrite_steps
        );
        out.push_str(&format!(
            "stats: wall {:?}, utilization {:.0}%\n",
            self.elapsed,
            self.utilization() * 100.0
        ));
        for (op, t) in &self.op_times {
            out.push_str(&format!("stats:   {op}: {t:?}\n"));
        }
        for line in &self.retries {
            out.push_str(&format!("stats: retry {line}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for jobs in [1, 2, 4, 7] {
            let run = run_indexed(jobs, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
            assert_eq!(run.results, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let run = run_indexed::<usize, usize, _>(4, &[], |_, &x| x);
        assert!(run.results.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let run = run_indexed(8, &[41], |_, &x| x + 1);
        assert_eq!(run.results, vec![42]);
        assert_eq!(run.busy.len(), 1, "one item needs one worker");
    }

    #[test]
    fn jobs_zero_means_available_parallelism() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn parallel_equals_sequential_on_heavier_work() {
        let items: Vec<u64> = (0..256).collect();
        let work = |_: usize, &x: &u64| -> u64 {
            // A little arithmetic so workers actually interleave.
            (0..x % 97).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let seq = run_indexed(1, &items, work);
        let par = run_indexed(4, &items, work);
        assert_eq!(seq.results, par.results);
    }

    #[test]
    fn utilization_is_bounded() {
        let items: Vec<usize> = (0..64).collect();
        let run = run_indexed(4, &items, |_, &x| x);
        let mut stats = CheckStats::default();
        stats.absorb(&run.busy, run.elapsed, items.len());
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        assert_eq!(stats.items, 64);
    }

    #[test]
    fn isolated_pool_contains_a_deterministic_panic() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 4] {
            let run = run_isolated(
                jobs,
                &items,
                |_, &x| {
                    assert!(x != 37, "injected fault on 37");
                    x * 2
                },
                |i, _| format!("probe #{i}"),
            );
            assert_eq!(run.results.len(), items.len());
            for (i, outcome) in run.results.iter().enumerate() {
                if i == 37 {
                    let f = outcome.failure().expect("item 37 must fail");
                    assert_eq!(f.index, 37);
                    assert!(f.error.to_string().contains("probe #37"), "{}", f.error);
                } else {
                    assert_eq!(outcome, &ItemOutcome::Done(i * 2), "jobs={jobs} item {i}");
                }
            }
        }
    }

    #[test]
    fn isolated_pool_retries_transient_panics() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<usize> = (0..8).collect();
        let tripped = AtomicBool::new(false);
        let run = run_isolated(
            4,
            &items,
            |_, &x| {
                if x == 3 && !tripped.swap(true, Ordering::SeqCst) {
                    panic!("transient fault");
                }
                x + 1
            },
            |i, _| format!("item #{i}"),
        );
        // The transient panic is absorbed by the retry: every item done.
        let done: Vec<_> = (1..=8).map(ItemOutcome::Done).collect();
        assert_eq!(run.results, done);
    }

    #[test]
    fn run_indexed_survives_a_transient_panic() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<usize> = (0..64).collect();
        let tripped = AtomicBool::new(false);
        let run = run_indexed(2, &items, |_, &x| {
            if x == 11 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("transient fault");
            }
            x
        });
        assert_eq!(run.results, items);
    }

    #[test]
    fn render_mentions_jobs_and_items() {
        let mut stats = CheckStats {
            jobs: 4,
            items: 10,
            ..CheckStats::default()
        };
        stats
            .op_times
            .push(("FRONT".into(), Duration::from_millis(2)));
        let text = stats.render();
        assert!(text.contains("4 job(s)"), "{text}");
        assert!(text.contains("FRONT"), "{text}");
    }
}
