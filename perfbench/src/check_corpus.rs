//! `check_corpus`: the `adt check` / `adt batch specs/` path.
//!
//! One op parses one specification into a session and runs both
//! checkers on it, calling the same public functions in the same order
//! as `adt check`: `parse_session` → `check_completeness_session` →
//! `check_consistency_session`. The corpus is the 12 shipped specs plus
//! a fixed grid of synthetic specs up to 8 constructors × 64 observers,
//! printed with `print_spec` and re-parsed. The seed picks which axioms
//! of each synthetic spec are dropped; the sizes stay fixed, so the
//! cost of a round does not depend on the seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use adt_bench::workloads::synthetic_spec;
use adt_check::{
    check_completeness_session, check_consistency_session, CheckConfig, ConsistencyVerdict,
    ProbeConfig,
};
use adt_core::DetRng;
use adt_dsl::{parse_session, print_spec};
use adt_structures::sources;

use crate::rec::Recorder;
use crate::Workload;

/// Golden verdicts of the shipped specs:
/// (name, sufficiently complete, missing cases, consistent).
const GOLDEN: &[(&str, bool, usize, bool)] = &[
    ("queue", true, 0, true),
    ("queue_incomplete", false, 1, true),
    ("stack", true, 0, true),
    ("array", true, 0, true),
    ("symboltable", true, 0, true),
    ("symboltable_rep", true, 0, true),
    ("knowlist", true, 0, true),
    ("symboltable_kl", true, 0, true),
    ("list", true, 0, true),
    ("set", true, 0, true),
    ("database", true, 0, true),
    ("arithmetic", true, 0, true),
];

/// Synthetic sizes (constructors, observers). The three 8-constructor
/// sizes keep the parallel consistency phase measurable per size.
const SIZES: &[(usize, usize)] = &[
    (2, 8),
    (2, 32),
    (4, 16),
    (4, 64),
    (8, 8),
    (8, 16),
    (8, 32),
    (8, 64),
];

/// At most this many axioms are dropped from one synthetic spec.
const MAX_DROPPED: usize = 2;

struct Entry {
    /// Spec name, or `syn_<ctors>x<obs>` for synthetic specs.
    label: String,
    text: String,
    complete: bool,
    missing: usize,
    consistent: bool,
}

/// Time split of the ops of one label (traced rounds only), in ns.
#[derive(Default)]
struct Split {
    ops: u64,
    parse: u64,
    completeness: u64,
    consistency: u64,
    pool: u64,
    busy: u64,
    /// Σ jobs × pool wall time.
    capacity: u64,
}

pub struct CheckCorpus {
    entries: Vec<Entry>,
    config: CheckConfig,
    jobs: usize,
    splits: BTreeMap<String, Split>,
}

/// Removes `n` seeded axiom lines from a printed synthetic spec, each
/// from a different observer. Every observer keeps at least one axiom,
/// so each drop uncovers exactly one constructor case and the known
/// missing-case count is `n`. (An observer with no axioms left is one
/// open case `OBS(x) = ?`, not one per constructor.)
fn drop_axioms(text: &str, ctors: usize, obs: usize, n: usize, rng: &mut DetRng) -> String {
    let mut observers: Vec<usize> = Vec::new();
    while observers.len() < n {
        let o = rng.below(obs);
        if !observers.contains(&o) {
            observers.push(o);
        }
    }
    let dropped: Vec<String> = observers
        .iter()
        .map(|o| format!("[a{o}_{}] ", rng.below(ctors)))
        .collect();
    text.lines()
        .filter(|line| {
            !dropped
                .iter()
                .any(|tag| line.trim_start().starts_with(tag.as_str()))
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

impl Workload for CheckCorpus {
    const NAME: &'static str = "check_corpus";
    /// A round has 20 ops, one of them the 8×64 spec: p95 would sit on
    /// the boundary between that op and the rest, so the tail is taken
    /// inside the next-slowest group (8×32 and 4×64).
    const TAIL_Q: f64 = 0.925;

    fn setup(seed: u64, jobs: usize) -> Self {
        let mut entries: Vec<Entry> = sources::all()
            .into_iter()
            .map(|(name, text)| {
                let &(_, complete, missing, consistent) = GOLDEN
                    .iter()
                    .find(|(n, ..)| *n == name)
                    .expect("every shipped spec has a golden row");
                Entry {
                    label: name.to_owned(),
                    text: text.to_owned(),
                    complete,
                    missing,
                    consistent,
                }
            })
            .collect();
        assert_eq!(entries.len(), GOLDEN.len(), "shipped spec set changed");
        let mut rng = DetRng::new(seed);
        for &(ctors, obs) in SIZES {
            let n = rng.below(MAX_DROPPED + 1);
            let text = drop_axioms(
                &print_spec(&synthetic_spec(ctors, obs)),
                ctors,
                obs,
                n,
                &mut rng,
            );
            entries.push(Entry {
                label: format!("syn_{ctors}x{obs}"),
                text,
                complete: n == 0,
                missing: n,
                consistent: true,
            });
        }
        CheckCorpus {
            entries,
            config: CheckConfig::jobs(jobs),
            jobs,
            splits: BTreeMap::new(),
        }
    }

    fn round(&mut self, _index: u64, rec: &mut Recorder) {
        let config = &self.config;
        for e in &self.entries {
            let mut ns = [0u64; 3];
            let done = rec.op(|rec| {
                let session = rec
                    .span("dsl.parse", || parse_session(&e.text))
                    .map_err(|d| format!("{}: {}", e.label, d.render(&e.text)))?;
                ns[0] = rec.last_span_ns();
                let comp = rec.span("check.completeness", || {
                    check_completeness_session(&session, config)
                });
                ns[1] = rec.last_span_ns();
                let cons = rec.span("check.consistency", || {
                    check_consistency_session(&session, &ProbeConfig::default(), config)
                });
                ns[2] = rec.last_span_ns();
                Ok((session, comp, cons))
            });
            let Some((session, comp, cons)) = done else {
                continue;
            };
            let undetermined = comp.undetermined_ops().len()
                + cons.exhausted_pairs()
                + cons.exhausted_probes().len()
                + cons.interrupted_items();
            rec.expect(
                comp.is_sufficiently_complete() == e.complete
                    && comp.missing_case_count() == e.missing
                    && cons.is_consistent() == e.consistent
                    && *cons.verdict() != ConsistencyVerdict::Exhausted
                    && undetermined == 0
                    && cons.failures().is_empty(),
                || {
                    format!(
                        "{}: complete {} (want {}), missing {} (want {}), consistency {:?} (want consistent {}), {undetermined} undetermined item(s)",
                        e.label,
                        comp.is_sufficiently_complete(),
                        e.complete,
                        comp.missing_case_count(),
                        e.missing,
                        cons.verdict(),
                        e.consistent
                    )
                },
            );
            if rec.tracing() {
                let (c, k) = (comp.stats(), cons.stats());
                let pool = (c.elapsed + k.elapsed).as_nanos() as u64;
                let busy: u64 = c
                    .busy
                    .iter()
                    .chain(&k.busy)
                    .map(|b| b.as_nanos() as u64)
                    .sum();
                let capacity = (c.elapsed.as_nanos() as u64) * c.busy.len() as u64
                    + (k.elapsed.as_nanos() as u64) * k.busy.len() as u64;
                let s = session.stats();
                rec.count("ops", 1);
                rec.count("check.items", (c.items + k.items) as u64);
                rec.count("check.pairs", cons.pairs_checked() as u64);
                rec.count("check.probes", cons.probes_run() as u64);
                rec.count("check.steps", c.rewrite_steps + k.rewrite_steps);
                rec.count("rewrite.steps", c.rewrite_steps + k.rewrite_steps);
                rec.count("check.undetermined", undetermined as u64);
                rec.count("check.calls", 1);
                rec.count("check.pool_ns", pool);
                rec.count("check.busy_ns", busy);
                rec.count("check.capacity_ns", capacity);
                rec.count("core.arena_terms", s.interned_terms as u64);
                rec.count("core.arena_bytes", s.arena_bytes as u64);
                rec.count("core.memo_hits", s.memo_hits);
                rec.count("core.memo_lookups", s.memo_hits + s.memo_misses);
                rec.count("core.nf_hits", s.nf_cache_hits);
                rec.count("core.nf_lookups", s.nf_cache_hits + s.normalizations);
                let label = if e.label.starts_with("syn_") {
                    e.label.clone()
                } else {
                    "shipped (12 specs)".to_owned()
                };
                let split = self.splits.entry(label).or_default();
                split.ops += 1;
                split.parse += ns[0];
                split.completeness += ns[1];
                split.consistency += ns[2];
                split.pool += pool;
                split.busy += busy;
                split.capacity += capacity;
            }
        }
    }

    fn report(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "# check_corpus split per spec group at jobs {} (µs per op; serial = completeness + consistency − pool):",
            self.jobs
        );
        let _ = writeln!(
            out,
            "#   {:<20} {:>5} {:>10} {:>12} {:>12} {:>10} {:>10} {:>7}",
            "group", "ops", "parse", "completeness", "consistency", "pool", "serial", "util"
        );
        for (label, s) in &self.splits {
            let n = s.ops.max(1) as f64 * 1e3;
            let serial = (s.completeness + s.consistency).saturating_sub(s.pool);
            let util = if s.capacity == 0 {
                0.0
            } else {
                s.busy as f64 / s.capacity as f64
            };
            let _ = writeln!(
                out,
                "#   {:<20} {:>5} {:>10.1} {:>12.1} {:>12.1} {:>10.1} {:>10.1} {:>7.3}",
                label,
                s.ops,
                s.parse as f64 / n,
                s.completeness as f64 / n,
                s.consistency as f64 / n,
                s.pool as f64 / n,
                serial as f64 / n,
                util
            );
        }
    }
}
