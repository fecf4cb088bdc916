//! Deterministic fault injection for the checking engine.
//!
//! A robustness claim ("a panicking worker cannot corrupt the report")
//! is only worth making if it can be *exercised*. A [`FaultSpec`]
//! describes a reproducible set of faults — worker panics, fuel
//! exhaustion, artificial slowness — and [`FaultSpec::arm`] maps it onto
//! a concrete item range using the same deterministic RNG
//! ([`adt_core::DetRng`]) the consistency probes use. The same spec
//! armed for the same phase over the same item count always picks the
//! same indices, so a fault-injection harness can predict exactly which
//! work items were sabotaged and compare everything else against a
//! fault-free run.
//!
//! [`fault_isolation_check`] is that harness. The claim under test: a
//! sabotaged work item must not perturb the verdict of any *other* item.
//! It runs both checkers twice over the same specification, once clean
//! and once under a plan, re-arms the plan to learn which indices were
//! sabotaged, and compares the per-item verdict strings of every
//! non-faulted index. Any difference is an isolation failure in the
//! engine itself.

use std::collections::BTreeSet;

use adt_core::{fnv1a, DetRng, Spec};

use crate::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, OpCoverage,
    ProbeConfig,
};

/// The completeness phase: one item per derived operation.
pub const COMPLETENESS: &str = "completeness";
/// The critical-pair phase: one item per superposition.
pub const PAIRS: &str = "pairs";
/// The ground-probe phase: one item per sampled probe term.
pub const PROBES: &str = "probes";

/// A reproducible fault plan: how many items to sabotage per phase, and
/// how.
///
/// Counts apply *per phase* (completeness, pairs, probes): `panics: 1`
/// injects one panicking item into each phase it is armed for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for the deterministic index choice.
    pub seed: u64,
    /// Items whose work closure panics (every attempt — injected panics
    /// are deterministic, so the retry panics too).
    pub panics: usize,
    /// Items that run under a deliberately tiny fuel budget.
    pub exhausts: usize,
    /// Items that sleep before running (stresses chunk claiming and the
    /// in-order merge without changing any result).
    pub slows: usize,
    /// How long a slowed item sleeps, in milliseconds.
    pub slow_ms: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            panics: 0,
            exhausts: 0,
            slows: 0,
            slow_ms: 10,
        }
    }
}

impl FaultSpec {
    /// Whether any fault is configured at all.
    pub fn is_active(&self) -> bool {
        self.panics + self.exhausts + self.slows > 0
    }

    /// Parses a fault plan of the form
    /// `"seed=7,panic=1,exhaust=1,slow=2,slow-ms=5"`.
    ///
    /// Every key is optional but may appear at most once (aliases such as
    /// `panic`/`panics` count as the same key); repeated, unknown, and
    /// malformed entries are errors. An empty string parses to the inert
    /// default plan.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut plan = FaultSpec::default();
        let mut seen: Vec<&'static str> = Vec::new();
        let mut claim = |canonical: &'static str, spelled: &str| -> Result<(), String> {
            if seen.contains(&canonical) {
                return Err(format!(
                    "fault plan key `{spelled}` given more than once (`{canonical}` was already set)"
                ));
            }
            seen.push(canonical);
            Ok(())
        };
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{part}` is not of the form key=value"))?;
            let n = value
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("fault plan value `{value}` for `{key}` is not a number"))?;
            let key = key.trim();
            match key {
                "seed" => {
                    claim("seed", key)?;
                    plan.seed = n;
                }
                "panic" | "panics" => {
                    claim("panic", key)?;
                    plan.panics = n as usize;
                }
                "exhaust" | "exhausts" => {
                    claim("exhaust", key)?;
                    plan.exhausts = n as usize;
                }
                "slow" | "slows" => {
                    claim("slow", key)?;
                    plan.slows = n as usize;
                }
                "slow-ms" => {
                    claim("slow-ms", key)?;
                    plan.slow_ms = n;
                }
                other => {
                    return Err(format!(
                        "unknown fault plan key `{other}` (expected seed, panic, exhaust, slow, slow-ms)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Maps the plan onto a concrete phase with `items` work items.
    ///
    /// Deterministic: the same `(spec, phase, items)` triple always
    /// yields the same [`ArmedFaults`]. The three fault kinds pick
    /// *disjoint* indices (panic wins over exhaust wins over slow), so a
    /// single item never carries two faults. The phase name (FNV-1a
    /// hashed) is mixed into the seed, so each phase picks independent
    /// indices.
    pub fn arm(&self, phase: &str, items: usize) -> ArmedFaults {
        let mut rng = DetRng::new(self.seed ^ fnv1a(phase));
        let mut taken: BTreeSet<usize> = BTreeSet::new();
        let mut pick = |count: usize, taken: &mut BTreeSet<usize>| -> BTreeSet<usize> {
            let mut chosen = BTreeSet::new();
            let want = count.min(items.saturating_sub(taken.len()));
            while chosen.len() < want {
                let idx = rng.below(items);
                if taken.insert(idx) {
                    chosen.insert(idx);
                }
            }
            chosen
        };
        let panics = pick(self.panics, &mut taken);
        let exhausts = pick(self.exhausts, &mut taken);
        let slows = pick(self.slows, &mut taken);
        ArmedFaults {
            panics,
            exhausts,
            slows,
            slow_ms: self.slow_ms,
        }
    }
}

/// A [`FaultSpec`] resolved against one phase's item range: the concrete
/// indices to sabotage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmedFaults {
    panics: BTreeSet<usize>,
    exhausts: BTreeSet<usize>,
    slows: BTreeSet<usize>,
    slow_ms: u64,
}

impl ArmedFaults {
    /// An armed plan with no faults (what checkers use when no spec is
    /// given — every query answers "not faulted").
    pub fn none() -> Self {
        ArmedFaults {
            panics: BTreeSet::new(),
            exhausts: BTreeSet::new(),
            slows: BTreeSet::new(),
            slow_ms: 0,
        }
    }

    /// Called by the checker at the top of item `idx`'s work closure:
    /// sleeps if the item is slowed, then panics if it is marked to
    /// panic. Injected panics are deterministic by design, so the pool's
    /// retry panics again and the item surfaces as failed.
    pub fn on_item(&self, idx: usize) {
        if self.slows.contains(&idx) {
            std::thread::sleep(std::time::Duration::from_millis(self.slow_ms));
        }
        if self.panics.contains(&idx) {
            panic!("injected fault: worker panic on item #{idx}");
        }
    }

    /// Whether item `idx` should run under a deliberately tiny fuel
    /// budget.
    pub fn exhausts(&self, idx: usize) -> bool {
        self.exhausts.contains(&idx)
    }

    /// Whether item `idx` carries any fault (panic, exhaust, or slow).
    /// Fault-isolation harnesses use this to exclude sabotaged items
    /// from byte-identity comparison.
    pub fn is_faulted(&self, idx: usize) -> bool {
        self.panics.contains(&idx) || self.exhausts.contains(&idx) || self.slows.contains(&idx)
    }

    /// The indices armed to panic, in ascending order.
    pub fn panic_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.panics.iter().copied()
    }

    /// The indices armed to exhaust, in ascending order.
    pub fn exhaust_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.exhausts.iter().copied()
    }

    /// Total number of faulted items.
    pub fn fault_count(&self) -> usize {
        self.panics.len() + self.exhausts.len() + self.slows.len()
    }
}

/// A non-faulted item whose verdict changed between the clean and the
/// faulted run — an isolation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationMismatch {
    /// The item's index within its phase.
    pub index: usize,
    /// The clean run's verdict string.
    pub clean: String,
    /// The faulted run's verdict string.
    pub faulted: String,
}

/// Isolation comparison for one checker phase.
#[derive(Debug, Clone)]
pub struct PhaseIsolation {
    /// The phase ([`COMPLETENESS`], [`PAIRS`] or [`PROBES`]).
    pub phase: &'static str,
    /// Work items in the phase.
    pub items: usize,
    /// Indices the plan sabotaged (ascending).
    pub faulted: Vec<usize>,
    /// Non-faulted items whose verdicts differ between the runs.
    pub mismatches: Vec<IsolationMismatch>,
    /// Whether the two runs even reported the same number of items (they
    /// must: a lost item is the worst isolation failure of all).
    pub item_counts_agree: bool,
}

impl PhaseIsolation {
    /// Whether every non-faulted item in this phase was untouched.
    pub fn isolated(&self) -> bool {
        self.item_counts_agree && self.mismatches.is_empty()
    }
}

/// Outcome of a [`fault_isolation_check`] run.
#[derive(Debug, Clone)]
pub struct FaultIsolationReport {
    /// The plan that was injected.
    pub plan: FaultSpec,
    /// Worker count of both runs.
    pub jobs: usize,
    /// Per-phase comparisons.
    pub phases: Vec<PhaseIsolation>,
}

impl FaultIsolationReport {
    /// Whether every non-faulted item in every phase produced a verdict
    /// byte-identical to the fault-free run.
    pub fn isolated(&self) -> bool {
        self.phases.iter().all(PhaseIsolation::isolated)
    }

    /// Total number of sabotaged items across all phases.
    pub fn faults_injected(&self) -> usize {
        self.phases.iter().map(|p| p.faulted.len()).sum()
    }

    /// A printable account of the run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            let faulted = if p.faulted.is_empty() {
                "none faulted".to_owned()
            } else {
                format!(
                    "faulted item(s) [{}]",
                    p.faulted
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            out.push_str(&format!(
                "phase {}: {} item(s), {}, {} isolation mismatch(es)\n",
                p.phase,
                p.items,
                faulted,
                p.mismatches.len()
            ));
            if !p.item_counts_agree {
                out.push_str("  item counts differ between clean and faulted runs\n");
            }
            for m in &p.mismatches {
                out.push_str(&format!(
                    "  item #{}: clean `{}` vs faulted `{}`\n",
                    m.index, m.clean, m.faulted
                ));
            }
        }
        out.push_str(&format!(
            "non-faulted verdicts identical: {}\n",
            if self.isolated() { "yes" } else { "NO" }
        ));
        out
    }
}

/// Renders one operation's coverage verdict as a deterministic string
/// (the completeness analogue of the consistency per-item verdicts).
fn coverage_item(oc: &OpCoverage) -> String {
    format!("{}: {:?}", oc.op_name(), oc.coverage())
}

fn compare_phase(
    phase: &'static str,
    plan: &FaultSpec,
    clean: &[String],
    faulted: &[String],
) -> PhaseIsolation {
    let armed = plan.arm(phase, clean.len());
    let sabotaged: Vec<usize> = (0..clean.len()).filter(|&i| armed.is_faulted(i)).collect();
    let mut mismatches = Vec::new();
    for (index, (c, f)) in clean.iter().zip(faulted).enumerate() {
        if !armed.is_faulted(index) && c != f {
            mismatches.push(IsolationMismatch {
                index,
                clean: c.clone(),
                faulted: f.clone(),
            });
        }
    }
    PhaseIsolation {
        phase,
        items: clean.len(),
        faulted: sabotaged,
        mismatches,
        item_counts_agree: clean.len() == faulted.len(),
    }
}

/// Runs both checkers twice — clean, then under `plan` — and verifies
/// that every non-faulted work item's verdict is byte-identical across
/// the two runs. `config.faults` is ignored (the harness supplies its
/// own plans); `config.jobs` and `config.fuel` apply to both runs.
pub fn fault_isolation_check(
    spec: &Spec,
    probe: &ProbeConfig,
    plan: &FaultSpec,
    config: &CheckConfig,
) -> FaultIsolationReport {
    let clean_cfg = CheckConfig {
        faults: None,
        ..config.clone()
    };
    let fault_cfg = CheckConfig {
        faults: Some(plan.clone()),
        ..config.clone()
    };

    let comp_clean = check_completeness_with_config(spec, &clean_cfg);
    let comp_fault = check_completeness_with_config(spec, &fault_cfg);
    let cons_clean = check_consistency_with_config(spec, probe, &clean_cfg);
    let cons_fault = check_consistency_with_config(spec, probe, &fault_cfg);

    let comp_items: Vec<String> = comp_clean.coverage().iter().map(coverage_item).collect();
    let comp_items_f: Vec<String> = comp_fault.coverage().iter().map(coverage_item).collect();

    let phases = vec![
        compare_phase(COMPLETENESS, plan, &comp_items, &comp_items_f),
        compare_phase(PAIRS, plan, cons_clean.pair_verdicts(), cons_fault.pair_verdicts()),
        compare_phase(PROBES, plan, cons_clean.probe_verdicts(), cons_fault.probe_verdicts()),
    ];

    FaultIsolationReport {
        plan: plan.clone(),
        jobs: config.jobs,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::{SpecBuilder, Term};

    #[test]
    fn arming_is_deterministic_and_phase_dependent() {
        let spec = FaultSpec {
            seed: 7,
            panics: 2,
            exhausts: 1,
            slows: 1,
            slow_ms: 1,
        };
        let a = spec.arm(PROBES, 50);
        let b = spec.arm(PROBES, 50);
        assert_eq!(a, b, "same phase and size arm identically");
        assert_eq!(a.fault_count(), 4);
        // Kinds are disjoint.
        for idx in a.panic_indices() {
            assert!(!a.exhausts(idx));
        }
    }

    #[test]
    fn arming_caps_at_the_item_count() {
        let spec = FaultSpec {
            seed: 1,
            panics: 10,
            exhausts: 10,
            slows: 10,
            slow_ms: 1,
        };
        let armed = spec.arm(PAIRS, 5);
        assert_eq!(armed.fault_count(), 5, "cannot fault more items than exist");
        let empty = spec.arm(PAIRS, 0);
        assert_eq!(empty.fault_count(), 0);
    }

    #[test]
    fn on_item_panics_exactly_on_armed_indices() {
        let spec = FaultSpec {
            seed: 3,
            panics: 1,
            ..FaultSpec::default()
        };
        let armed = spec.arm(COMPLETENESS, 10);
        let target: Vec<usize> = armed.panic_indices().collect();
        assert_eq!(target.len(), 1);
        for idx in 0..10 {
            let hit = std::panic::catch_unwind(|| armed.on_item(idx)).is_err();
            assert_eq!(hit, idx == target[0], "index {idx}");
        }
    }

    #[test]
    fn plan_parser_round_trips() {
        let plan = FaultSpec::parse("seed=7,panic=1,exhaust=2,slow=3,slow-ms=5").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panics, 1);
        assert_eq!(plan.exhausts, 2);
        assert_eq!(plan.slows, 3);
        assert_eq!(plan.slow_ms, 5);
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        assert!(FaultSpec::parse("panic=x").is_err());
        assert!(FaultSpec::parse("frobnicate=1").is_err());
        assert!(FaultSpec::parse("panic").is_err());
    }

    #[test]
    fn plan_parser_rejects_duplicate_keys() {
        // A literal repeat: the second assignment must not silently win.
        let err = FaultSpec::parse("seed=1,seed=2").unwrap_err();
        assert!(err.contains("`seed`"), "unhelpful error: {err}");
        assert!(err.contains("more than once"), "unhelpful error: {err}");

        // An alias pair names the same knob, so it is the same conflict
        // even though the spellings differ.
        let err = FaultSpec::parse("panic=1,panics=2").unwrap_err();
        assert!(err.contains("`panics`"), "unhelpful error: {err}");
        assert!(err.contains("`panic`"), "unhelpful error: {err}");

        for dup in [
            "exhaust=1,exhausts=1",
            "slows=1,slow=1",
            "slow-ms=1,slow-ms=2",
            "seed=7,panic=1,exhaust=1,panic=1",
        ] {
            assert!(FaultSpec::parse(dup).is_err(), "accepted `{dup}`");
        }

        // Distinct keys remain fine in any order.
        let plan = FaultSpec::parse("slows=2,panics=1,seed=9").unwrap();
        assert_eq!((plan.seed, plan.panics, plan.slows), (9, 1, 2));
    }

    #[test]
    fn armed_indices_are_pinned() {
        // The indices of the README's `--faults seed=7,panic=1` example.
        // A change here silently re-targets every recorded fault run.
        let spec = FaultSpec {
            seed: 7,
            panics: 1,
            ..FaultSpec::default()
        };
        let completeness: Vec<usize> = spec.arm(COMPLETENESS, 3).panic_indices().collect();
        assert_eq!(completeness, [0]);
        let probes: Vec<usize> = spec.arm(PROBES, 200).panic_indices().collect();
        assert_eq!(probes, [36]);
    }

    #[test]
    fn inactive_plan_and_none_are_inert() {
        assert!(!FaultSpec::default().is_active());
        let none = ArmedFaults::none();
        for idx in 0..100 {
            none.on_item(idx);
            assert!(!none.is_faulted(idx));
        }
    }

    fn queue_like_spec() -> Spec {
        // Enough derived ops and axioms to give every phase real items.
        let mut b = SpecBuilder::new("Nat");
        let s = b.sort("Nat");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let pred = b.op("PRED", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let n = Term::Var(b.var("n", s));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("p1", b.app(pred, [b.app(zero, [])]), Term::Error(s));
        b.axiom("p2", b.app(pred, [b.app(succ, [n.clone()])]), n.clone());
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [n])]), ff);
        b.build().unwrap()
    }

    #[test]
    fn injected_faults_are_isolated_at_any_job_count() {
        let spec = queue_like_spec();
        let plan = FaultSpec::parse("seed=3,panic=1,exhaust=1,slow=1,slow-ms=1").unwrap();
        for jobs in [1, 4] {
            let report = fault_isolation_check(
                &spec,
                &ProbeConfig::default(),
                &plan,
                &CheckConfig::jobs(jobs),
            );
            assert!(report.isolated(), "jobs {jobs}:\n{}", report.render());
            assert!(report.faults_injected() > 0);
            assert!(report.render().contains("non-faulted verdicts identical: yes"));
        }
    }

    #[test]
    fn inert_plan_reports_no_faults() {
        let spec = queue_like_spec();
        let report = fault_isolation_check(
            &spec,
            &ProbeConfig::default(),
            &FaultSpec::default(),
            &CheckConfig::jobs(2),
        );
        assert!(report.isolated());
        assert_eq!(report.faults_injected(), 0);
    }
}
