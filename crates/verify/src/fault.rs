//! Fault-isolation harness: proves the checking engine's robustness
//! claims by *injecting* faults and differencing the reports.
//!
//! The claim under test: a sabotaged work item — a panicking worker, an
//! exhausted budget, an artificially slow chunk — must not perturb the
//! verdict of any *other* item. The harness runs every checker twice over
//! the same specification, once clean and once under a [`FaultSpec`],
//! re-arms the plan to learn exactly which indices were sabotaged, and
//! compares the per-item verdict strings of every non-faulted index. Any
//! difference is an isolation failure in the engine itself.

use adt_check::fault::{COMPLETENESS, PAIRS, PROBES};
use adt_check::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, FaultSpec,
    OpCoverage, ProbeConfig,
};
use adt_core::Spec;

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
