//! Spec-driven differential testing: independent interpreters of the same
//! specification must agree.
//!
//! Two oracles, both derived mechanically from a [`Spec`] — no
//! hand-written expected values anywhere:
//!
//! * **checker vs. checker** — the parallel checking engine
//!   ([`check_completeness_with_config`] and
//!   [`check_consistency_with_config`] at `jobs > 1`) must produce
//!   *byte-identical* reports to the sequential one at any job count. Parallelism is an implementation detail; any divergence is a
//!   merge-order bug.
//! * **rewriter vs. model** — for bounded ground terms `t` over the
//!   signature (constructor arguments under every operation root), a
//!   correct implementation is *invariant under rewriting*:
//!   `eval(t) ≡ eval(nf(t))` in the model, where `nf` is the symbolic
//!   normal form under the axioms. This is the classic algebraic testing
//!   oracle (Gaudel): the axioms generate the test cases *and* the
//!   expected results, so a FIFO model passes against the Queue axioms
//!   while a LIFO model is caught on the first `FRONT(ADD(ADD(…)))`.

use adt_check::{
    check_completeness_with_config, check_consistency_with_config, CheckConfig, CompletenessReport,
    ConsistencyReport, ProbeConfig,
};
use adt_core::{display, Fuel, Spec, Supervisor};
use adt_rewrite::{RewriteError, Rewriter};

use crate::eval::eval_ground;
use crate::gen::enumerate_terms;
use crate::model::Model;

/// Bounds for the differential harness.
#[derive(Debug, Clone)]
pub struct DifferentialConfig {
    /// Depth bound for the constructor arguments of generated terms.
    pub max_arg_depth: usize,
    /// Cap on generated terms per operation root.
    pub cap_per_op: usize,
    /// Worker count compared against the sequential (1-job) run.
    pub jobs: usize,
    /// Probe configuration used by both consistency runs.
    pub probe: ProbeConfig,
    /// Resource budget applied to every checker run and to the
    /// rewriter-vs-model oracle's normalizations.
    pub fuel: Fuel,
    /// Cooperative supervision (deadline / cancellation) threaded through
    /// every checker run and oracle normalization. Inert by default.
    pub supervisor: Supervisor,
}

impl Default for DifferentialConfig {
    fn default() -> Self {
        DifferentialConfig {
            max_arg_depth: 3,
            cap_per_op: 50,
            jobs: 4,
            probe: ProbeConfig::default(),
            fuel: Fuel::default(),
            supervisor: Supervisor::none(),
        }
    }
}

/// One rewriter-vs-model disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleMismatch {
    /// The generated term, rendered.
    pub term: String,
    /// Its symbolic normal form, rendered.
    pub normal_form: String,
    /// What went wrong.
    pub detail: String,
}

/// Outcome of a differential run.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Name of the specification tested.
    pub spec: String,
    /// Ground terms the rewriter-vs-model oracle examined (0 when no
    /// model was supplied).
    pub terms_tested: usize,
    /// Human-readable descriptions of parallel-vs-sequential checker
    /// divergences (empty means the reports were identical).
    pub checker_diffs: Vec<String>,
    /// Rewriter-vs-model disagreements.
    pub mismatches: Vec<OracleMismatch>,
    /// Oracle terms the supervisor stopped before a verdict. Partial
    /// coverage, not a failure: [`DifferentialReport::passed`] ignores it.
    pub interrupted: usize,
}

impl DifferentialReport {
    /// Whether every oracle agreed.
    pub fn passed(&self) -> bool {
        self.checker_diffs.is_empty() && self.mismatches.is_empty()
    }

    /// A printable account of every disagreement.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.checker_diffs {
            out.push_str("checker divergence: ");
            out.push_str(d);
            out.push('\n');
        }
        for m in &self.mismatches {
            out.push_str(&format!(
                "model mismatch: eval({}) != eval({}) — {}\n",
                m.term, m.normal_form, m.detail
            ));
        }
        if self.interrupted > 0 {
            out.push_str(&format!(
                "interrupted: {} oracle term(s) stopped before a verdict\n",
                self.interrupted
            ));
        }
        out
    }
}

/// Checker-vs-checker differential: runs completeness and consistency
/// sequentially and with `cfg.jobs` workers and reports any divergence
/// between the two reports.
pub fn differential_spec_check(spec: &Spec, cfg: &DifferentialConfig) -> DifferentialReport {
    let seq_cfg = CheckConfig::jobs(1)
        .with_fuel(cfg.fuel)
        .with_supervisor(cfg.supervisor.clone());
    let par_cfg = CheckConfig::jobs(cfg.jobs)
        .with_fuel(cfg.fuel)
        .with_supervisor(cfg.supervisor.clone());
    let comp_seq = check_completeness_with_config(spec, &seq_cfg);
    let comp_par = check_completeness_with_config(spec, &par_cfg);
    let cons_seq = check_consistency_with_config(spec, &cfg.probe, &seq_cfg);
    let cons_par = check_consistency_with_config(spec, &cfg.probe, &par_cfg);
    DifferentialReport {
        spec: spec.name().to_owned(),
        terms_tested: 0,
        checker_diffs: diff_reports(&comp_seq, &comp_par, &cons_seq, &cons_par),
        mismatches: Vec::new(),
        interrupted: 0,
    }
}

fn diff_reports(
    comp_seq: &CompletenessReport,
    comp_par: &CompletenessReport,
    cons_seq: &ConsistencyReport,
    cons_par: &ConsistencyReport,
) -> Vec<String> {
    let mut diffs = Vec::new();
    if comp_seq.is_sufficiently_complete() != comp_par.is_sufficiently_complete() {
        diffs.push(format!(
            "completeness verdict: sequential {} vs parallel {}",
            comp_seq.is_sufficiently_complete(),
            comp_par.is_sufficiently_complete()
        ));
    }
    if comp_seq.coverage() != comp_par.coverage() {
        diffs.push("completeness coverage tables differ".to_owned());
    }
    if comp_seq.prompts() != comp_par.prompts() {
        diffs.push("completeness prompts differ".to_owned());
    }

    if cons_seq.is_consistent() != cons_par.is_consistent() {
        diffs.push(format!(
            "consistency verdict: sequential {} vs parallel {}",
            cons_seq.is_consistent(),
            cons_par.is_consistent()
        ));
    }
    if cons_seq.contradictions() != cons_par.contradictions() {
        diffs.push("contradiction lists differ".to_owned());
    }
    if cons_seq.pair_verdicts() != cons_par.pair_verdicts()
        || cons_seq.probe_verdicts() != cons_par.probe_verdicts()
    {
        diffs.push("per-item verdict vectors differ".to_owned());
    }
    if cons_seq.summary() != cons_par.summary() {
        diffs.push(format!(
            "consistency summaries differ:\n--- sequential\n{}\n--- parallel\n{}",
            cons_seq.summary(),
            cons_par.summary()
        ));
    }
    if (cons_seq.pairs_checked(), cons_seq.probes_run())
        != (cons_par.pairs_checked(), cons_par.probes_run())
    {
        diffs.push("pair/probe counts differ".to_owned());
    }
    diffs
}

/// Full differential run: the checker-vs-checker comparison of
/// [`differential_spec_check`] plus the rewriter-vs-model invariance
/// oracle over bounded ground terms.
pub fn differential_check(
    model: &(dyn Model + Sync),
    cfg: &DifferentialConfig,
) -> DifferentialReport {
    let spec = model.spec();
    let mut report = differential_spec_check(spec, cfg);

    let sig = spec.sig();
    let rw = Rewriter::new(spec)
        .with_budget(cfg.fuel)
        .supervised(cfg.supervisor.clone());
    let terms = enumerate_terms(sig, cfg.max_arg_depth, cfg.cap_per_op);
    for t in &terms {
        let rendered = display::term(sig, t).to_string();
        let nf = match rw.normalize(t) {
            Ok(nf) => nf,
            Err(RewriteError::Interrupted { .. }) => {
                report.interrupted += 1;
                continue;
            }
            Err(e) => {
                report.mismatches.push(OracleMismatch {
                    term: rendered,
                    normal_form: "<none>".to_owned(),
                    detail: format!("normalization failed: {e}"),
                });
                continue;
            }
        };
        let direct = eval_ground(model, t);
        let via_nf = eval_ground(model, &nf);
        let sort = t.sort(sig).expect("generated terms are well-sorted");
        if !model.values_equal(sort, &direct, &via_nf) {
            report.mismatches.push(OracleMismatch {
                term: rendered,
                normal_form: display::term(sig, &nf).to_string(),
                detail: format!("direct value {direct:?} vs normal-form value {via_nf:?}"),
            });
        }
    }
    report.terms_tested = terms.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // The harness itself is spec-driven, so the unit tests here only need
    // tiny fixtures; the cross-spec runs live in the workspace-level
    // `differential` and `parallel_equivalence` integration tests.
    use crate::model::ModelBuilder;
    use crate::value::MValue;
    use adt_core::{SpecBuilder, Term};

    fn nat_spec() -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let nat = b.sort("Nat");
        let zero = b.ctor("ZERO", [], nat);
        let succ = b.ctor("SUCC", [nat], nat);
        let pred = b.op("PRED", [nat], nat);
        let is_zero = b.op("IS_ZERO?", [nat], b.bool_sort());
        let n = Term::Var(b.var("n", nat));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("p1", b.app(pred, [b.app(zero, [])]), Term::Error(nat));
        b.axiom("p2", b.app(pred, [b.app(succ, [n.clone()])]), n.clone());
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [n])]), ff);
        b.build().unwrap()
    }

    fn correct_model(spec: &Spec) -> crate::TableModel<'_> {
        ModelBuilder::new(spec)
            .op("ZERO", |_| MValue::Int(0))
            .op("SUCC", |a| MValue::Int(a[0].as_int().unwrap() + 1))
            .op("PRED", |a| match a[0].as_int().unwrap() {
                0 => MValue::Error,
                n => MValue::Int(n - 1),
            })
            .op("IS_ZERO?", |a| MValue::Bool(a[0].as_int() == Some(0)))
            .build()
            .unwrap()
    }

    /// An off-by-one model: PRED(0) yields 0 instead of error — exactly
    /// the boundary condition the axioms pin down.
    fn saturating_model(spec: &Spec) -> crate::TableModel<'_> {
        ModelBuilder::new(spec)
            .op("ZERO", |_| MValue::Int(0))
            .op("SUCC", |a| MValue::Int(a[0].as_int().unwrap() + 1))
            .op("PRED", |a| MValue::Int(a[0].as_int().unwrap().max(1) - 1))
            .op("IS_ZERO?", |a| MValue::Bool(a[0].as_int() == Some(0)))
            .build()
            .unwrap()
    }

    #[test]
    fn correct_model_is_invariant_under_rewriting() {
        let spec = nat_spec();
        let model = correct_model(&spec);
        let report = differential_check(&model, &DifferentialConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert!(report.terms_tested > 0);
    }

    #[test]
    fn boundary_bug_is_caught_by_the_oracle() {
        let spec = nat_spec();
        let model = saturating_model(&spec);
        let report = differential_check(&model, &DifferentialConfig::default());
        assert!(!report.passed());
        // The offending term is PRED(ZERO) (or a term containing it).
        assert!(
            report.mismatches.iter().any(|m| m.term.contains("PRED")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn checkers_agree_on_the_fixture() {
        let spec = nat_spec();
        let report = differential_spec_check(&spec, &DifferentialConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.terms_tested, 0);
    }
}
