//! `rep_verify`: the Musser-style representation proof (TB-5) plus the
//! bounded implementation checks (EX-9), as a user of `adt-verify` runs
//! them.
//!
//! One op is one verification task: translating the Symboltable
//! obligations, proving one of the 18 obligations under Assumption 1,
//! one bounded `check_axioms` run (stack, array, symtab, fifo and
//! two-stack models), or one Φ `check_representation` run (stack, fifo
//! and two-stack). The seed drives `AxiomCheckConfig.seed`: round `r`
//! draws its random instances from a seed derived from the run's seed
//! and `r`, so a run averages over many instance samples and the seed
//! moves the result little.

use adt_bench::workloads::Stream;
use adt_core::Spec;
use adt_structures::models::{
    array_model, fifo_model, fifo_phi, stack_model, stack_phi, symtab_model, two_stack_model,
    two_stack_phi,
};
use adt_structures::specs::{
    array_spec, queue_spec, stack_spec, symboltable_spec, symtab_rep_op_map, symtab_rep_spec,
};
use adt_verify::{
    check_axioms, check_representation, translate_obligations, verify_obligation, AxiomCheckConfig,
    AxiomCheckReport, ProofConfig, RepCheckConfig, RepCheckReport,
};

use crate::rec::Recorder;
use crate::Workload;

/// Obligations of the Symboltable representation: 9 paper axioms plus
/// 9 ground ISSAME? axioms.
const OBLIGATIONS: usize = 18;

pub struct RepVerify {
    seed: u64,
    symtab: Spec,
    rep: Spec,
    stack: Spec,
    array: Spec,
    queue: Spec,
    axioms: AxiomCheckConfig,
    proof: ProofConfig,
}

impl RepVerify {
    fn bounded(&self, rec: &mut Recorder, name: &str, run: impl FnOnce() -> AxiomCheckReport) {
        let Some(report) = rec.op(|rec| Ok(rec.span("verify.axioms", run))) else {
            return;
        };
        rec.expect(report.passed() && report.skipped_axioms.is_empty(), || {
            format!("{name}: {}", report.summary())
        });
        rec.count("verify.instances", report.instances_checked as u64);
        rec.count("rewrite.steps", report.stats.rewrite_steps);
    }

    fn phi(&self, rec: &mut Recorder, name: &str, run: impl FnOnce() -> RepCheckReport) {
        let Some(report) = rec.op(|rec| Ok(rec.span("verify.phi", run))) else {
            return;
        };
        rec.expect(report.passed() && report.terms_checked > 0, || {
            format!("{name} Φ: {}", report.summary())
        });
        rec.count("verify.phi_terms", report.terms_checked as u64);
    }
}

impl Workload for RepVerify {
    const NAME: &'static str = "rep_verify";
    const TAIL_Q: f64 = 0.99;

    fn setup(seed: u64, _jobs: usize) -> Self {
        RepVerify {
            seed,
            symtab: symboltable_spec(),
            rep: symtab_rep_spec(),
            stack: stack_spec(),
            array: array_spec(),
            queue: queue_spec(),
            // The EX-9 depth: thousands of instances per model. `seed`
            // is replaced in every round.
            axioms: AxiomCheckConfig {
                max_depth: 5,
                cap_per_sort: 80,
                max_instances_per_axiom: 6_000,
                random_instances: 200,
                random_depth: 10,
                seed: 0,
            },
            // Assumption 1: symbol-table stacks are PUSH-built.
            proof: ProofConfig::default().restrict("Stack", &["PUSH"]),
        }
    }

    fn round(&mut self, index: u64, rec: &mut Recorder) {
        let translated = rec.op(|rec| {
            rec.span("verify.translate", || {
                translate_obligations(&self.symtab, &self.rep, &symtab_rep_op_map(), Some("PHI"))
            })
            .map_err(|e| format!("translate: {e}"))
        });
        if let Some((ext, obligations)) = translated {
            rec.expect(obligations.len() == OBLIGATIONS, || {
                format!(
                    "translate: {} obligations, want {OBLIGATIONS}",
                    obligations.len()
                )
            });
            for ob in &obligations {
                let outcome = rec.op(|rec| {
                    rec.span("verify.prove", || verify_obligation(&ext, ob, &self.proof))
                        .map_err(|e| format!("axiom {}: {e}", ob.label))
                });
                if let Some(outcome) = outcome {
                    rec.expect(outcome.is_proved(), || {
                        format!("axiom {} not proved: {outcome:?}", ob.label)
                    });
                }
            }
        }

        let cfg = &AxiomCheckConfig {
            seed: Stream::new(self.seed ^ index.rotate_left(32)).next_u64(),
            ..self.axioms.clone()
        };
        self.bounded(rec, "stack", || {
            check_axioms(&stack_model(&self.stack), cfg)
        });
        self.bounded(rec, "array", || {
            check_axioms(&array_model(&self.array), cfg)
        });
        self.bounded(rec, "symtab", || {
            check_axioms(&symtab_model(&self.symtab), cfg)
        });
        self.bounded(rec, "fifo", || check_axioms(&fifo_model(&self.queue), cfg));
        self.bounded(rec, "two-stack", || {
            check_axioms(&two_stack_model(&self.queue), cfg)
        });

        let rep = RepCheckConfig::default();
        self.phi(rec, "stack", || {
            check_representation(&stack_model(&self.stack), &stack_phi(&self.stack), &rep)
        });
        self.phi(rec, "fifo", || {
            check_representation(&fifo_model(&self.queue), &fifo_phi(&self.queue), &rep)
        });
        self.phi(rec, "two-stack", || {
            check_representation(
                &two_stack_model(&self.queue),
                &two_stack_phi(&self.queue),
                &rep,
            )
        });
        rec.count("ops", (1 + OBLIGATIONS + 5 + 3) as u64);
    }
}
