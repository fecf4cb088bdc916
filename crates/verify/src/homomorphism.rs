//! Value-level abstraction-function checking.
//!
//! A representation of a type comes with "a function Φ that maps terms in
//! the model domain onto their representatives in the abstract domain"
//! (§4). For an implementation to be correct, evaluation and abstraction
//! must commute: for every generated term `t`,
//!
//! ```text
//! Φ(eval_impl(t))  =  normal-form(t)
//! ```
//!
//! where the right side is computed by the specification's rewrite system.
//! This module checks that equation over exhaustively generated ground
//! terms — the bounded, value-level counterpart of the term-level proofs
//! in [`crate::rep`]. Since Φ⁻¹ may be one-to-many (the paper's
//! ring-buffer example), the comparison is always made in the *abstract*
//! domain.

use adt_core::{display, Spec, Term};
use adt_rewrite::Rewriter;

use crate::eval::eval_ground;
use crate::gen::enumerate_terms;
use crate::model::Model;
use crate::value::MValue;

/// Configuration for [`check_representation`].
pub struct RepCheckConfig<'f> {
    /// Depth bound for constructor arguments of generated terms.
    pub max_arg_depth: usize,
    /// Cap on generated terms per operation.
    pub cap_per_op: usize,
    /// Rewriting fuel.
    pub fuel: u64,
    /// Environment assumption: only terms satisfying the predicate are
    /// checked (conditional correctness, e.g. Assumption 1). `None`
    /// checks everything.
    pub assumption: Option<&'f dyn Fn(&Term) -> bool>,
}

impl Default for RepCheckConfig<'_> {
    fn default() -> Self {
        RepCheckConfig {
            max_arg_depth: 4,
            cap_per_op: 400,
            fuel: 1_000_000,
            assumption: None,
        }
    }
}

impl std::fmt::Debug for RepCheckConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepCheckConfig")
            .field("max_arg_depth", &self.max_arg_depth)
            .field("cap_per_op", &self.cap_per_op)
            .field("fuel", &self.fuel)
            .field("assumption", &self.assumption.is_some())
            .finish()
    }
}

/// A term where evaluation and abstraction disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepMismatch {
    /// The offending term, rendered.
    pub term: String,
    /// The specification's normal form, rendered.
    pub spec_nf: String,
    /// What `Φ(eval_impl(term))` produced, rendered (or a description of
    /// the value for non-abstract sorts).
    pub via_impl: String,
}

/// The result of a representation check.
#[derive(Debug, Clone)]
pub struct RepCheckReport {
    /// Disagreements found (empty on success).
    pub mismatches: Vec<RepMismatch>,
    /// Terms compared. Every generated term is counted here or in
    /// `terms_skipped`, never in both.
    pub terms_checked: usize,
    /// Terms skipped: filtered out by the assumption, out of fuel on
    /// either side, or whose specification normal form was not a
    /// canonical value (an incomplete spec leaves observers stuck).
    pub terms_skipped: usize,
}

impl RepCheckReport {
    /// Whether the implementation commutes with abstraction on every
    /// checked term.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "representation check: {} term(s) checked, {} skipped, {} mismatch(es)\n",
            self.terms_checked,
            self.terms_skipped,
            self.mismatches.len()
        );
        for m in self.mismatches.iter().take(10) {
            out.push_str(&format!(
                "  {}: spec says {}, implementation gives {}\n",
                m.term, m.spec_nf, m.via_impl
            ));
        }
        out
    }
}

/// Checks that `Φ ∘ eval_impl = normal-form` over generated ground terms.
///
/// For terms of a sort of interest, `phi` abstracts the implementation
/// value to a term, which is then normalized and compared with the
/// specification's normal form. For terms of other sorts (observers), the
/// specification's normal form is evaluated back in the model and compared
/// with [`Model::values_equal`].
pub fn check_representation(
    model: &dyn Model,
    phi: &dyn Fn(&MValue) -> Term,
    cfg: &RepCheckConfig<'_>,
) -> RepCheckReport {
    let rw = Rewriter::new(model.spec()).with_fuel(cfg.fuel);
    let spec: &Spec = model.spec();
    let sig = spec.sig();

    let mut mismatches = Vec::new();
    let mut checked = 0;
    let mut skipped = 0;

    for term in enumerate_terms(sig, cfg.max_arg_depth, cfg.cap_per_op) {
        if let Some(assume) = cfg.assumption {
            if !assume(&term) {
                skipped += 1;
                continue;
            }
        }
        let sort = term.sort(sig).expect("generated terms are well-sorted");
        let Ok(spec_nf) = rw.normalize(&term) else {
            skipped += 1;
            continue;
        };
        if !spec_nf.is_constructor_term(sig) {
            // The specification does not decide this term (insufficient
            // completeness); nothing to compare against.
            skipped += 1;
            continue;
        }
        let impl_value = eval_ground(model, &term);

        if spec.is_toi(sort) {
            let abstracted = if impl_value.is_error() {
                Term::Error(sort)
            } else {
                phi(&impl_value)
            };
            let Ok(abstracted_nf) = rw.normalize(&abstracted) else {
                skipped += 1;
                continue;
            };
            checked += 1;
            if abstracted_nf != spec_nf {
                mismatches.push(RepMismatch {
                    term: display::term(sig, &term).to_string(),
                    spec_nf: display::term(sig, &spec_nf).to_string(),
                    via_impl: display::term(sig, &abstracted_nf).to_string(),
                });
            }
        } else {
            // Observer result: evaluate the canonical normal form in the
            // model and compare values.
            checked += 1;
            let expected = eval_ground(model, &spec_nf);
            if !model.values_equal(sort, &impl_value, &expected) {
                mismatches.push(RepMismatch {
                    term: display::term(sig, &term).to_string(),
                    spec_nf: display::term(sig, &spec_nf).to_string(),
                    via_impl: format!("{impl_value:?}"),
                });
            }
        }
    }

    RepCheckReport {
        mismatches,
        terms_checked: checked,
        terms_skipped: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use adt_core::SpecBuilder;

    /// Nat with DOUBLE and PRED, implemented over i64.
    fn nat_spec() -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let nat = b.sort("Nat");
        let zero = b.ctor("ZERO", [], nat);
        let succ = b.ctor("SUCC", [nat], nat);
        let double = b.op("DOUBLE", [nat], nat);
        let pred = b.op("PRED", [nat], nat);
        let is_zero = b.op("IS_ZERO?", [nat], b.bool_sort());
        let n = Term::Var(b.var("n", nat));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [n.clone()])]), ff);
        b.axiom("d1", b.app(double, [b.app(zero, [])]), b.app(zero, []));
        b.axiom(
            "d2",
            b.app(double, [b.app(succ, [n.clone()])]),
            b.app(succ, [b.app(succ, [b.app(double, [n.clone()])])]),
        );
        b.axiom("p1", b.app(pred, [b.app(zero, [])]), Term::Error(nat));
        b.axiom("p2", b.app(pred, [b.app(succ, [n.clone()])]), n);
        b.build().unwrap()
    }

    /// The correct implementation; a test breaks one operation by
    /// registering it again.
    fn int_model(spec: &Spec) -> ModelBuilder<'_> {
        ModelBuilder::new(spec)
            .op("ZERO", |_| MValue::Int(0))
            .op("SUCC", |a| MValue::Int(a[0].as_int().unwrap() + 1))
            .op("IS_ZERO?", |a| MValue::Bool(a[0].as_int() == Some(0)))
            .op("DOUBLE", |a| MValue::Int(a[0].as_int().unwrap() * 2))
            .op("PRED", |a| match a[0].as_int().unwrap() {
                0 => MValue::Error,
                n => MValue::Int(n - 1),
            })
    }

    fn broken_double(spec: &Spec) -> crate::TableModel<'_> {
        int_model(spec)
            .op("DOUBLE", |a| MValue::Int(a[0].as_int().unwrap() * 2 + 1))
            .build()
            .unwrap()
    }

    fn int_phi(spec: &Spec) -> impl Fn(&MValue) -> Term + '_ {
        move |v: &MValue| {
            let zero = spec.sig().find_op("ZERO").unwrap();
            let succ = spec.sig().find_op("SUCC").unwrap();
            let mut t = Term::constant(zero);
            for _ in 0..v.as_int().unwrap() {
                t = Term::App(succ, vec![t]);
            }
            t
        }
    }

    #[test]
    fn correct_implementation_commutes_with_phi() {
        let spec = nat_spec();
        let model = int_model(&spec).build().unwrap();
        let phi = int_phi(&spec);
        let report = check_representation(&model, &phi, &RepCheckConfig::default());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.terms_checked > 10);
    }

    #[test]
    fn broken_double_is_caught_with_the_term() {
        let spec = nat_spec();
        let model = broken_double(&spec);
        let phi = int_phi(&spec);
        let report = check_representation(&model, &phi, &RepCheckConfig::default());
        assert!(!report.passed());
        // Every mismatch is a DOUBLE term; observers still agree.
        assert!(
            report
                .mismatches
                .iter()
                .all(|m| m.term.starts_with("DOUBLE")),
            "{}",
            report.summary()
        );
        let first = &report.mismatches[0];
        assert_ne!(first.spec_nf, first.via_impl);
    }

    #[test]
    fn assumption_filters_terms() {
        let spec = nat_spec();
        let model = broken_double(&spec);
        let phi = int_phi(&spec);
        // Assume DOUBLE is never used: the broken op goes unnoticed —
        // conditional correctness.
        let double = spec.sig().find_op("DOUBLE").unwrap();
        let no_double = move |t: &Term| !matches!(t, Term::App(op, _) if *op == double);
        let cfg = RepCheckConfig {
            assumption: Some(&no_double),
            ..RepCheckConfig::default()
        };
        let report = check_representation(&model, &phi, &cfg);
        assert!(report.passed(), "{}", report.summary());
        assert!(report.terms_skipped > 0);
    }

    #[test]
    fn observer_disagreements_are_value_level() {
        let spec = nat_spec();
        // IS_ZERO? inverted.
        let model = int_model(&spec)
            .op("IS_ZERO?", |a| MValue::Bool(a[0].as_int() != Some(0)))
            .build()
            .unwrap();
        let phi = int_phi(&spec);
        let report = check_representation(&model, &phi, &RepCheckConfig::default());
        assert!(!report.passed());
        assert!(report
            .mismatches
            .iter()
            .any(|m| m.term.starts_with("IS_ZERO?")));
    }

    #[test]
    fn saturating_pred_is_caught_at_the_boundary() {
        let spec = nat_spec();
        // PRED(0) = 0 instead of error: the boundary the axioms pin down.
        let model = int_model(&spec)
            .op("PRED", |a| MValue::Int(a[0].as_int().unwrap().max(1) - 1))
            .build()
            .unwrap();
        let phi = int_phi(&spec);
        let report = check_representation(&model, &phi, &RepCheckConfig::default());
        let at_zero = RepMismatch {
            term: "PRED(ZERO)".to_owned(),
            spec_nf: "error".to_owned(),
            via_impl: "ZERO".to_owned(),
        };
        assert_eq!(report.mismatches, [at_zero], "{}", report.summary());
    }

    #[test]
    fn a_term_is_checked_or_skipped_never_both() {
        let spec = nat_spec();
        let model = int_model(&spec).build().unwrap();
        // Φ(v) = DOUBLE(DOUBLE(SUCCᵛ(ZERO))) needs more than six steps to
        // normalize once v > 1, so the Φ side of those terms runs dry. (It
        // is the wrong Φ, so the check fails; only the counts matter here.)
        let double = spec.sig().find_op("DOUBLE").unwrap();
        let base = int_phi(&spec);
        let phi = |v: &MValue| Term::App(double, vec![Term::App(double, vec![base(v)])]);
        let cfg = RepCheckConfig {
            fuel: 6,
            ..RepCheckConfig::default()
        };
        let report = check_representation(&model, &phi, &cfg);
        let generated = enumerate_terms(spec.sig(), cfg.max_arg_depth, cfg.cap_per_op);
        assert!(report.terms_skipped > 0, "{}", report.summary());
        assert_eq!(
            report.terms_checked + report.terms_skipped,
            generated.len(),
            "{}",
            report.summary()
        );
    }
}
