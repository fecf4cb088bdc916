//! Evaluating terms inside an implementation model.

use std::collections::HashMap;

use adt_core::{Term, VarId};

use crate::model::Model;
use crate::value::MValue;

/// Evaluates a ground term in a model.
///
/// Conditionals are lazy in their branches (only the taken branch is
/// evaluated) and strict in the condition, mirroring the rewrite engine.
///
/// # Panics
///
/// Panics if the term contains a variable; use [`eval_with_env`] for open
/// terms.
pub fn eval_ground(model: &dyn Model, term: &Term) -> MValue {
    eval(model, term, &|_| None, &mut Vec::new())
}

/// Evaluates a term in a model, reading variable values from `env`.
///
/// # Panics
///
/// Panics if the term contains a variable absent from `env`, or if a
/// condition evaluates to a non-boolean, non-error value — both indicate
/// misuse by the caller, not a property of the implementation under test.
pub fn eval_with_env(model: &dyn Model, term: &Term, env: &HashMap<VarId, MValue>) -> MValue {
    eval(model, term, &|v| env.get(&v), &mut Vec::new())
}

/// The evaluator behind [`eval_ground`] and [`eval_with_env`]: variables
/// are read through `var`, and the arguments of each application are
/// pushed onto `stack` (left as it was on return), so a caller that
/// evaluates many terms allocates one argument stack for all of them.
///
/// # Panics
///
/// As [`eval_with_env`], with "absent from `env`" read as "`var` gives
/// `None`".
pub(crate) fn eval<'e>(
    model: &dyn Model,
    term: &Term,
    var: &impl Fn(VarId) -> Option<&'e MValue>,
    stack: &mut Vec<MValue>,
) -> MValue {
    match term {
        Term::Var(v) => var(*v)
            .cloned()
            .unwrap_or_else(|| panic!("unbound variable {v:?} during model evaluation")),
        Term::Error(_) => MValue::Error,
        Term::App(op, args) => {
            let base = stack.len();
            for a in args {
                let value = eval(model, a, var, stack);
                stack.push(value);
            }
            let value = model.apply(*op, &stack[base..]);
            stack.truncate(base);
            value
        }
        Term::Ite(ite) => match eval(model, &ite.cond, var, stack) {
            MValue::Bool(true) => eval(model, &ite.then_branch, var, stack),
            MValue::Bool(false) => eval(model, &ite.else_branch, var, stack),
            MValue::Error => MValue::Error,
            other => panic!("condition evaluated to non-boolean {other:?}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use adt_core::{Spec, SpecBuilder};

    fn nat_spec() -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let nat = b.sort("Nat");
        b.ctor("ZERO", [], nat);
        b.ctor("SUCC", [nat], nat);
        b.op("PRED", [nat], nat);
        b.op("IS_ZERO?", [nat], b.bool_sort());
        b.var("n", nat);
        b.build().unwrap()
    }

    fn model(spec: &Spec) -> crate::model::TableModel<'_> {
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

    #[test]
    fn ground_evaluation() {
        let spec = nat_spec();
        let m = model(&spec);
        // PRED(SUCC(SUCC(ZERO))) = 1
        let t = spec
            .sig()
            .apply(
                "PRED",
                vec![spec
                    .sig()
                    .apply(
                        "SUCC",
                        vec![spec
                            .sig()
                            .apply("SUCC", vec![spec.sig().apply("ZERO", vec![]).unwrap()])
                            .unwrap()],
                    )
                    .unwrap()],
            )
            .unwrap();
        assert_eq!(eval_ground(&m, &t).as_int(), Some(1));
    }

    #[test]
    fn conditionals_are_lazy_in_branches() {
        let spec = nat_spec();
        let m = model(&spec);
        let zero = spec.sig().apply("ZERO", vec![]).unwrap();
        // if IS_ZERO?(ZERO) then ZERO else PRED(ZERO): the error branch is
        // never evaluated.
        let t = Term::ite(
            spec.sig().apply("IS_ZERO?", vec![zero.clone()]).unwrap(),
            zero.clone(),
            spec.sig().apply("PRED", vec![zero]).unwrap(),
        );
        assert_eq!(eval_ground(&m, &t).as_int(), Some(0));
    }

    #[test]
    fn error_condition_poisons_conditional() {
        let spec = nat_spec();
        let m = model(&spec);
        let zero = spec.sig().apply("ZERO", vec![]).unwrap();
        let bad_cond = spec
            .sig()
            .apply(
                "IS_ZERO?",
                vec![spec.sig().apply("PRED", vec![zero.clone()]).unwrap()],
            )
            .unwrap();
        let t = Term::ite(bad_cond, zero.clone(), zero);
        assert!(eval_ground(&m, &t).is_error());
    }

    #[test]
    fn environment_supplies_variables() {
        let spec = nat_spec();
        let m = model(&spec);
        let n = spec.sig().find_var("n").unwrap();
        let t = spec.sig().apply("SUCC", vec![Term::Var(n)]).unwrap();
        let mut env = HashMap::new();
        env.insert(n, MValue::Int(41));
        assert_eq!(eval_with_env(&m, &t, &env).as_int(), Some(42));
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics() {
        let spec = nat_spec();
        let m = model(&spec);
        let n = spec.sig().find_var("n").unwrap();
        eval_ground(&m, &Term::Var(n));
    }

    #[test]
    fn error_terms_evaluate_to_error() {
        let spec = nat_spec();
        let m = model(&spec);
        let nat = spec.sig().find_sort("Nat").unwrap();
        assert!(eval_ground(&m, &Term::Error(nat)).is_error());
        // And propagate through applications.
        let t = spec.sig().apply("SUCC", vec![Term::Error(nat)]).unwrap();
        assert!(eval_ground(&m, &t).is_error());
    }
}
