//! The Stack of §4 (axioms 10–16).

use adt_core::Spec;

use crate::sources::shipped;

/// The Stack specification of §4, from `specs/stack.adt`, with the
/// element parameter sort `Elem` instantiated by two constants.
pub fn stack_spec() -> Spec {
    shipped("stack")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{check_completeness, check_consistency};
    use adt_core::Term;
    use adt_rewrite::Rewriter;

    #[test]
    fn stack_spec_checks() {
        let spec = stack_spec();
        let completeness = check_completeness(&spec);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        let consistency = check_consistency(&spec);
        assert!(consistency.is_consistent(), "{}", consistency.summary());
    }

    #[test]
    fn lifo_order_is_derivable() {
        let spec = stack_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let e1 = sig.apply("E1", vec![]).unwrap();
        let e2 = sig.apply("E2", vec![]).unwrap();
        let s = sig
            .apply(
                "PUSH",
                vec![
                    sig.apply(
                        "PUSH",
                        vec![sig.apply("NEWSTACK", vec![]).unwrap(), e1.clone()],
                    )
                    .unwrap(),
                    e2.clone(),
                ],
            )
            .unwrap();
        let top = rw
            .normalize(&sig.apply("TOP", vec![s.clone()]).unwrap())
            .unwrap();
        assert_eq!(top, e2);
        let popped = rw.normalize(&sig.apply("POP", vec![s]).unwrap()).unwrap();
        let top2 = rw
            .normalize(&sig.apply("TOP", vec![popped]).unwrap())
            .unwrap();
        assert_eq!(top2, e1);
    }

    #[test]
    fn replace_swaps_the_top_and_errors_on_empty() {
        let spec = stack_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let stack = sig.find_sort("Stack").unwrap();
        let e1 = sig.apply("E1", vec![]).unwrap();
        let e2 = sig.apply("E2", vec![]).unwrap();
        let new = sig.apply("NEWSTACK", vec![]).unwrap();
        // REPLACE(PUSH(NEWSTACK, E1), E2) = PUSH(NEWSTACK, E2).
        let one = sig.apply("PUSH", vec![new.clone(), e1]).unwrap();
        let replaced = rw
            .normalize(&sig.apply("REPLACE", vec![one, e2.clone()]).unwrap())
            .unwrap();
        let expected = sig.apply("PUSH", vec![new.clone(), e2.clone()]).unwrap();
        assert_eq!(replaced, expected);
        // REPLACE(NEWSTACK, E2) = error.
        let on_empty = rw
            .normalize(&sig.apply("REPLACE", vec![new, e2]).unwrap())
            .unwrap();
        assert_eq!(on_empty, Term::Error(stack));
    }

    #[test]
    fn boundary_conditions_error() {
        let spec = stack_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let stack = sig.find_sort("Stack").unwrap();
        let elem = sig.find_sort("Elem").unwrap();
        let new = sig.apply("NEWSTACK", vec![]).unwrap();
        assert_eq!(
            rw.normalize(&sig.apply("POP", vec![new.clone()]).unwrap())
                .unwrap(),
            Term::Error(stack)
        );
        assert_eq!(
            rw.normalize(&sig.apply("TOP", vec![new]).unwrap()).unwrap(),
            Term::Error(elem)
        );
    }
}
