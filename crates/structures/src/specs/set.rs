//! Finite sets — a data structure the paper does not develop, and the
//! first type here whose constructors are not free.

use adt_core::Spec;

use crate::sources::shipped;

/// The Set specification, from `specs/set.adt`.
pub fn set_spec() -> Spec {
    shipped("set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{check_completeness, check_consistency};
    use adt_core::Term;
    use adt_rewrite::Rewriter;

    fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn set_spec_checks() {
        let spec = set_spec();
        let completeness = check_completeness(&spec);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        assert!(check_consistency(&spec).is_consistent());
    }

    #[test]
    fn membership_and_deletion_compute() {
        let spec = set_spec();
        let rw = Rewriter::new(&spec);
        let e1 = apply(&spec, "E1", vec![]);
        let e2 = apply(&spec, "E2", vec![]);
        // {E1, E2, E1} (duplicate insert)
        let s = apply(
            &spec,
            "INSERT",
            vec![
                apply(
                    &spec,
                    "INSERT",
                    vec![
                        apply(
                            &spec,
                            "INSERT",
                            vec![apply(&spec, "EMPTYSET", vec![]), e1.clone()],
                        ),
                        e2.clone(),
                    ],
                ),
                e1.clone(),
            ],
        );
        let member = |s: &Term, e: &Term| {
            rw.normalize(&apply(&spec, "MEMBER?", vec![s.clone(), e.clone()]))
                .unwrap()
        };
        assert_eq!(member(&s, &e1), spec.sig().tt());
        assert_eq!(member(&s, &e2), spec.sig().tt());
        // Deleting E1 removes BOTH occurrences.
        let without = rw
            .normalize(&apply(&spec, "DELETE", vec![s, e1.clone()]))
            .unwrap();
        assert_eq!(member(&without, &e1), spec.sig().ff());
        assert_eq!(member(&without, &e2), spec.sig().tt());
    }

    #[test]
    fn delete_on_empty_is_empty_not_error() {
        // Unlike Queue/Stack, deletion from the empty set is benign.
        let spec = set_spec();
        let rw = Rewriter::new(&spec);
        let e1 = apply(&spec, "E1", vec![]);
        let empty = apply(&spec, "EMPTYSET", vec![]);
        let nf = rw
            .normalize(&apply(&spec, "DELETE", vec![empty.clone(), e1]))
            .unwrap();
        assert_eq!(nf, empty);
    }
}
