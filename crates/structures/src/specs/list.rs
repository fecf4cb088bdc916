//! Lists with append, length and reverse — the "development of data
//! structures" continued past the paper's own examples, and the natural
//! playground for generator induction.

use adt_core::Spec;

use crate::sources::shipped;

/// The List specification (with its `Nat` type), from `specs/list.adt`.
pub fn list_spec() -> Spec {
    shipped("list")
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
    fn list_spec_checks() {
        let spec = list_spec();
        let completeness = check_completeness(&spec);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        assert!(check_consistency(&spec).is_consistent());
    }

    #[test]
    fn append_length_reverse_compute() {
        let spec = list_spec();
        let rw = Rewriter::new(&spec);
        let e1 = apply(&spec, "E1", vec![]);
        let e2 = apply(&spec, "E2", vec![]);
        let nil = apply(&spec, "NIL", vec![]);
        // [E1, E2]
        let l12 = apply(
            &spec,
            "CONS",
            vec![
                e1.clone(),
                apply(&spec, "CONS", vec![e2.clone(), nil.clone()]),
            ],
        );
        // REVERSE([E1,E2]) = [E2,E1]
        let rev = rw
            .normalize(&apply(&spec, "REVERSE", vec![l12.clone()]))
            .unwrap();
        let l21 = apply(
            &spec,
            "CONS",
            vec![
                e2.clone(),
                apply(&spec, "CONS", vec![e1.clone(), nil.clone()]),
            ],
        );
        assert_eq!(rev, l21);
        // LENGTH(APPEND([E1,E2],[E2,E1])) = 4
        let appended = apply(&spec, "APPEND", vec![l12, l21]);
        let len = rw
            .normalize(&apply(&spec, "LENGTH", vec![appended]))
            .unwrap();
        let four = apply(
            &spec,
            "SUCC",
            vec![apply(
                &spec,
                "SUCC",
                vec![apply(
                    &spec,
                    "SUCC",
                    vec![apply(&spec, "SUCC", vec![apply(&spec, "ZERO", vec![])])],
                )],
            )],
        );
        assert_eq!(len, four);
    }

    #[test]
    fn boundary_conditions_error() {
        let spec = list_spec();
        let rw = Rewriter::new(&spec);
        let nil = apply(&spec, "NIL", vec![]);
        let elem = spec.sig().find_sort("Elem").unwrap();
        let list = spec.sig().find_sort("List").unwrap();
        assert_eq!(
            rw.normalize(&apply(&spec, "HEAD", vec![nil.clone()]))
                .unwrap(),
            Term::Error(elem)
        );
        assert_eq!(
            rw.normalize(&apply(&spec, "TAIL", vec![nil])).unwrap(),
            Term::Error(list)
        );
    }
}
