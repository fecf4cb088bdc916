//! The Knowlist extension (§4, end): adapting the Symboltable when the
//! language acquires "knows lists".

use adt_core::Spec;

use crate::sources::shipped;

/// The standalone Knowlist specification, from `specs/knowlist.adt`.
pub fn knowlist_spec() -> Spec {
    shipped("knowlist")
}

/// The Symboltable-with-knows-lists specification, from
/// `specs/symboltable_kl.adt`: [`super::symboltable_spec`] with an
/// `ENTERBLOCK` that takes a `Knowlist` and the three ENTERBLOCK axioms
/// changed; [`super::axiom_diff`] shows that mechanically.
pub fn symboltable_kl_spec() -> Spec {
    shipped("symboltable_kl")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{check_completeness, check_consistency};
    use adt_core::Term;
    use adt_rewrite::Rewriter;

    #[test]
    fn knowlist_spec_checks() {
        let spec = knowlist_spec();
        let completeness = check_completeness(&spec);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        assert!(check_consistency(&spec).is_consistent());
    }

    #[test]
    fn symboltable_kl_spec_checks() {
        let spec = symboltable_kl_spec();
        let completeness = check_completeness(&spec);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        assert!(check_consistency(&spec).is_consistent());
    }

    fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn knows_list_membership() {
        let spec = knowlist_spec();
        let rw = Rewriter::new(&spec);
        let x = apply(&spec, "ID_X", vec![]);
        let y = apply(&spec, "ID_Y", vec![]);
        let z = apply(&spec, "ID_Z", vec![]);
        let klist = apply(
            &spec,
            "APPEND",
            vec![
                apply(
                    &spec,
                    "APPEND",
                    vec![apply(&spec, "CREATE", vec![]), x.clone()],
                ),
                y.clone(),
            ],
        );
        let is_in = |id: &Term| {
            rw.normalize(&apply(&spec, "IS_IN?", vec![klist.clone(), id.clone()]))
                .unwrap()
        };
        assert_eq!(is_in(&x), spec.sig().tt());
        assert_eq!(is_in(&y), spec.sig().tt());
        assert_eq!(is_in(&z), spec.sig().ff());
    }

    #[test]
    fn globals_are_visible_only_through_the_knows_list() {
        let spec = symboltable_kl_spec();
        let rw = Rewriter::new(&spec);
        let attrs_sort = spec.sig().find_sort("AttributeList").unwrap();
        let x = apply(&spec, "ID_X", vec![]);
        let y = apply(&spec, "ID_Y", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        let a2 = apply(&spec, "ATTR_2", vec![]);
        // Outer block declares x and y; inner block knows only x.
        let outer = apply(
            &spec,
            "ADD",
            vec![
                apply(
                    &spec,
                    "ADD",
                    vec![apply(&spec, "INIT", vec![]), x.clone(), a1.clone()],
                ),
                y.clone(),
                a2,
            ],
        );
        let knows_x = apply(
            &spec,
            "APPEND",
            vec![apply(&spec, "CREATE", vec![]), x.clone()],
        );
        let inner = apply(&spec, "ENTERBLOCK", vec![outer, knows_x]);
        // x is retrievable through the knows list…
        let got_x = rw
            .normalize(&apply(&spec, "RETRIEVE", vec![inner.clone(), x]))
            .unwrap();
        assert_eq!(got_x, a1);
        // …but y is not: the knows list hides it.
        let got_y = rw
            .normalize(&apply(&spec, "RETRIEVE", vec![inner, y]))
            .unwrap();
        assert_eq!(got_y, Term::Error(attrs_sort));
    }
}
