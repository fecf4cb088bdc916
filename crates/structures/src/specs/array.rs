//! The Array of §4 (axioms 17–20).

use adt_core::Spec;

use crate::sources::shipped;

/// The Array specification of §4, from `specs/array.adt`: a map from
/// `Identifier` to `AttributeList` with last-write-wins lookup.
pub fn array_spec() -> Spec {
    shipped("array")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{check_completeness, check_consistency};
    use adt_core::Term;
    use adt_rewrite::Rewriter;

    #[test]
    fn array_spec_checks() {
        let spec = array_spec();
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
    fn last_write_wins() {
        let spec = array_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let x = sig.apply("ID_X", vec![]).unwrap();
        let y = sig.apply("ID_Y", vec![]).unwrap();
        let a1 = sig.apply("ATTR_1", vec![]).unwrap();
        let a2 = sig.apply("ATTR_2", vec![]).unwrap();
        let a3 = sig.apply("ATTR_3", vec![]).unwrap();
        // ASSIGN(ASSIGN(ASSIGN(EMPTY, x, a1), y, a2), x, a3)
        let arr = sig
            .apply(
                "ASSIGN",
                vec![
                    sig.apply(
                        "ASSIGN",
                        vec![
                            sig.apply(
                                "ASSIGN",
                                vec![sig.apply("EMPTY", vec![]).unwrap(), x.clone(), a1],
                            )
                            .unwrap(),
                            y.clone(),
                            a2.clone(),
                        ],
                    )
                    .unwrap(),
                    x.clone(),
                    a3.clone(),
                ],
            )
            .unwrap();
        let read_x = rw
            .normalize(&sig.apply("READ", vec![arr.clone(), x]).unwrap())
            .unwrap();
        assert_eq!(read_x, a3); // the later write shadows the earlier one
        let read_y = rw
            .normalize(&sig.apply("READ", vec![arr, y]).unwrap())
            .unwrap();
        assert_eq!(read_y, a2);
    }

    #[test]
    fn undefined_identifiers_read_as_error() {
        let spec = array_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let attrs = sig.find_sort("AttributeList").unwrap();
        let z = sig.apply("ID_Z", vec![]).unwrap();
        let empty = sig.apply("EMPTY", vec![]).unwrap();
        assert_eq!(
            rw.normalize(&sig.apply("READ", vec![empty.clone(), z.clone()]).unwrap())
                .unwrap(),
            Term::Error(attrs)
        );
        assert_eq!(
            rw.normalize(&sig.apply("IS_UNDEFINED?", vec![empty, z]).unwrap())
                .unwrap(),
            spec.sig().tt()
        );
    }

    #[test]
    fn is_undefined_tracks_assignment() {
        let spec = array_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let x = sig.apply("ID_X", vec![]).unwrap();
        let y = sig.apply("ID_Y", vec![]).unwrap();
        let a1 = sig.apply("ATTR_1", vec![]).unwrap();
        let arr = sig
            .apply(
                "ASSIGN",
                vec![sig.apply("EMPTY", vec![]).unwrap(), x.clone(), a1],
            )
            .unwrap();
        let undef_x = rw
            .normalize(&sig.apply("IS_UNDEFINED?", vec![arr.clone(), x]).unwrap())
            .unwrap();
        assert_eq!(undef_x, spec.sig().ff());
        let undef_y = rw
            .normalize(&sig.apply("IS_UNDEFINED?", vec![arr, y]).unwrap())
            .unwrap();
        assert_eq!(undef_y, spec.sig().tt());
    }
}
