//! The Symboltable of §4 (axioms 1–9).

use adt_core::Spec;

use crate::sources::shipped;

/// The Symboltable specification of §4, from `specs/symboltable.adt`.
pub fn symboltable_spec() -> Spec {
    shipped("symboltable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_check::{check_completeness, check_consistency};
    use adt_core::Term;
    use adt_rewrite::Rewriter;

    #[test]
    fn symboltable_spec_checks() {
        let spec = symboltable_spec();
        let completeness = check_completeness(&spec);
        assert!(
            completeness.is_sufficiently_complete(),
            "{}",
            completeness.prompts()
        );
        let consistency = check_consistency(&spec);
        assert!(consistency.is_consistent(), "{}", consistency.summary());
    }

    fn sig_apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn issame_is_the_diagonal() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        for (i, a) in crate::specs::SAMPLE_IDENTIFIERS.iter().enumerate() {
            for (j, b) in crate::specs::SAMPLE_IDENTIFIERS.iter().enumerate() {
                let same = sig_apply(
                    &spec,
                    "ISSAME?",
                    vec![sig_apply(&spec, a, vec![]), sig_apply(&spec, b, vec![])],
                );
                let expected = if i == j {
                    spec.sig().tt()
                } else {
                    spec.sig().ff()
                };
                assert_eq!(rw.normalize(&same).unwrap(), expected, "ISSAME?({a}, {b})");
            }
        }
    }

    #[test]
    fn inner_scopes_shadow_outer_ones() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let x = sig_apply(&spec, "ID_X", vec![]);
        let a1 = sig_apply(&spec, "ATTR_1", vec![]);
        let a2 = sig_apply(&spec, "ATTR_2", vec![]);
        // INIT; add x:a1; enter block; add x:a2 — retrieve sees a2.
        let t = sig_apply(
            &spec,
            "ADD",
            vec![
                sig_apply(
                    &spec,
                    "ENTERBLOCK",
                    vec![sig_apply(
                        &spec,
                        "ADD",
                        vec![sig_apply(&spec, "INIT", vec![]), x.clone(), a1.clone()],
                    )],
                ),
                x.clone(),
                a2.clone(),
            ],
        );
        let got = rw
            .normalize(&sig_apply(&spec, "RETRIEVE", vec![t.clone(), x.clone()]))
            .unwrap();
        assert_eq!(got, a2);
        // After LEAVEBLOCK, the outer binding is visible again.
        let left = sig_apply(&spec, "LEAVEBLOCK", vec![t]);
        let got = rw
            .normalize(&sig_apply(&spec, "RETRIEVE", vec![left, x]))
            .unwrap();
        assert_eq!(got, a1);
    }

    #[test]
    fn is_inblock_sees_only_the_current_scope() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let x = sig_apply(&spec, "ID_X", vec![]);
        let a1 = sig_apply(&spec, "ATTR_1", vec![]);
        // x declared in the outer block, then a fresh block entered.
        let t = sig_apply(
            &spec,
            "ENTERBLOCK",
            vec![sig_apply(
                &spec,
                "ADD",
                vec![sig_apply(&spec, "INIT", vec![]), x.clone(), a1],
            )],
        );
        let inblock = rw
            .normalize(&sig_apply(&spec, "IS_INBLOCK?", vec![t.clone(), x.clone()]))
            .unwrap();
        assert_eq!(inblock, spec.sig().ff());
        // But RETRIEVE still finds it (most local *occurrence*).
        let retrieved = rw
            .normalize(&sig_apply(&spec, "RETRIEVE", vec![t, x]))
            .unwrap();
        assert_eq!(retrieved, sig_apply(&spec, "ATTR_1", vec![]));
    }

    #[test]
    fn boundary_conditions_error() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let st = spec.sig().find_sort("Symboltable").unwrap();
        let attrs = spec.sig().find_sort("AttributeList").unwrap();
        let init = sig_apply(&spec, "INIT", vec![]);
        let x = sig_apply(&spec, "ID_X", vec![]);
        assert_eq!(
            rw.normalize(&sig_apply(&spec, "LEAVEBLOCK", vec![init.clone()]))
                .unwrap(),
            Term::Error(st)
        );
        assert_eq!(
            rw.normalize(&sig_apply(&spec, "RETRIEVE", vec![init, x]))
                .unwrap(),
            Term::Error(attrs)
        );
    }

    #[test]
    fn leaveblock_discards_adds_in_the_current_scope() {
        let spec = symboltable_spec();
        let rw = Rewriter::new(&spec);
        let x = sig_apply(&spec, "ID_X", vec![]);
        let a1 = sig_apply(&spec, "ATTR_1", vec![]);
        // LEAVEBLOCK(ADD(ENTERBLOCK(INIT), x, a1)) = INIT (axiom 3 then 2).
        let t = sig_apply(
            &spec,
            "LEAVEBLOCK",
            vec![sig_apply(
                &spec,
                "ADD",
                vec![
                    sig_apply(&spec, "ENTERBLOCK", vec![sig_apply(&spec, "INIT", vec![])]),
                    x,
                    a1,
                ],
            )],
        );
        let nf = rw.normalize(&t).unwrap();
        assert_eq!(nf, sig_apply(&spec, "INIT", vec![]));
    }
}
