//! The representation level of §4: Symboltable as a Stack of Arrays.
//!
//! One combined specification, `specs/symboltable_rep.adt`, holds
//! everything the paper's proof needs: the concrete types Stack (of
//! Arrays) and Array, the primed operations that implement the abstract
//! ones as "code" over them, and the abstract sort `Symboltable` as the
//! range of the abstraction function Φ (`PHI`).

use adt_core::Spec;
use adt_verify::OpMap;

use crate::sources::shipped;

/// The operation/sort map from the abstract Symboltable specification
/// ([`super::symboltable_spec`]) into [`symtab_rep_spec`].
pub fn symtab_rep_op_map() -> OpMap {
    OpMap::new()
        .sort("Symboltable", "Stack")
        .op("INIT", "INIT'")
        .op("ENTERBLOCK", "ENTERBLOCK'")
        .op("LEAVEBLOCK", "LEAVEBLOCK'")
        .op("ADD", "ADD'")
        .op("IS_INBLOCK?", "IS_INBLOCK'?")
        .op("RETRIEVE", "RETRIEVE'")
}

/// The combined representation-level specification, from
/// `specs/symboltable_rep.adt`. Its name is that of its first type,
/// `Stack`.
pub fn symtab_rep_spec() -> Spec {
    shipped("symboltable_rep")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::Term;
    use adt_rewrite::Rewriter;

    fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(op, args).unwrap()
    }

    #[test]
    fn the_primed_code_implements_a_symbol_table() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let x = apply(&spec, "ID_X", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        let a2 = apply(&spec, "ATTR_2", vec![]);
        // INIT'; ADD'(x, a1); ENTERBLOCK'; ADD'(x, a2).
        let t = apply(
            &spec,
            "ADD'",
            vec![
                apply(
                    &spec,
                    "ENTERBLOCK'",
                    vec![apply(
                        &spec,
                        "ADD'",
                        vec![apply(&spec, "INIT'", vec![]), x.clone(), a1.clone()],
                    )],
                ),
                x.clone(),
                a2.clone(),
            ],
        );
        let got = rw
            .normalize(&apply(&spec, "RETRIEVE'", vec![t.clone(), x.clone()]))
            .unwrap();
        assert_eq!(got, a2);
        // Leave the block: the outer binding reappears.
        let left = apply(&spec, "LEAVEBLOCK'", vec![t.clone()]);
        let got = rw
            .normalize(&apply(&spec, "RETRIEVE'", vec![left, x.clone()]))
            .unwrap();
        assert_eq!(got, a1);
        // IS_INBLOCK'? only sees the innermost array.
        let inblock = rw
            .normalize(&apply(&spec, "IS_INBLOCK'?", vec![t, x]))
            .unwrap();
        assert_eq!(inblock, spec.sig().tt());
    }

    #[test]
    fn phi_abstracts_concrete_stacks_to_symboltable_terms() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let x = apply(&spec, "ID_X", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        // Φ(ADD'(ENTERBLOCK'(INIT'), x, a1))
        //   = ADD(ENTERBLOCK(INIT), x, a1).
        let conc = apply(
            &spec,
            "ADD'",
            vec![
                apply(&spec, "ENTERBLOCK'", vec![apply(&spec, "INIT'", vec![])]),
                x.clone(),
                a1.clone(),
            ],
        );
        let abstracted = rw.normalize(&apply(&spec, "PHI", vec![conc])).unwrap();
        let expected = apply(
            &spec,
            "ADD",
            vec![
                apply(&spec, "ENTERBLOCK", vec![apply(&spec, "INIT", vec![])]),
                x,
                a1,
            ],
        );
        assert_eq!(abstracted, expected);
    }

    #[test]
    fn phi_maps_the_empty_stack_to_error() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let st = spec.sig().find_sort("Symboltable").unwrap();
        let nf = rw
            .normalize(&apply(&spec, "PHI", vec![apply(&spec, "NEWSTACK", vec![])]))
            .unwrap();
        assert_eq!(nf, Term::Error(st));
    }

    #[test]
    fn adding_to_the_empty_stack_is_error_without_assumption_1() {
        let spec = symtab_rep_spec();
        let rw = Rewriter::new(&spec);
        let stack = spec.sig().find_sort("Stack").unwrap();
        let x = apply(&spec, "ID_X", vec![]);
        let a1 = apply(&spec, "ATTR_1", vec![]);
        let t = apply(&spec, "ADD'", vec![apply(&spec, "NEWSTACK", vec![]), x, a1]);
        assert_eq!(rw.normalize(&t).unwrap(), Term::Error(stack));
    }

    #[test]
    fn rep_spec_is_consistent() {
        let spec = symtab_rep_spec();
        let report = adt_check::check_consistency(&spec);
        assert!(report.is_consistent(), "{}", report.summary());
    }
}
