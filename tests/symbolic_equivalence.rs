//! The symbolic interpreter against its oracle. Seeded Symboltable
//! traces and queue programs run op by op through one `SymbolicSession`,
//! whose session store stays warm from op to op. After every op, each
//! bound value and every observer call must equal a cold
//! `Rewriter::normalize` of the matching program tree: the axioms
//! themselves are the oracle (Gaudel & Le Gall, PAPERS.md).
//!
//! A second test pins `Session::app` to the errors `Signature::apply`
//! gives for a wrong arity and a wrong argument sort.

use adt_core::{DetRng, Session, Spec, Term};
use adt_rewrite::{Rewriter, SymbolicSession};
use adt_structures::specs::{queue_spec, symboltable_spec};

fn apply(spec: &Spec, op: &str, args: Vec<Term>) -> Term {
    spec.sig().apply(op, args).unwrap()
}

fn constant(spec: &Spec, name: &str) -> Term {
    apply(spec, name, vec![])
}

/// Runs one seeded Symboltable trace of `len` ops and checks every op.
fn symboltable_trace(spec: &Spec, seed: u64, len: usize) {
    let idents = ["ID_X", "ID_Y", "ID_Z"].map(|n| constant(spec, n));
    let attrs = ["ATTR_1", "ATTR_2", "ATTR_3"].map(|n| constant(spec, n));
    let cold = Rewriter::new(spec);
    let mut rng = DetRng::new(seed);
    let mut s = SymbolicSession::new(spec);
    s.assign("st", "INIT", []).unwrap();
    let mut tree = constant(spec, "INIT");
    for step in 0..len {
        // About one op in ten leaves a block, the outermost one included,
        // so error states flow through later ops too.
        match rng.below(10) {
            0 => {
                s.assign("st", "ENTERBLOCK", ["st".into()]).unwrap();
                tree = apply(spec, "ENTERBLOCK", vec![tree]);
            }
            1 => {
                s.assign("st", "LEAVEBLOCK", ["st".into()]).unwrap();
                tree = apply(spec, "LEAVEBLOCK", vec![tree]);
            }
            _ => {
                let id = idents[rng.below(3)].clone();
                let attr = attrs[rng.below(3)].clone();
                s.assign(
                    "st",
                    "ADD",
                    ["st".into(), id.clone().into(), attr.clone().into()],
                )
                .unwrap();
                tree = apply(spec, "ADD", vec![tree, id, attr]);
            }
        }
        let context = format!("seed {seed}, op {step}");
        assert_eq!(
            s.get("st").unwrap(),
            cold.normalize(&tree).unwrap(),
            "{context}"
        );
        for id in &idents {
            for observer in ["RETRIEVE", "IS_INBLOCK?"] {
                let warm = s.call(observer, ["st".into(), id.clone().into()]).unwrap();
                let expected = cold
                    .normalize(&apply(spec, observer, vec![tree.clone(), id.clone()]))
                    .unwrap();
                assert_eq!(warm, expected, "{context}: {observer}");
            }
        }
    }
}

#[test]
fn symboltable_traces_match_cold_normalization_after_every_op() {
    let spec = symboltable_spec();
    for seed in 1..=8 {
        symboltable_trace(&spec, seed, 40);
    }
}

/// Runs one seeded queue program over two program variables and checks
/// every op.
fn queue_program(spec: &Spec, seed: u64, len: usize) {
    let items = ["A", "B", "C"].map(|n| constant(spec, n));
    let vars = ["x", "y"];
    let cold = Rewriter::new(spec);
    let mut rng = DetRng::new(seed);
    let mut s = SymbolicSession::new(spec);
    let mut trees = [constant(spec, "NEW"), constant(spec, "NEW")];
    s.assign("x", "NEW", []).unwrap();
    s.set("y", trees[1].clone()).unwrap();
    for step in 0..len {
        let (dst, src) = (rng.below(2), rng.below(2));
        let tree = match rng.below(8) {
            0 => {
                s.assign(vars[dst], "NEW", []).unwrap();
                constant(spec, "NEW")
            }
            1..=2 => {
                s.assign(vars[dst], "REMOVE", [vars[src].into()]).unwrap();
                apply(spec, "REMOVE", vec![trees[src].clone()])
            }
            3 => {
                // A whole tree bound at once, not op by op.
                let item = items[rng.below(3)].clone();
                let tree = apply(spec, "ADD", vec![trees[src].clone(), item]);
                s.set(vars[dst], tree.clone()).unwrap();
                tree
            }
            _ => {
                let item = items[rng.below(3)].clone();
                s.assign(vars[dst], "ADD", [vars[src].into(), item.clone().into()])
                    .unwrap();
                apply(spec, "ADD", vec![trees[src].clone(), item])
            }
        };
        trees[dst] = tree;
        let context = format!("seed {seed}, op {step}");
        for (var, tree) in vars.iter().zip(&trees) {
            assert_eq!(
                s.get(var).unwrap(),
                cold.normalize(tree).unwrap(),
                "{context}: {var}"
            );
            for observer in ["FRONT", "IS_EMPTY?"] {
                let obs = apply(spec, observer, vec![tree.clone()]);
                let expected = cold.normalize(&obs).unwrap();
                assert_eq!(
                    s.call(observer, [(*var).into()]).unwrap(),
                    expected,
                    "{context}: {observer}({var})"
                );
                assert_eq!(
                    s.eval(&obs).unwrap(),
                    expected,
                    "{context}: eval {observer}({var})"
                );
            }
        }
    }
}

#[test]
fn queue_programs_match_cold_normalization_after_every_op() {
    let spec = queue_spec();
    for seed in 1..=8 {
        queue_program(&spec, seed, 40);
    }
}

#[test]
fn session_app_errors_match_signature_apply() {
    let spec = queue_spec();
    let sig = spec.sig();
    let session = Session::new(spec.clone());
    let new = constant(&spec, "NEW");
    let a = constant(&spec, "A");
    let new_id = session.intern(&new);
    let a_id = session.intern(&a);
    let add = sig.op_named("ADD").unwrap();
    let cases: [(Vec<Term>, Vec<_>); 4] = [
        // Wrong arity: too few and too many.
        (vec![new.clone()], vec![new_id]),
        (
            vec![new.clone(), a.clone(), a.clone()],
            vec![new_id, a_id, a_id],
        ),
        // Wrong sort, in each argument position.
        (vec![new.clone(), new.clone()], vec![new_id, new_id]),
        (vec![a.clone(), a.clone()], vec![a_id, a_id]),
    ];
    for (terms, ids) in cases {
        let expected = sig.apply("ADD", terms).unwrap_err();
        assert_eq!(session.app(add, &ids).unwrap_err(), expected);
    }
    // A well-sorted application is the interned tree.
    let id = session.app(add, &[new_id, a_id]).unwrap();
    assert_eq!(session.term(id), apply(&spec, "ADD", vec![new, a]));
    assert_eq!(session.app(add, &[new_id, a_id]).unwrap(), id);
}
