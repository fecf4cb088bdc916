//! Sharing safety of the persistent representations.
//!
//! A cloned `SymbolTable` shares its blocks with the original and a
//! cloned `HashArray` shares its chain entries, so a write through the
//! `&mut` API must copy whatever another value still holds. These tests
//! take a snapshot after every step of a seeded script, keep changing the
//! original, and check at the end that every snapshot still answers as a
//! `LinearArray`-backed value (which shares nothing) replayed to the same
//! prefix does. They also check the `Model` purity contract on the
//! Symboltable and Array models: a constructor leaves its argument value
//! as it was.

use adt_core::DetRng;
use adt_structures::models::{array_model, symtab_model};
use adt_structures::specs::{array_spec, symboltable_spec, SAMPLE_ATTRIBUTES, SAMPLE_IDENTIFIERS};
use adt_structures::{AttrList, HashArray, Ident, LinearArray, ScopeArray, SymbolTable};
use adt_verify::{MValue, Model};

/// Few names, so that declarations shadow each other and chains grow.
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

#[derive(Debug, Clone, Copy)]
enum Step {
    Add(usize),
    Enter,
    Leave,
}

/// A seeded script that enters, leaves and adds; it never leaves the
/// outermost block.
fn script(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = DetRng::new(seed);
    let mut depth = 1;
    (0..len)
        .map(|_| match rng.below(10) {
            0 | 1 => {
                depth += 1;
                Step::Enter
            }
            2 if depth > 1 => {
                depth -= 1;
                Step::Leave
            }
            _ => Step::Add(rng.below(NAMES.len())),
        })
        .collect()
}

fn apply<A: ScopeArray<AttrList>>(table: &mut SymbolTable<A>, at: usize, step: Step) {
    match step {
        Step::Add(k) => table.add(
            Ident::new(NAMES[k]),
            AttrList::new().with("step", &at.to_string()),
        ),
        Step::Enter => table.enter_block(),
        Step::Leave => table
            .leave_block()
            .expect("scripts never leave the outermost block"),
    }
}

/// What `RETRIEVE` and `IS_INBLOCK?` answer for every name, at every
/// level `LEAVEBLOCK` reaches from `table`, innermost first.
fn observe<A: ScopeArray<AttrList>>(table: &SymbolTable<A>) -> Vec<(Option<AttrList>, bool)> {
    let mut level = table.clone();
    let mut seen = Vec::new();
    loop {
        for name in NAMES {
            seen.push((level.retrieve(name).ok().cloned(), level.is_in_block(name)));
        }
        if level.leave_block().is_err() {
            return seen;
        }
    }
}

#[test]
fn symbol_table_snapshots_survive_later_changes_to_the_original() {
    for seed in 1..=8u64 {
        let steps = script(seed, 160);
        let mut table: SymbolTable<HashArray<AttrList>> = SymbolTable::init();
        let mut snapshots = vec![table.clone()];
        for (at, &step) in steps.iter().enumerate() {
            apply(&mut table, at, step);
            snapshots.push(table.clone());
        }
        for (prefix, snapshot) in snapshots.iter().enumerate() {
            let mut replay: SymbolTable<LinearArray<AttrList>> = SymbolTable::init();
            for (at, &step) in steps[..prefix].iter().enumerate() {
                apply(&mut replay, at, step);
            }
            assert_eq!(
                snapshot.depth(),
                replay.depth(),
                "seed {seed}, prefix {prefix}"
            );
            assert_eq!(
                observe(snapshot),
                observe(&replay),
                "seed {seed}: the snapshot after {prefix} step(s) changed"
            );
        }
    }
}

#[test]
fn hash_array_snapshots_survive_later_assignments_to_the_original() {
    for (seed, buckets) in [(1u64, 1usize), (2, 4), (3, 64)] {
        let mut rng = DetRng::new(seed);
        let assigns: Vec<(usize, u32)> = (0..200).map(|i| (rng.below(NAMES.len()), i)).collect();
        let mut array: HashArray<u32> = HashArray::with_buckets(buckets);
        let mut snapshots = vec![array.clone()];
        for &(k, value) in &assigns {
            array.assign(Ident::new(NAMES[k]), value);
            snapshots.push(array.clone());
        }
        for (prefix, snapshot) in snapshots.iter().enumerate() {
            let mut replay: LinearArray<u32> = LinearArray::empty();
            for &(k, value) in &assigns[..prefix] {
                replay.assign(Ident::new(NAMES[k]), value);
            }
            assert_eq!(snapshot.entry_count(), prefix, "seed {seed}");
            for name in NAMES {
                assert_eq!(
                    snapshot.read(name),
                    replay.read(name),
                    "seed {seed}: `{name}` after {prefix} assignment(s)"
                );
            }
        }
    }
}

/// What the model's observers answer on `value`, given the observers to
/// run on one identifier and, for nested values, how to step outward.
fn model_observations(
    model: &dyn Model,
    value: &MValue,
    observers: &[&str],
    outward: Option<&str>,
) -> Vec<String> {
    let sig = model.spec().sig();
    let mut seen = Vec::new();
    let mut level = value.clone();
    while !level.is_error() {
        for id in SAMPLE_IDENTIFIERS {
            for &obs in observers {
                let op = sig.op_named(obs).expect("observer exists");
                let answer = model.apply(op, &[level.clone(), MValue::from(id)]);
                seen.push(format!("{obs}({id}) = {answer:?}"));
            }
        }
        let Some(out) = outward else { break };
        let op = sig.op_named(out).expect("outward operation exists");
        level = model.apply(op, &[level]);
    }
    seen
}

/// Applies seeded constructors to values built so far, and checks that
/// each application leaves its argument answering as before.
fn check_constructors_are_pure(
    model: &dyn Model,
    start: &str,
    constructors: &[(&str, usize)],
    observers: &[&str],
    outward: Option<&str>,
) {
    let sig = model.spec().sig();
    let mut rng = DetRng::new(0x5EED);
    let mut values = vec![model.apply(sig.op_named(start).expect("start exists"), &[])];
    for _ in 0..400 {
        let arg = values[rng.below(values.len())].clone();
        let (name, extra) = constructors[rng.below(constructors.len())];
        let mut args = vec![arg.clone()];
        if extra >= 1 {
            args.push(MValue::from(
                SAMPLE_IDENTIFIERS[rng.below(SAMPLE_IDENTIFIERS.len())],
            ));
        }
        if extra >= 2 {
            args.push(MValue::from(
                SAMPLE_ATTRIBUTES[rng.below(SAMPLE_ATTRIBUTES.len())],
            ));
        }
        let before = model_observations(model, &arg, observers, outward);
        let result = model.apply(sig.op_named(name).expect("constructor exists"), &args);
        assert_eq!(
            model_observations(model, &arg, observers, outward),
            before,
            "{name} changed its argument"
        );
        if !result.is_error() {
            values.push(result);
        }
    }
}

#[test]
fn symtab_model_constructors_leave_their_argument_unchanged() {
    let spec = symboltable_spec();
    let model = symtab_model(&spec);
    check_constructors_are_pure(
        &model,
        "INIT",
        &[("ADD", 2), ("ADD", 2), ("ENTERBLOCK", 0), ("LEAVEBLOCK", 0)],
        &["RETRIEVE", "IS_INBLOCK?"],
        Some("LEAVEBLOCK"),
    );
}

#[test]
fn array_model_constructors_leave_their_argument_unchanged() {
    let spec = array_spec();
    let model = array_model(&spec);
    check_constructors_are_pure(
        &model,
        "EMPTY",
        &[("ASSIGN", 2)],
        &["READ", "IS_UNDEFINED?"],
        None,
    );
}
