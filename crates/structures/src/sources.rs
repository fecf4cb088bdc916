//! The `.adt` source files shipped in the repository's `specs/`
//! directory, embedded and loadable.
//!
//! Each file is the only definition of its specification: `adt check`,
//! `adt batch` and the REPL read it from disk, and the Rust API
//! ([`crate::specs`]) loads the embedded copy through [`load`]. A file is
//! parsed at most once per process; later loads return clones.

use std::sync::OnceLock;

use adt_core::Spec;
use adt_dsl::Diagnostics;

/// `specs/queue.adt` — the Queue of §3.
pub const QUEUE: &str = include_str!("../../../specs/queue.adt");
/// `specs/queue_incomplete.adt` — the Queue with axiom 4 omitted.
pub const QUEUE_INCOMPLETE: &str = include_str!("../../../specs/queue_incomplete.adt");
/// `specs/stack.adt` — the Stack of §4.
pub const STACK: &str = include_str!("../../../specs/stack.adt");
/// `specs/array.adt` — the Array of §4.
pub const ARRAY: &str = include_str!("../../../specs/array.adt");
/// `specs/symboltable.adt` — the Symboltable of §4.
pub const SYMBOLTABLE: &str = include_str!("../../../specs/symboltable.adt");
/// `specs/symboltable_rep.adt` — the representation level with Φ.
pub const SYMBOLTABLE_REP: &str = include_str!("../../../specs/symboltable_rep.adt");
/// `specs/knowlist.adt` — the Knowlist extension type.
pub const KNOWLIST: &str = include_str!("../../../specs/knowlist.adt");
/// `specs/symboltable_kl.adt` — the Symboltable with knows lists.
pub const SYMBOLTABLE_KL: &str = include_str!("../../../specs/symboltable_kl.adt");
/// `specs/list.adt` — lists with append/length/reverse (induction playground).
pub const LIST: &str = include_str!("../../../specs/list.adt");
/// `specs/set.adt` — finite sets (non-free constructors).
pub const SET: &str = include_str!("../../../specs/set.adt");
/// `specs/database.adt` — the §5 database case study.
pub const DATABASE: &str = include_str!("../../../specs/database.adt");
/// `specs/arithmetic.adt` — Peano arithmetic with DIVMOD (the §5
/// multiple-return-values workaround via a Pair type).
pub const ARITHMETIC: &str = include_str!("../../../specs/arithmetic.adt");

const FILES: [(&str, &str); 12] = [
    ("queue", QUEUE),
    ("queue_incomplete", QUEUE_INCOMPLETE),
    ("stack", STACK),
    ("array", ARRAY),
    ("symboltable", SYMBOLTABLE),
    ("symboltable_rep", SYMBOLTABLE_REP),
    ("knowlist", KNOWLIST),
    ("symboltable_kl", SYMBOLTABLE_KL),
    ("list", LIST),
    ("set", SET),
    ("database", DATABASE),
    ("arithmetic", ARITHMETIC),
];

/// All embedded sources, by file stem.
pub fn all() -> Vec<(&'static str, &'static str)> {
    FILES.to_vec()
}

/// Parses an embedded source by file stem. The first call for a file
/// parses it; every later call returns a clone of that result.
///
/// # Errors
///
/// Returns parse/lowering diagnostics (only possible if the shipped file
/// is edited into an invalid state).
///
/// # Panics
///
/// Panics if `name` is not one of the embedded file stems.
pub fn load(name: &str) -> Result<Spec, Diagnostics> {
    static PARSED: [OnceLock<Result<Spec, Diagnostics>>; FILES.len()] =
        [const { OnceLock::new() }; FILES.len()];
    let index = FILES
        .iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown embedded specification `{name}`"));
    PARSED[index]
        .get_or_init(|| adt_dsl::parse(FILES[index].1))
        .clone()
}

/// [`load`] for a file this crate's tests keep parseable: the loaders in
/// [`crate::specs`] go through here.
pub(crate) fn shipped(name: &str) -> Spec {
    load(name).unwrap_or_else(|diags| panic!("specs/{name}.adt does not parse: {diags}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs;

    #[test]
    fn every_embedded_source_parses() {
        for (name, source) in all() {
            match adt_dsl::parse(source) {
                Ok(_) => {}
                Err(e) => panic!("specs/{name}.adt does not parse:\n{}", e.render(source)),
            }
        }
    }

    /// Declaration-ordered names of a spec's sorts, operations and
    /// variables, and its axiom labels in order.
    fn declarations(spec: &Spec) -> [Vec<String>; 4] {
        let sig = spec.sig();
        [
            sig.sort_ids()
                .map(|id| sig.sort(id).name().to_owned())
                .collect(),
            sig.op_ids()
                .map(|id| sig.op(id).name().to_owned())
                .collect(),
            sig.var_ids()
                .map(|id| sig.var(id).name().to_owned())
                .collect(),
            spec.axioms()
                .iter()
                .map(|ax| ax.label().to_owned())
                .collect(),
        ]
    }

    #[test]
    fn every_spec_function_is_its_file() {
        type SpecFn = fn() -> Spec;
        let table: [(&str, SpecFn); 10] = [
            ("queue", specs::queue_spec),
            ("queue_incomplete", specs::queue_spec_incomplete),
            ("stack", specs::stack_spec),
            ("array", specs::array_spec),
            ("symboltable", specs::symboltable_spec),
            ("symboltable_rep", specs::symtab_rep_spec),
            ("knowlist", specs::knowlist_spec),
            ("symboltable_kl", specs::symboltable_kl_spec),
            ("list", specs::list_spec),
            ("set", specs::set_spec),
        ];
        for (name, spec_fn) in table {
            let source = FILES.iter().find(|(n, _)| *n == name).unwrap().1;
            let parsed = adt_dsl::parse(source).unwrap();
            let spec = spec_fn();
            assert_eq!(spec.name(), parsed.name(), "specs/{name}.adt: spec name");
            assert_eq!(
                declarations(&spec),
                declarations(&parsed),
                "specs/{name}.adt: declaration order"
            );
            assert_eq!(spec, parsed, "specs/{name}.adt");
        }
    }

    #[test]
    #[should_panic(expected = "unknown embedded specification")]
    fn unknown_name_panics() {
        let _ = load("no_such_spec");
    }
}
