//! The paper's algebraic specifications, loaded from the `.adt` files
//! under the repository's `specs/` directory (embedded by
//! [`crate::sources`]). Each file is the only definition of its
//! specification; the functions here return its parse, and the unit
//! tests beside each one exercise the loaded axioms.
//!
//! Parameter sorts are instantiated with a few constant constructors (the
//! paper's `Item`, `Identifier`, `AttributeList` are parameters of a "type
//! schema"; executable checking needs inhabitants). `ISSAME?` — "part of
//! the specification of an independently defined type Identifier"
//! (footnote 2) — is axiomatized over those constants in each file that
//! uses identifiers.

mod array;
mod diff;
mod knowlist;
mod list;
mod queue;
mod rep;
mod set;
mod stack;
mod symtab;

pub use array::array_spec;
pub use diff::{axiom_diff, AxiomDiff};
pub use knowlist::{knowlist_spec, symboltable_kl_spec};
pub use list::list_spec;
pub use queue::{queue_spec, queue_spec_incomplete};
pub use rep::{symtab_rep_op_map, symtab_rep_spec};
pub use set::set_spec;
pub use stack::stack_spec;
pub use symtab::symboltable_spec;

/// Names of the sample identifiers the specifications declare for the
/// `Identifier` parameter sort.
pub const SAMPLE_IDENTIFIERS: [&str; 3] = ["ID_X", "ID_Y", "ID_Z"];

/// Names of the sample attribute lists the specifications declare for
/// the `AttributeList` parameter sort.
pub const SAMPLE_ATTRIBUTES: [&str; 3] = ["ATTR_1", "ATTR_2", "ATTR_3"];
