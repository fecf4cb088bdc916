//! # adt-structures — the paper's data structures, at both levels
//!
//! Every data structure John Guttag develops in *Abstract Data Types and
//! the Development of Data Structures* (CACM 1977) lives here twice:
//!
//! 1. **As an algebraic specification** ([`specs`]) — Queue (§3),
//!    Symboltable, Stack and Array (§4), the combined
//!    representation-level specification with the primed operations and
//!    the abstraction function Φ, and the Knowlist extension — each
//!    loaded from its `.adt` source file under the repository's `specs/`
//!    directory ([`sources`]), its only definition.
//! 2. **As an efficient Rust implementation** — a growable ring-buffer
//!    FIFO ([`Fifo`]), the paper's fixed-capacity ring buffer with top
//!    pointer ([`RingQueue`]), the PL/I pointer-list stack as a persistent
//!    linked stack ([`LinkedStack`]), the chained hash table
//!    ([`HashArray`], with the deliberately naive [`LinearArray`] as the
//!    representation-choice foil), and the stack-of-arrays symbol table
//!    ([`SymbolTable`], plus the knows-list variant
//!    [`SymbolTableKl`]).
//!
//! The [`models`] module wires each implementation to its specification
//! through `adt-verify`, so the axioms can be checked against the real
//! code — the paper's "inherent invariant" verification, mechanized.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sources;
pub mod specs;

mod bst_array;
mod fifo;
mod hash_array;
mod ident;
mod knowlist;
mod linked_stack;
pub mod models;
mod ring;
mod sorted_set;
mod symbol_table;
mod two_stack_queue;

pub use bst_array::BstArray;
pub use fifo::Fifo;
pub use hash_array::{HashArray, LinearArray, ScopeArray};
pub use ident::{AttrList, Ident};
pub use knowlist::{KnowList, SymbolTableKl};
pub use linked_stack::LinkedStack;
pub use ring::{RingFull, RingQueue};
pub use sorted_set::SortedSet;
pub use symbol_table::{ScopeError, SymbolTable};
pub use two_stack_queue::TwoStackQueue;
