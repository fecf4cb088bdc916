//! # adt-core — the heterogeneous-algebra substrate
//!
//! This crate implements the formal core of John Guttag's *Abstract Data
//! Types and the Development of Data Structures* (CACM 20(6), 1977): sorts,
//! operator signatures, typed variables, first-order terms with a
//! distinguished strict `error` value and built-in booleans, substitution,
//! pattern matching, syntactic unification, equational axioms, and complete
//! *algebraic specifications*.
//!
//! An algebraic specification of an abstract data type consists of two
//! parts (paper, §2):
//!
//! 1. a **syntactic specification** — the names, domains and ranges of the
//!    operations associated with the type (a [`Signature`]), and
//! 2. a **set of relations** (axioms, [`Axiom`]) that define the meanings of
//!    the operations by stating their relationships to one another.
//!
//! # Example: a fragment of the paper's Queue (§3)
//!
//! ```
//! use adt_core::{SpecBuilder, Term};
//!
//! let mut b = SpecBuilder::new("Queue");
//! let queue = b.sort("Queue");
//! let item = b.param_sort("Item");
//! let new = b.ctor("NEW", [], queue);
//! let add = b.ctor("ADD", [queue, item], queue);
//! let front = b.op("FRONT", [queue], item);
//! let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
//! let q = b.var("q", queue);
//! let i = b.var("i", item);
//!
//! // IS_EMPTY?(NEW) = true
//! let tt = b.tt();
//! b.axiom("q1", b.app(is_empty, [b.app(new, [])]), tt);
//! // FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
//! let lhs = b.app(front, [b.app(add, [Term::Var(q), Term::Var(i)])]);
//! let rhs = Term::ite(
//!     b.app(is_empty, [Term::Var(q)]),
//!     Term::Var(i),
//!     b.app(front, [Term::Var(q)]),
//! );
//! b.axiom("q4", lhs, rhs);
//!
//! let spec = b.build().expect("well-formed spec");
//! assert_eq!(spec.axioms().len(), 2);
//! assert!(spec.sig().op(add).is_constructor());
//! ```
//!
//! The operational reading of axiom sets (rewriting, normalization, symbolic
//! interpretation) lives in `adt-rewrite`; the mechanical
//! sufficient-completeness and consistency checks in `adt-check`; the textual
//! specification language in `adt-dsl`; verification of implementations in
//! `adt-verify`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod axiom;
mod error;
mod fuel;
mod ids;
mod matching;
mod rng;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
mod rules;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
mod session;
mod signature;
mod spec;
mod subst;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
mod supervise;
mod term;
mod unify;

pub mod display;
#[cfg_attr(not(test), deny(clippy::unwrap_used))]
pub mod json;

pub use arena::{TermArena, TermId, TermNode, TermStore};
pub use axiom::Axiom;
pub use error::{CoreError, EngineError};
pub use fuel::{ExhaustionCause, Fuel, FuelSpent, DEFAULT_FUEL_STEPS, DEFAULT_MAX_DEPTH};
pub use ids::{OpId, SortId, VarId};
pub use matching::{match_pattern, match_pattern_at_root};
pub use rng::{fnv1a, DetRng};
pub use rules::RuleSet;
pub use session::{Session, SessionStats};
pub use signature::{Fresh, OpInfo, Signature, SortInfo, VarInfo};
pub use spec::{Spec, SpecBuilder};
pub use subst::Subst;
pub use supervise::{CancelToken, Deadline, Interrupt, Supervisor};
pub use term::{Ite, Position, Term};
pub use unify::{unify, Unifier};

/// Convenient result alias for fallible core operations.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
