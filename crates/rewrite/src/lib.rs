//! # adt-rewrite — the operational reading of algebraic specifications
//!
//! Guttag's axioms are equations, but read left-to-right they are rewrite
//! rules, and that reading is what makes a specification *executable*: "In
//! the absence of an implementation, the operations of the algebra may be
//! interpreted symbolically. Thus, except for a significant loss in
//! efficiency, the lack of an implementation can be made completely
//! transparent to the user." (paper, §5.)
//!
//! This crate provides:
//!
//! * [`Rewriter`] — leftmost-innermost normalization with the paper's
//!   strict `error` propagation (`f(…, error, …) = error`), built-in
//!   `if-then-else` reduction, conditional *lifting* and branch merging
//!   (needed when normal forms contain symbolic conditions, as in the
//!   Symboltable representation proof), and a fuel limit.
//! * [`RuleSet`] — the spec's axioms indexed by head operation,
//!   extensible with extra rules (induction hypotheses, environment
//!   assumptions). Re-exported from `adt-core`, which owns it.
//! * [`Trace`] — a step-by-step record of a normalization, printable as the
//!   kind of derivation the paper walks through by hand.
//! * [`superpositions`] and [`classify_superposition`] — overlaps of
//!   axiom left-hand sides, in declaration order, and their joinability,
//!   the machinery behind the consistency check in `adt-check`;
//!   [`rename_apart`] gives two axioms disjoint variables for them.
//! * [`SymbolicSession`] — the paper's "symbolic interpretation" facility: a
//!   little machine whose program variables hold normalized terms of the
//!   algebra.
//!
//! # Example
//!
//! ```
//! use adt_core::{SpecBuilder, Term};
//! use adt_rewrite::Rewriter;
//!
//! let mut b = SpecBuilder::new("Tiny");
//! let s = b.sort("S");
//! let zero = b.ctor("ZERO", [], s);
//! let succ = b.ctor("SUCC", [s], s);
//! let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
//! let x = b.var("x", s);
//! let tt = b.tt();
//! let ff = b.ff();
//! b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
//! b.axiom("z2", b.app(is_zero, [b.app(succ, [Term::Var(x)])]), ff);
//! let spec = b.build()?;
//!
//! let rw = Rewriter::new(&spec);
//! let one = spec.sig().apply("SUCC", vec![spec.sig().apply("ZERO", vec![])?])?;
//! let t = spec.sig().apply("IS_ZERO?", vec![one])?;
//! assert_eq!(rw.normalize(&t)?, spec.sig().ff());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod critical;
mod engine;
mod error;
mod reference;
mod symbolic;
mod trace;

pub use adt_core::RuleSet;
pub use critical::{
    classify_superposition, rename_apart, superpositions, PairStatus, Superposition,
    SuperpositionSet,
};
pub use engine::{residual_conditionals, Normalization, Proof, Rewriter};
pub use error::RewriteError;
pub use symbolic::SymbolicSession;
pub use trace::{Step, Trace};

/// Convenient result alias for fallible rewrite operations.
pub type Result<T, E = RewriteError> = std::result::Result<T, E>;
