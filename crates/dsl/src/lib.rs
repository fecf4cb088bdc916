//! # adt-dsl — a textual language for algebraic specifications
//!
//! The paper presents specifications in a fixed concrete form: a syntactic
//! specification (operation names, domains, ranges) followed by a list of
//! labelled axioms over typed free variables, with `error` and
//! `if-then-else` on right-hand sides. This crate gives that form a
//! machine-readable syntax, so every specification in the paper exists as
//! a source file (see the repository's `specs/` directory):
//!
//! ```text
//! -- The Queue of §3.
//! type Queue
//! param Item
//!
//! ops
//!   NEW:    -> Queue ctor
//!   ADD:    Queue, Item -> Queue ctor
//!   FRONT:  Queue -> Item
//!   REMOVE: Queue -> Queue
//!   IS_EMPTY?: Queue -> Bool
//!
//! vars
//!   q: Queue
//!   i: Item
//!
//! axioms
//!   [1] IS_EMPTY?(NEW) = true
//!   [2] IS_EMPTY?(ADD(q, i)) = false
//!   [3] FRONT(NEW) = error
//!   [4] FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
//!   [5] REMOVE(NEW) = error
//!   [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
//! end
//! ```
//!
//! A file is a *module*: several `type` blocks (and `param` declarations)
//! sharing one name space, which is how the paper layers specifications
//! ("the solution … is simply to add another level to the specification by
//! supplying an algebraic specification of the abstract type Knowlist").
//! Lowering produces a single [`adt_core::Spec`] whose sorts of interest
//! are all the `type` blocks.
//!
//! # Example
//!
//! ```
//! let source = r#"
//! type Nat
//! ops
//!   ZERO: -> Nat ctor
//!   SUCC: Nat -> Nat ctor
//!   IS_ZERO?: Nat -> Bool
//! vars
//!   n: Nat
//! axioms
//!   [z1] IS_ZERO?(ZERO) = true
//!   [z2] IS_ZERO?(SUCC(n)) = false
//! end
//! "#;
//! let spec = adt_dsl::parse(source).map_err(|e| e.to_string())?;
//! assert_eq!(spec.name(), "Nat");
//! assert_eq!(spec.axioms().len(), 2);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod ast;
mod diag;
mod lexer;
mod lower;
mod parser;
mod print;
mod token;

pub use ast::{AxiomDecl, Item, Module, OpDecl, TermAst, TypeBlock, VarDecl};
pub use diag::{Diagnostic, Diagnostics, Span};
pub use lexer::lex;
pub use lower::{lower, lower_term_in};
pub use parser::{parse_module, parse_term_source};
pub use print::{print_spec, semantically_equal};

use adt_core::{Session, Spec, Term};

/// Parses and lowers a complete specification module.
///
/// # Errors
///
/// Returns every syntax and well-formedness problem found, each carrying a
/// source span; render them against the source with
/// [`Diagnostics::render`].
pub fn parse(source: &str) -> Result<Spec, Diagnostics> {
    let module = parse_module(source)?;
    lower(&module)
}

/// Parses a standalone term against a specification's signature — the
/// entry point for command-line tools and REPLs.
///
/// ```
/// let spec = adt_dsl::parse("type N\nops\n Z: -> N ctor\n S: N -> N ctor\nend")
///     .map_err(|e| e.to_string())?;
/// let term = adt_dsl::parse_term(&spec, "S(S(Z))").map_err(|e| e.to_string())?;
/// assert_eq!(term.depth(), 3);
/// # Ok::<(), String>(())
/// ```
///
/// # Errors
///
/// Returns lexical, syntactic, name-resolution and sort errors with spans
/// into `source`.
pub fn parse_term(spec: &Spec, source: &str) -> Result<Term, Diagnostics> {
    let ast = parse_term_source(source)?;
    lower_term_in(spec.sig(), &ast, None)
}

/// Parses and lowers a module straight into an [`adt_core::Session`],
/// which indexes the axioms by head operation once. Nothing is
/// interned up front: the session store fills as normalizations run.
///
/// ```
/// let session = adt_dsl::parse_session(
///     "type N\nops\n Z: -> N ctor\n S: N -> N ctor\nend",
/// )
/// .map_err(|e| e.to_string())?;
/// assert_eq!(session.spec().name(), "N");
/// # Ok::<(), String>(())
/// ```
///
/// # Errors
///
/// Returns every syntax and well-formedness problem found, as
/// [`parse`] does.
pub fn parse_session(source: &str) -> Result<Session, Diagnostics> {
    Ok(Session::new(parse(source)?))
}
