//! # adt-verify — implementations checked against their specifications
//!
//! §4 of the paper develops a three-layer story: the abstract type
//! `Symboltable`, a *representation* of it as a Stack of Arrays with an
//! abstraction function Φ, and a proof — carried out "completely
//! mechanically by David Musser" — that the representation satisfies the
//! abstract axioms (axiom 9 only under *Assumption 1*, the paper's notion
//! of **conditional correctness**). This crate mechanizes each part of
//! that story:
//!
//! * [`Model`] / [`ModelBuilder`] — hook a Rust implementation up to a
//!   specification: one closure per operation over dynamic [`MValue`]s,
//!   with the paper's strict `error` propagation applied automatically.
//! * [`check_axioms`] — bounded model checking: every axiom is evaluated
//!   in the implementation over exhaustively enumerated (and optionally
//!   random) ground constructor arguments; counterexamples come back as
//!   bindings.
//! * [`check_representation`] — the value-level Φ check: for generated
//!   terms `t`, `Φ(eval_impl(t))` must equal the specification's normal
//!   form of `t` (a bounded homomorphism proof). Supports *environment
//!   assumptions* (term filters) for conditional correctness. On
//!   observer sorts it is the algebraic-testing oracle: the model must be
//!   *invariant under rewriting* (`eval(t) ≡ eval(nf(t))`), so the axioms
//!   supply both the test cases and the expected results.
//! * [`prove_by_induction`] — generator induction (Wegbreit's term, cited
//!   by the paper) at the term level: case-split on constructors,
//!   skolemize, add induction hypotheses as rewrite rules, and close each
//!   case with the rewriting prover.
//! * [`translate_obligations`] / [`verify_obligation`] — the §4 proof
//!   itself: translate each abstract axiom through the implementation
//!   (primed operations) and Φ, then prove the two sides equal with case
//!   analysis, optionally restricted by an assumption such as Assumption 1
//!   ("an identifier is never added to an empty symbol table").
//!
//! The checkers' own robustness differential, which injects faults into
//! the checking engine, is [`adt_check::fault::fault_isolation_check`]:
//! it lives next to the fault plans it arms.
//!
//! Every pass takes a [`adt_core::Spec`] and keeps no cache between
//! normalizations, so its verdict depends only on the specification, the
//! terms and the budget.
//!
//! See the `representation_proof` and `conditional_correctness`
//! integration tests for the full Symboltable development.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod axiom_check;
mod eval;
mod gen;
mod homomorphism;
mod induction;
mod model;
mod rep;
mod value;

pub use axiom_check::{
    check_axioms, check_axioms_jobs, AxiomCheckConfig, AxiomCheckReport, CounterExample,
};
pub use eval::{eval_ground, eval_with_env};
pub use gen::{enumerate_ctor_terms, enumerate_terms, TermPool};
pub use homomorphism::{check_representation, RepCheckConfig, RepCheckReport, RepMismatch};
pub use induction::{instantiate_case, prove_by_induction, with_lemma, InductionOutcome};
pub use model::{Model, ModelBuilder, TableModel};
pub use rep::{
    translate_obligations, verify_obligation, Obligation, ObligationKind, ObligationOutcome, OpMap,
    ProofConfig,
};
pub use value::MValue;
