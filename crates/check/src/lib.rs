//! # adt-check — mechanical checking of algebraic specifications
//!
//! The paper (§3) reports that completeness is "in a practical sense, a
//! more severe problem than consistency … It is, on the other hand,
//! extremely easy to overlook one or more cases. Boundary conditions, e.g.
//! `REMOVE(NEW)`, are particularly likely to be overlooked." Guttag's
//! response was "a system to mechanically *verify* the
//! sufficient-completeness" that "would begin to prompt the user to supply
//! the additional information".
//!
//! This crate is that system:
//!
//! * [`check_completeness`] analyses the constructor-case coverage of every
//!   derived operation and synthesizes a *witness term* for every missing
//!   case — the prompt the paper describes (drop Queue's axiom 4 and the
//!   checker answers `FRONT(ADD(x1, x2)) = ?`).
//! * [`check_consistency`] looks for contradictory axioms two ways: by
//!   critical-pair analysis (two axioms rewriting one term to different
//!   normal forms) and by randomized ground probing (one-step divergence on
//!   sampled ground terms).
//! * [`infer_constructors`] recovers the constructor/derived-operation
//!   split when a front end did not mark it explicitly.
//!
//! # Example
//!
//! ```
//! use adt_core::{SpecBuilder, Term};
//! use adt_check::{check_completeness, Coverage};
//!
//! // A deliberately incomplete spec: IS_ZERO? is unspecified on SUCC.
//! let mut b = SpecBuilder::new("Nat");
//! let s = b.sort("Nat");
//! let zero = b.ctor("ZERO", [], s);
//! let _succ = b.ctor("SUCC", [s], s);
//! let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
//! let tt = b.tt();
//! b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
//! let spec = b.build()?;
//!
//! let report = adt_check::check_completeness(&spec);
//! assert!(!report.is_sufficiently_complete());
//! let missing = &report.coverage()[0];
//! assert_eq!(missing.op_name(), "IS_ZERO?");
//! assert!(matches!(missing.coverage(), Coverage::Missing(cases) if cases.len() == 1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod classify;
mod completeness;
mod config;
mod consistency;
pub mod fault;
mod lint;
pub mod parallel;

pub use classify::{classification_warnings, infer_constructors};
pub use completeness::{
    check_completeness, check_completeness_session, check_completeness_with_config,
    CompletenessReport, Coverage, OpCoverage, PatternNote,
};
pub use config::{CheckConfig, RetryFuel};
pub use consistency::{
    check_consistency, check_consistency_session, check_consistency_with_config, random_ctor_term,
    ConsistencyReport, ConsistencyVerdict, Contradiction, ExhaustedProbe, ProbeConfig,
};
pub use fault::{ArmedFaults, FaultSpec};
pub use lint::{
    overlap_warnings, overlapping_axioms, recursion_warnings, OverlapPair, RecursionWarning,
};
pub use parallel::{CheckFailure, CheckStats, ItemOutcome};
