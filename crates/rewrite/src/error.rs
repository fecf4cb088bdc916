//! Errors raised by the rewrite engine.

use std::error::Error;
use std::fmt;

use adt_core::{EngineError, ExhaustionCause, Fuel, FuelSpent, Interrupt};

/// Errors raised during normalization.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RewriteError {
    /// The fuel budget ran out before a normal form was reached. Either
    /// the axiom set is non-terminating on this term (e.g. a circular
    /// equation) or the budget is simply too small for the input.
    ///
    /// The receipt says exactly what was spent and which bound tripped;
    /// when `spent.cause == Steps`, `spent.steps` equals the configured
    /// step budget exactly, on every job count.
    Exhausted {
        /// What was consumed before the budget ran out.
        spent: FuelSpent,
        /// The budget that was configured.
        budget: Fuel,
    },
    /// A term was ill-sorted where the engine needed its sort (strict
    /// `error` propagation requires the result sort of a poisoned
    /// application).
    IllSorted {
        /// Human-readable description from the core sort checker.
        detail: String,
    },
    /// A symbolic-interpretation session was misused (e.g. a reference to
    /// an unbound program variable).
    Session {
        /// Human-readable description.
        detail: String,
    },
    /// The run's supervisor stopped this normalization (cooperative
    /// cancellation or an expired wall-clock deadline). Unlike
    /// [`RewriteError::Exhausted`], an interrupt is never retried with
    /// a bigger budget — the run itself is over.
    Interrupted {
        /// Why the supervisor fired.
        kind: Interrupt,
        /// Rewrite steps taken before the interrupt was observed.
        steps: u64,
    },
    /// A structural fault inside the engine itself (dangling id, poisoned
    /// lock) surfaced as a value instead of a panic.
    Engine(EngineError),
}

impl RewriteError {
    /// The fuel receipt, if this error reports budget exhaustion.
    pub fn exhaustion(&self) -> Option<FuelSpent> {
        match self {
            RewriteError::Exhausted { spent, .. } => Some(*spent),
            _ => None,
        }
    }

    /// The interrupt kind, if this error reports a supervised stop.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            RewriteError::Interrupted { kind, .. } => Some(*kind),
            _ => None,
        }
    }
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Exhausted { spent, budget } => match spent.cause {
                ExhaustionCause::Steps => write!(
                    f,
                    "normalization exhausted its budget of {} rewrite step(s) \
                     (non-terminating axiom set, or raise the limit with `with_fuel`)",
                    budget.steps
                ),
                ExhaustionCause::Depth => write!(
                    f,
                    "normalization exceeded the depth bound of {} after {} step(s)",
                    budget.max_depth.unwrap_or(spent.depth),
                    spent.steps
                ),
            },
            RewriteError::Interrupted { kind, steps } => {
                write!(
                    f,
                    "normalization was interrupted ({kind}) after {steps} step(s)"
                )
            }
            RewriteError::IllSorted { detail } => {
                write!(f, "term became ill-sorted during rewriting: {detail}")
            }
            RewriteError::Session { detail } => {
                write!(f, "symbolic session error: {detail}")
            }
            RewriteError::Engine(e) => write!(f, "engine fault: {e}"),
        }
    }
}

impl Error for RewriteError {}

impl From<adt_core::CoreError> for RewriteError {
    fn from(e: adt_core::CoreError) -> Self {
        RewriteError::IllSorted {
            detail: e.to_string(),
        }
    }
}

impl From<EngineError> for RewriteError {
    fn from(e: EngineError) -> Self {
        RewriteError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_step_budget() {
        let e = RewriteError::Exhausted {
            spent: FuelSpent {
                steps: 42,
                depth: 3,
                cause: ExhaustionCause::Steps,
            },
            budget: Fuel::steps(42),
        };
        assert!(e.to_string().contains("42"));
        assert_eq!(
            e.exhaustion().map(|s| s.steps),
            Some(42),
            "receipt is recoverable from the error"
        );
    }

    #[test]
    fn core_errors_convert() {
        let core = adt_core::CoreError::Unknown {
            kind: "sort",
            name: "Q".into(),
        };
        let e: RewriteError = core.into();
        assert!(matches!(e, RewriteError::IllSorted { .. }));
    }

    #[test]
    fn engine_errors_convert() {
        let e: RewriteError = EngineError::LockPoisoned {
            what: "session arena".into(),
        }
        .into();
        assert!(e.to_string().contains("session arena"));
    }
}
