//! Error types for specification construction and term well-formedness.

use std::error::Error;
use std::fmt;

/// Errors raised while building signatures and specifications or while
/// checking terms and axioms for well-sortedness.
///
/// Every variant carries enough human-readable context (names, not raw ids)
/// to be shown directly to a specification author.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A sort with this name was already declared in the signature.
    DuplicateSort {
        /// The offending sort name.
        name: String,
    },
    /// An operation with this name was already declared.
    ///
    /// Operation names are unique per signature: the paper's specifications
    /// never overload, and unique names keep diagnostics unambiguous.
    DuplicateOp {
        /// The offending operation name.
        name: String,
    },
    /// A variable with this name was already declared.
    DuplicateVar {
        /// The offending variable name.
        name: String,
    },
    /// A name lookup failed.
    Unknown {
        /// What kind of entity was looked up (`"sort"`, `"operation"`, `"variable"`).
        kind: &'static str,
        /// The name that could not be resolved.
        name: String,
    },
    /// An operation was applied to the wrong number of arguments.
    ArityMismatch {
        /// The operation's name.
        op: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments actually supplied.
        found: usize,
    },
    /// A term's sort did not match the sort required by its context.
    SortMismatch {
        /// Human-readable description of the context, e.g.
        /// `"argument 2 of ADD"` or `"both sides of axiom q4"`.
        context: String,
        /// Name of the sort required by the context.
        expected: String,
        /// Name of the sort actually found.
        found: String,
    },
    /// An axiom is structurally unusable as a left-to-right rewrite rule.
    IllFormedAxiom {
        /// The axiom's label.
        label: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A specification-level invariant was violated (e.g. a constructor was
    /// declared for a parameter sort).
    InvalidSpec {
        /// What is wrong with the specification.
        reason: String,
    },
    /// An id table outgrew the 32-bit id space. Ids are `u32` indices;
    /// allocating past `u32::MAX` entries would silently alias two
    /// distinct entries, so allocation fails loudly instead.
    CapacityExceeded {
        /// Which table overflowed (`"sort"`, `"operation"`, `"variable"`,
        /// `"term"`).
        kind: &'static str,
        /// The maximum number of representable entries.
        limit: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateSort { name } => {
                write!(f, "sort `{name}` is declared more than once")
            }
            CoreError::DuplicateOp { name } => {
                write!(f, "operation `{name}` is declared more than once")
            }
            CoreError::DuplicateVar { name } => {
                write!(f, "variable `{name}` is declared more than once")
            }
            CoreError::Unknown { kind, name } => write!(f, "unknown {kind} `{name}`"),
            CoreError::ArityMismatch {
                op,
                expected,
                found,
            } => write!(
                f,
                "operation `{op}` expects {expected} argument(s) but was given {found}"
            ),
            CoreError::SortMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "sort mismatch in {context}: expected `{expected}`, found `{found}`"
            ),
            CoreError::IllFormedAxiom { label, reason } => {
                write!(f, "axiom `{label}` is ill-formed: {reason}")
            }
            CoreError::InvalidSpec { reason } => write!(f, "invalid specification: {reason}"),
            CoreError::CapacityExceeded { kind, limit } => write!(
                f,
                "{kind} table is full: at most {limit} {kind} ids can be allocated"
            ),
        }
    }
}

impl Error for CoreError {}

/// Structural faults inside the checking/rewriting machinery itself —
/// as opposed to [`CoreError`], which reports problems with the *input*.
///
/// The engines are total by construction: a worker panic, a poisoned
/// lock, or a dangling id must surface as a value the caller can report,
/// not as an `unwrap` that tears the process down. Every variant carries
/// enough context to identify the offending work item.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A worker thread panicked while processing a work item (twice: the
    /// original run and one retry on a fresh worker).
    WorkerPanicked {
        /// Human-readable description of the work item (an operation
        /// name, a rendered probe term, a pair of axiom labels).
        item: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A lock was poisoned by a panicking holder and the protected data
    /// could not be trusted.
    LockPoisoned {
        /// What the lock protects.
        what: String,
    },
    /// An id did not resolve in the signature it was used against (a
    /// term crossed specification boundaries).
    DanglingId {
        /// What kind of id (`"operation"`, `"sort"`, `"variable"`).
        kind: &'static str,
        /// The raw index.
        index: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanicked { item, message } => {
                write!(f, "worker panicked on {item}: {message}")
            }
            EngineError::LockPoisoned { what } => {
                write!(f, "lock poisoned: {what}")
            }
            EngineError::DanglingId { kind, index } => {
                write!(f, "{kind} id #{index} does not belong to this signature")
            }
        }
    }
}

impl Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = CoreError::ArityMismatch {
            op: "ADD".into(),
            expected: 2,
            found: 3,
        };
        assert_eq!(
            e.to_string(),
            "operation `ADD` expects 2 argument(s) but was given 3"
        );

        let e = CoreError::SortMismatch {
            context: "argument 1 of FRONT".into(),
            expected: "Queue".into(),
            found: "Item".into(),
        };
        assert!(e.to_string().contains("argument 1 of FRONT"));
        assert!(e.to_string().contains("`Queue`"));
    }

    #[test]
    fn engine_errors_name_the_item() {
        let e = EngineError::WorkerPanicked {
            item: "operation `FRONT`".into(),
            message: "injected fault".into(),
        };
        assert_eq!(
            e.to_string(),
            "worker panicked on operation `FRONT`: injected fault"
        );
        let e = EngineError::DanglingId {
            kind: "operation",
            index: 9,
        };
        assert!(e.to_string().contains("#9"));
    }

    #[test]
    fn error_trait_object_is_usable() {
        fn takes_err(_: &dyn Error) {}
        let e = CoreError::Unknown {
            kind: "sort",
            name: "Qeue".into(),
        };
        takes_err(&e);
        assert_eq!(e.to_string(), "unknown sort `Qeue`");
    }
}
