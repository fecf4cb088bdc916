//! Resource budgets for the engines built on this crate.
//!
//! The paper's algebra makes `error` a first-class value that every
//! operation must propagate; the same discipline applied to the *tools*
//! means no entry point may hang or die — it must terminate with a
//! verdict. A [`Fuel`] budget bounds the two resources a divergent axiom
//! set can otherwise consume without limit: rewrite steps and term
//! (recursion) depth. When a budget runs out the engines report a
//! [`FuelSpent`] receipt — how much was consumed and which bound
//! tripped — instead of spinning.
//!
//! Both bounds are deterministic: the same input exhausts at exactly the
//! same point on every run and at every worker count, so reports
//! containing exhaustion verdicts stay byte-identical. Fuel carries no
//! clock: wall-clock time has one owner, the [`crate::Supervisor`]
//! (`--deadline`, `:deadline`, `adt batch`), whose interrupts are
//! reported apart from exhaustion and never retried.

/// The default step budget: generous for every workload in this
/// repository while still catching circular axiom sets quickly.
pub const DEFAULT_FUEL_STEPS: u64 = 1_000_000;

/// The default evaluation-depth bound.
///
/// Innermost evaluation recurses on the native stack, so an *unbounded*
/// depth turns a sufficiently deep ground term into a stack overflow —
/// an abort, not a verdict. The default cap converts that failure into a
/// deterministic [`ExhaustionCause::Depth`] receipt. 1024 is roughly 3×
/// the deepest term any workload in this repository builds (queue chains
/// of 128, symbol-table traces of 256).
///
/// Each level costs about 0.5 KiB of native stack in a release build
/// and about 6.3 KiB in a debug build (measured on x86-64 with
/// `F(x) = S(F(x))`, which nests one level per step), so 1024 levels
/// take a little over 0.5 MiB and about 6.5 MiB. A spawned thread's default 2 MiB
/// stack holds only about 330 debug levels; the checkers' pool workers
/// are therefore spawned with 16 MiB. A run at one job stays on the
/// caller's stack: a debug build needs a main-thread stack of about
/// 7 MiB (the common 8 MiB default fits). Callers that genuinely need
/// deeper evaluation can opt out with [`Fuel::without_max_depth`] — and
/// take responsibility for running on a stack that fits.
pub const DEFAULT_MAX_DEPTH: usize = 1024;

/// A resource budget for one normalization (or one checker work item).
///
/// ```
/// use adt_core::Fuel;
/// let budget = Fuel::steps(10_000).with_max_depth(512);
/// assert_eq!(budget.steps, 10_000);
/// assert_eq!(budget.max_depth, Some(512));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel {
    /// Maximum number of rewrite steps (rule applications, built-in `if`
    /// reductions included).
    pub steps: u64,
    /// Maximum evaluation (term recursion) depth, if bounded.
    pub max_depth: Option<usize>,
}

impl Default for Fuel {
    fn default() -> Self {
        Fuel {
            steps: DEFAULT_FUEL_STEPS,
            max_depth: Some(DEFAULT_MAX_DEPTH),
        }
    }
}

impl Fuel {
    /// A budget of `steps` rewrite steps with the default depth bound.
    pub fn steps(steps: u64) -> Self {
        Fuel {
            steps,
            ..Fuel::default()
        }
    }

    /// Adds a depth bound.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Removes the depth bound entirely.
    ///
    /// Evaluation recurses on the native stack, so an unbounded depth
    /// makes stack overflow (a process abort) reachable again for deep
    /// enough inputs; only use this on threads with stacks sized for the
    /// terms at hand.
    #[must_use]
    pub fn without_max_depth(mut self) -> Self {
        self.max_depth = None;
        self
    }
}

/// Which bound of a [`Fuel`] budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionCause {
    /// The step budget was fully consumed.
    Steps,
    /// The depth bound was exceeded.
    Depth,
}

impl std::fmt::Display for ExhaustionCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustionCause::Steps => write!(f, "step budget"),
            ExhaustionCause::Depth => write!(f, "depth bound"),
        }
    }
}

/// A receipt for an exhausted budget: what was spent and which bound
/// tripped. Deliberately contains no timing data, so it can appear in
/// reports that must be byte-identical across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuelSpent {
    /// Rewrite steps performed before the budget ran out. When
    /// `cause == Steps`, this equals the configured step budget exactly.
    pub steps: u64,
    /// Deepest evaluation depth reached.
    pub depth: usize,
    /// The bound that tripped.
    pub cause: ExhaustionCause,
}

impl std::fmt::Display for FuelSpent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} exhausted after {} step(s), depth {}",
            self.cause, self.steps, self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_bound_steps_and_depth() {
        let f = Fuel::default();
        assert_eq!(f.steps, DEFAULT_FUEL_STEPS);
        assert_eq!(f.max_depth, Some(DEFAULT_MAX_DEPTH));
    }

    #[test]
    fn depth_bound_can_be_lifted() {
        let f = Fuel::default().without_max_depth();
        assert_eq!(f.max_depth, None);
        assert_eq!(f.steps, DEFAULT_FUEL_STEPS);
    }

    #[test]
    fn builders_compose() {
        let f = Fuel::steps(7).with_max_depth(3);
        assert_eq!(f.steps, 7);
        assert_eq!(f.max_depth, Some(3));
    }

    #[test]
    fn spent_display_names_the_cause() {
        let s = FuelSpent {
            steps: 100,
            depth: 4,
            cause: ExhaustionCause::Steps,
        };
        let text = s.to_string();
        assert!(text.contains("step budget"), "{text}");
        assert!(text.contains("100"), "{text}");
    }
}
