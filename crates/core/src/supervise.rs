//! Cooperative supervision: wall-clock deadlines and cancellation.
//!
//! Fuel (see [`crate::fuel`]) bounds *work* in steps and depth, and
//! carries no clock; supervision is the one owner of *time and intent*.
//! A [`Deadline`] is a monotonic wall-clock budget shared by every work
//! item of a run, and a [`CancelToken`] is a cheap, clonable flag an
//! outside party (a signal handler, a batch driver, a test harness) can
//! trip to stop a run mid-flight. Both are folded into a [`Supervisor`],
//! which the rewrite engine polls on a normalization's first step and
//! then every thousand or so rewrite steps, so a diverging
//! normalization notices within microseconds that its run is over.
//!
//! Supervision is *cooperative*: nothing is killed. An interrupted
//! normalization returns an [`Interrupt`] outcome that the checking
//! layers classify as UNDETERMINED — the analysis was stopped, the
//! specification was not proved wrong — and, unlike fuel exhaustion,
//! an interrupt is never retried: the supervisor said stop.
//!
//! Wall-clock deadlines are inherently non-deterministic (where the
//! clock expires depends on machine load), which is why they are
//! opt-in and why checkpointed phases are only ever recorded when they
//! ran to completion *uninterrupted* — everything a resume reuses is
//! byte-deterministic.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic wall-clock budget: `start + budget` is the instant the
/// run must wind down. Copyable so every worker carries the same
/// deadline without synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            budget,
        }
    }

    /// Whether the budget has been spent.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }

    /// Time left before expiry (zero once expired).
    #[must_use]
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }

    /// The total wall-clock budget this deadline was created with.
    #[must_use]
    pub fn budget(&self) -> Duration {
        self.budget
    }
}

/// How a poll-counting token trips (see [`CancelToken::after_polls`]).
#[derive(Debug)]
struct Trip {
    polls: AtomicU64,
    limit: u64,
}

/// A clonable cancellation flag. All clones observe the same flag;
/// tripping any of them stops every supervised run holding one.
///
/// The deterministic variant [`CancelToken::after_polls`] trips itself
/// after a fixed number of [`CancelToken::is_cancelled`] polls — the
/// interruption stress tests use it to fire cancellation at seeded
/// points mid-run without depending on wall-clock timing.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    trip: Option<Arc<Trip>>,
}

impl CancelToken {
    /// A fresh, untripped token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that trips itself on the `limit`-th poll. With `--jobs
    /// 1` the poll sequence is deterministic, so this cancels at a
    /// reproducible point mid-run.
    #[must_use]
    pub fn after_polls(limit: u64) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            trip: Some(Arc::new(Trip {
                polls: AtomicU64::new(0),
                limit,
            })),
        }
    }

    /// Trips the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the flag has been tripped (counts as one poll for
    /// [`CancelToken::after_polls`] tokens).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        if let Some(trip) = &self.trip {
            if trip.polls.fetch_add(1, Ordering::AcqRel) + 1 >= trip.limit {
                self.flag.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl Eq for CancelToken {}

/// Why a supervised run was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// A [`CancelToken`] was tripped.
    Cancelled,
    /// The run's [`Deadline`] expired.
    DeadlineExceeded,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => f.write_str("cancelled"),
            Interrupt::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

/// A deadline and/or cancel token bundled for polling. The default
/// supervisor is inert: [`Supervisor::interrupted`] never fires and
/// the engine skips the poll entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Supervisor {
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
}

impl Supervisor {
    /// The inert supervisor (no deadline, no cancellation).
    #[must_use]
    pub fn none() -> Self {
        Supervisor::default()
    }

    /// Adds a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The deadline, if one is set.
    #[must_use]
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// Whether polling can ever fire — lets hot loops skip the
    /// [`Supervisor::interrupted`] call when nothing is supervised.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Polls both signals: cancellation wins over the deadline, so a
    /// run that is both cancelled and past its deadline reports the
    /// explicit stop.
    #[must_use]
    pub fn interrupted(&self) -> Option<Interrupt> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(Interrupt::Cancelled);
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(Interrupt::DeadlineExceeded);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_supervisor_never_fires() {
        let sup = Supervisor::none();
        assert!(!sup.is_active());
        assert_eq!(sup.interrupted(), None);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        let sup = Supervisor::none().with_cancel(clone);
        assert_eq!(sup.interrupted(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn poll_counting_token_trips_at_its_limit() {
        let token = CancelToken::after_polls(3);
        assert!(!token.is_cancelled());
        assert!(!token.is_cancelled());
        assert!(token.is_cancelled());
        // …and stays tripped.
        assert!(token.is_cancelled());
    }

    #[test]
    fn expired_deadline_fires_the_supervisor() {
        let sup = Supervisor::none().with_deadline(Deadline::after(Duration::ZERO));
        assert!(sup.is_active());
        assert_eq!(sup.interrupted(), Some(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let deadline = Deadline::after(Duration::from_secs(3600));
        assert!(!deadline.expired());
        assert!(deadline.remaining() > Duration::from_secs(3000));
        let sup = Supervisor::none().with_deadline(deadline);
        assert_eq!(sup.interrupted(), None);
    }

    #[test]
    fn cancellation_outranks_the_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let sup = Supervisor::none()
            .with_deadline(Deadline::after(Duration::ZERO))
            .with_cancel(token);
        assert_eq!(sup.interrupted(), Some(Interrupt::Cancelled));
    }
}
