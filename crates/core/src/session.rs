//! One interned workspace from DSL to CLI: [`Session`], the one
//! [`TermStore`] it owns, and the [`SessionStats`] observability choke
//! point.
//!
//! The pipeline used to re-create its world on every call: each
//! completeness item, consistency probe, and verification pass built its
//! own rewriter, re-compiled the axioms into rules, and re-interned terms
//! into a throwaway arena. A [`Session`] owns the state worth sharing
//! once — the [`Spec`] (and so the [`Signature`]), its axioms indexed
//! by head operation (the [`RuleSet`]), and one long-lived [`TermStore`] (a hash-consing arena
//! plus its normal-form table) — and every layer borrows it instead of
//! rebuilding it.
//!
//! # Id-boundary rules
//!
//! [`TermId`]s handed out by [`Session::intern`] are *session-local*: they
//! index the session store and are meaningless anywhere else. A
//! session-id normalization locks the store once and evaluates the id in
//! place: its intermediate terms and normal form are interned into the
//! session arena and its finished sub-evaluations are recorded in the
//! session's normal-form table, with no `Term` conversion on the way in
//! or out. Materializing a [`Term`] from an id is always allowed (it is
//! how anything escapes the session); storing a foreign arena's ids in
//! the session — or session ids in any artifact that outlives the
//! session — never is.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::arena::{TermId, TermStore};
use crate::ids::OpId;
use crate::rules::RuleSet;
use crate::signature::Signature;
use crate::spec::Spec;
use crate::term::Term;
use crate::Result;

/// A snapshot of a session's observability counters.
///
/// Everything here is *telemetry*: two runs of the same checks produce
/// identical reports but different stats (nf-cache hits depend on what
/// ran before). Report comparisons must never include these figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Distinct terms interned into the session arena.
    pub interned_terms: usize,
    /// Approximate bytes held by the session store (arena and
    /// normal-form table).
    pub arena_bytes: usize,
    /// Always zero: kept for readers of the former cross-run memo's
    /// counters, which no longer exists.
    pub memo_hits: u64,
    /// Always zero, like [`SessionStats::memo_hits`].
    pub memo_misses: u64,
    /// Session-id normalizations answered from the store's normal-form
    /// table at their root (no evaluation at all).
    pub nf_cache_hits: u64,
    /// Normalizations routed through the session.
    pub normalizations: u64,
    /// Rewrite steps performed by those normalizations.
    pub rewrite_steps: u64,
}

impl SessionStats {
    /// Renders the stats in the `adt check --stats` format.
    pub fn render(&self) -> String {
        let mut out = format!(
            "stats: session arena {} term(s), ~{} byte(s)\n",
            self.interned_terms, self.arena_bytes
        );
        out.push_str(&format!(
            "stats: session {} normalization(s), {} rewrite step(s), nf-cache {} hit(s)\n",
            self.normalizations, self.rewrite_steps, self.nf_cache_hits
        ));
        out
    }
}

/// One long-lived engine workspace: the specification, its rule table,
/// and one [`TermStore`], plus the counters behind [`SessionStats`].
///
/// A session is `Sync`: the store sits behind a `Mutex` and the counters
/// are atomics. [`Session::intern`], [`Session::term`] and
/// [`Session::stats`] lock the store briefly; a session-id normalization
/// holds the lock for its whole evaluation, so concurrent normalizations
/// on one session serialize.
///
/// ```
/// use adt_core::{Session, SpecBuilder, Term};
///
/// let mut b = SpecBuilder::new("Tiny");
/// let s = b.sort("S");
/// let c = b.ctor("C", [], s);
/// b.op("F", [s], s);
/// let spec = b.build()?;
///
/// let session = Session::new(spec);
/// let t = session.sig().apply("F", vec![session.sig().apply("C", vec![])?])?;
/// let id = session.intern(&t);
/// assert_eq!(session.intern(&t), id, "equal terms intern to the same id");
/// assert_eq!(session.term(id), t);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Session {
    spec: Spec,
    rules: RuleSet,
    /// The session's terms and their recorded normal forms. Sound to
    /// share because only engines running the session's own rule set
    /// evaluate in it.
    store: Mutex<TermStore>,
    nf_hits: AtomicU64,
    normalizations: AtomicU64,
    rewrite_steps: AtomicU64,
}

impl Session {
    /// Builds a session for `spec`, indexing its axioms by head once.
    pub fn new(spec: Spec) -> Self {
        let rules = RuleSet::from_spec(&spec);
        Session {
            spec,
            rules,
            store: Mutex::new(TermStore::new()),
            nf_hits: AtomicU64::new(0),
            normalizations: AtomicU64::new(0),
            rewrite_steps: AtomicU64::new(0),
        }
    }

    /// The specification this session serves.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The specification's signature.
    pub fn sig(&self) -> &Signature {
        self.spec.sig()
    }

    /// The rule table: the specification's axioms, indexed by head
    /// operation. Engines match them as written; nothing is compiled.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Locks the session's store. Engines evaluate session ids in it in
    /// place; only an engine running [`Session::rules`] may record normal
    /// forms into it.
    ///
    /// A poisoned lock is recovered: a panic mid-evaluation leaves the
    /// store valid, since nodes are appended whole and table entries are
    /// recorded only for finished sub-evaluations.
    pub fn store(&self) -> MutexGuard<'_, TermStore> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns a term into the session store.
    pub fn intern(&self, term: &Term) -> TermId {
        self.store().arena_mut().intern(term)
    }

    /// Interns `op(args…)` over session ids: hash-consed, O(arity).
    ///
    /// # Errors
    ///
    /// The arity and sort errors [`Signature::apply`] gives.
    ///
    /// # Panics
    ///
    /// If `op` or an argument is not from this session.
    pub fn app(&self, op: OpId, args: &[TermId]) -> Result<TermId> {
        let sig = self.sig();
        let mut store = self.store();
        let arena = store.arena();
        sig.check_app(
            op,
            args.iter().map(|&a| {
                Ok(arena
                    .sort_of(sig, a)
                    .expect("session terms are built over the session's signature"))
            }),
        )?;
        Ok(store.arena_mut().app(op, args))
    }

    /// Materializes the term a session id denotes.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this session.
    pub fn term(&self, id: TermId) -> Term {
        self.store().arena().to_term(id)
    }

    /// Counts one session-id normalization answered straight from the
    /// normal-form table at its root.
    pub fn note_nf_hit(&self) {
        self.nf_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds `count` normalizations and the rewrite steps they took into
    /// the session counters.
    pub fn note_normalizations(&self, count: u64, steps: u64) {
        self.normalizations.fetch_add(count, Ordering::Relaxed);
        self.rewrite_steps.fetch_add(steps, Ordering::Relaxed);
    }

    /// A snapshot of the session's counters.
    pub fn stats(&self) -> SessionStats {
        let store = self.store();
        SessionStats {
            interned_terms: store.arena().len(),
            arena_bytes: store.approx_bytes(),
            memo_hits: 0,
            memo_misses: 0,
            nf_cache_hits: self.nf_hits.load(Ordering::Relaxed),
            normalizations: self.normalizations.load(Ordering::Relaxed),
            rewrite_steps: self.rewrite_steps.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpecBuilder;

    fn tiny_spec() -> Spec {
        let mut b = SpecBuilder::new("Tiny");
        let s = b.sort("S");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let x = b.var("x", s);
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [Term::Var(x)])]), ff);
        b.build().unwrap()
    }

    #[test]
    fn session_owns_compiled_rules_and_a_store() {
        let session = Session::new(tiny_spec());
        assert_eq!(session.rules().len(), 2);
        assert_eq!(
            session.stats().arena_bytes,
            0,
            "nothing is interned up front"
        );
        let zero = session.sig().apply("ZERO", vec![]).unwrap();
        let id = session.intern(&zero);
        assert_eq!(session.term(id), zero);
        let stats = session.stats();
        assert_eq!(stats.interned_terms, 1);
        assert!(stats.arena_bytes > 0);
    }

    #[test]
    fn stats_render_mentions_arena_and_counters() {
        let session = Session::new(tiny_spec());
        let zero = session.sig().apply("ZERO", vec![]).unwrap();
        session.intern(&zero);
        session.note_normalizations(1, 7);
        let text = session.stats().render();
        assert!(text.contains("session arena 1 term(s)"), "{text}");
        assert!(!text.contains("memo"), "{text}");
        assert!(
            text.contains("1 normalization(s), 7 rewrite step(s)"),
            "{text}"
        );
    }
}
