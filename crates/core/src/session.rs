//! One interned workspace from DSL to CLI: [`Session`], the id-keyed
//! normal-form cache it owns, and the [`SessionStats`] observability
//! choke point.
//!
//! The pipeline used to re-create its world on every call: each
//! completeness item, consistency probe, and verification pass built its
//! own rewriter, re-compiled the axioms into rules, and re-interned terms
//! into a throwaway arena. A [`Session`] owns the state worth sharing
//! once — the [`Spec`] (and so the [`Signature`]), the compiled
//! [`RuleSet`], a long-lived hash-consing [`TermArena`], and a
//! session-level normal-form cache — and every layer borrows it instead
//! of rebuilding it.
//!
//! # Id-boundary rules
//!
//! [`TermId`]s handed out by [`Session::intern`] are *session-local*: they
//! index the session arena and are meaningless anywhere else. The
//! evaluation hot path still runs on its own run-local arena (keeping it
//! lock-free); session ids cross into an engine only at the API boundary,
//! where the term is materialized under a read lock, and normal forms
//! cross back by being interned under a write lock. Materializing a
//! [`Term`] from an id is always allowed (it is how anything escapes the
//! session); storing a foreign arena's ids in the session — or session
//! ids in any artifact that outlives the session — never is.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use crate::arena::{TermArena, TermId};
use crate::rules::RuleSet;
use crate::signature::Signature;
use crate::spec::Spec;
use crate::term::Term;

/// A snapshot of a session's observability counters.
///
/// Everything here is *telemetry*: two runs of the same checks produce
/// identical reports but different stats (nf-cache hits depend on what
/// ran before). Report comparisons must never include these figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Distinct terms interned into the session arena.
    pub interned_terms: usize,
    /// Approximate bytes held by the session arena.
    pub arena_bytes: usize,
    /// Always zero: kept for readers of the former cross-run memo's
    /// counters, which no longer exists.
    pub memo_hits: u64,
    /// Always zero, like [`SessionStats::memo_hits`].
    pub memo_misses: u64,
    /// Session-level normal-form cache hits (id-keyed; the cheapest path).
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

/// One long-lived engine workspace: the specification, its compiled
/// rules, a shared hash-consing term arena, and a session-level
/// normal-form cache, plus the counters behind [`SessionStats`].
///
/// A session is `Sync`: the arena sits behind an `RwLock` that is taken
/// only at API boundaries (interning in, materializing out), the
/// normal-form cache behind a `Mutex`, and the counters are atomics —
/// the evaluation hot path itself never touches any session lock
/// (engines run on their own run-local arenas).
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
    arena: RwLock<TermArena>,
    /// Session-id → session-id normal forms, for terms normalized through
    /// the session API. Sound because entries are only recorded by
    /// engines running the session's own rule set.
    nf_cache: Mutex<HashMap<TermId, TermId>>,
    nf_hits: AtomicU64,
    normalizations: AtomicU64,
    rewrite_steps: AtomicU64,
}

impl Session {
    /// Builds a session for `spec`, compiling its axioms once.
    pub fn new(spec: Spec) -> Self {
        let rules = RuleSet::from_spec(&spec);
        Session {
            spec,
            rules,
            arena: RwLock::new(TermArena::new()),
            nf_cache: Mutex::new(HashMap::new()),
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

    /// The compiled rule set (the specification's axioms).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Interns a term into the session arena (write lock; boundary only).
    pub fn intern(&self, term: &Term) -> TermId {
        self.arena
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .intern(term)
    }

    /// Materializes the term a session id denotes (read lock).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this session.
    pub fn term(&self, id: TermId) -> Term {
        self.arena
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .to_term(id)
    }

    /// Whether the denoted term is structurally equal to `term`, without
    /// materializing (read lock).
    pub fn term_eq(&self, id: TermId, term: &Term) -> bool {
        self.arena
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .term_eq(id, term)
    }

    /// The cached normal form of a session id, if one was recorded.
    pub fn cached_nf(&self, id: TermId) -> Option<TermId> {
        let found = self
            .nf_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .copied();
        if found.is_some() {
            self.nf_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records `id → nf` in the session normal-form cache. Only engines
    /// running the session's own rule set may call this; a normal form is
    /// its own normal form, so `nf → nf` is recorded too.
    pub fn record_nf(&self, id: TermId, nf: TermId) {
        let mut guard = self
            .nf_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.insert(id, nf);
        guard.insert(nf, nf);
    }

    /// Folds `count` normalizations and the rewrite steps they took into
    /// the session counters.
    pub fn note_normalizations(&self, count: u64, steps: u64) {
        self.normalizations.fetch_add(count, Ordering::Relaxed);
        self.rewrite_steps.fetch_add(steps, Ordering::Relaxed);
    }

    /// A snapshot of the session's counters.
    pub fn stats(&self) -> SessionStats {
        let arena = self.arena.read().unwrap_or_else(PoisonError::into_inner);
        SessionStats {
            interned_terms: arena.len(),
            arena_bytes: arena.approx_bytes(),
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
    fn session_owns_compiled_rules_and_an_arena() {
        let session = Session::new(tiny_spec());
        assert_eq!(session.rules().len(), 2);
        let zero = session.sig().apply("ZERO", vec![]).unwrap();
        let id = session.intern(&zero);
        assert!(session.term_eq(id, &zero));
        assert_eq!(session.term(id), zero);
        let stats = session.stats();
        assert_eq!(stats.interned_terms, 1);
        assert!(stats.arena_bytes > 0);
    }

    #[test]
    fn nf_cache_round_trips_and_counts_hits() {
        let session = Session::new(tiny_spec());
        let zero = session.sig().apply("ZERO", vec![]).unwrap();
        let t = session.sig().apply("IS_ZERO?", vec![zero.clone()]).unwrap();
        let id = session.intern(&t);
        let nf = session.intern(&session.sig().tt());
        assert_eq!(session.cached_nf(id), None);
        session.record_nf(id, nf);
        assert_eq!(session.cached_nf(id), Some(nf));
        // A normal form is its own normal form.
        assert_eq!(session.cached_nf(nf), Some(nf));
        assert_eq!(session.stats().nf_cache_hits, 2);
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
        assert!(text.contains("1 normalization(s), 7 rewrite step(s)"), "{text}");
    }
}
