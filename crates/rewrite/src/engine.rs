//! The rewrite engine: innermost normalization with strict `error`,
//! boolean conditionals, contextual assumptions, and a case-splitting
//! equality prover.
//!
//! # The hash-consed hot path
//!
//! The public API speaks [`Term`] — an ordinary boxed tree — but the
//! evaluator itself runs on [`TermId`]s drawn from a [`TermStore`]'s
//! arena. Interning gives the hot loop three things the tree
//! representation cannot:
//!
//! * **O(1) equality** — hash-consing makes structural equality an id
//!   compare, so condition decisions, assumption lookups, branch
//!   merging, and nonlinear pattern occurrences cost a `u32` compare
//!   instead of a tree walk;
//! * **O(1) groundness and depth** — both are computed once per node at
//!   interning time and cached, so the instantiation shortcut and the
//!   depth bound read a field instead of traversing;
//! * **allocation-free sharing** — a rule's contractum reuses the ids of
//!   the matched subject fragments outright; no subtree is ever copied
//!   to be substituted.
//!
//! Every `Term`-level call ([`Rewriter::normalize`] and friends) builds a
//! fresh store and drops it when the run ends: ids never escape the run
//! (normal forms are converted back to [`Term`] at the boundary), so the
//! rewriter stays `Sync` without any locking on the evaluation path, and
//! observable behaviour — normal forms, step counts, traces, exhaustion
//! receipts — is byte-identical to the tree-walking evaluator it
//! replaced.
//!
//! # The session surface
//!
//! A [`Session`] owns the cross-check shared state: spec, compiled rules
//! and one [`TermStore`]. [`Rewriter::for_session`] builds a rewriter
//! that *borrows* it, and [`Rewriter::normalize_id`] accepts and returns
//! session [`TermId`]s. It locks the session store once and runs the
//! same evaluator on the session id in place, so callers can hold
//! interned handles end-to-end and only materialize trees when a report
//! needs one. Concurrent `normalize_id` calls on one session serialize
//! on that lock.

use std::borrow::Cow;

use adt_core::{
    ExhaustionCause, Fuel, FuelSpent, OpId, RuleSet, Session, SortId, Spec, Supervisor, Term,
    TermArena, TermId, TermNode, TermStore, VarId,
};

use crate::error::RewriteError;
use crate::trace::Trace;
use crate::Result;

/// The outcome of a successful normalization, with the number of rule
/// applications performed (built-in `if` reductions included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Normalization {
    /// The normal form.
    pub term: Term,
    /// How many reduction steps were taken.
    pub steps: u64,
}

/// The outcome of [`Rewriter::prove_equal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proof {
    /// The two terms were shown equal in every case of the analysis.
    Proved {
        /// Number of leaf cases closed (1 if no split was needed).
        cases: usize,
    },
    /// The prover got stuck: under the recorded assumptions the two normal
    /// forms differ syntactically. This refutes the equation when the
    /// normal forms are distinct constructor terms; otherwise it merely
    /// means the axioms (plus case analysis) could not join them.
    Undecided {
        /// The truth assignment to stuck conditions on the failing path
        /// (empty if no split happened).
        assumptions: Vec<(Term, bool)>,
        /// Normal form of the left term on that path.
        lhs_nf: Term,
        /// Normal form of the right term on that path.
        rhs_nf: Term,
    },
}

impl Proof {
    /// Whether the proof succeeded.
    pub fn is_proved(&self) -> bool {
        matches!(self, Proof::Proved { .. })
    }
}

/// Contextual truth assumptions about stuck boolean terms, used when
/// normalizing under a case analysis (`ISSAME?(id, id1) = true`, say).
///
/// Conditions are arena ids: within one run, hash-consing makes id
/// equality coincide with structural equality, so a lookup is a linear
/// scan of `u32` compares.
type Assumptions = Vec<(TermId, bool)>;

fn lookup(asms: &Assumptions, cond: TermId) -> Option<bool> {
    asms.iter().rev().find(|&&(t, _)| t == cond).map(|&(_, b)| b)
}

/// How often (in steps) the supervisor is polled. Checking every step
/// would put a clock read in the hot loop; every 1024th step bounds the
/// overshoot while keeping the common (unsupervised) path branch-only.
const DEADLINE_CHECK_INTERVAL: u64 = 1024;

pub(crate) struct EvalState {
    remaining: u64,
    pub(crate) steps: u64,
    depth: usize,
    max_depth: usize,
    /// The run's supervisor, polled every `DEADLINE_CHECK_INTERVAL` steps.
    supervisor: Supervisor,
    /// Cached `supervisor.is_active()` so the inert case costs one
    /// branch per poll window instead of two `Option` inspections.
    supervised: bool,
    pub(crate) trace: Option<Trace>,
}

impl EvalState {
    pub(crate) fn new(budget: &Fuel, supervisor: Supervisor, trace: Option<Trace>) -> Self {
        let supervised = supervisor.is_active();
        EvalState {
            remaining: budget.steps,
            steps: 0,
            depth: 0,
            max_depth: 0,
            supervisor,
            supervised,
            trace,
        }
    }

    fn spent(&self, cause: ExhaustionCause) -> FuelSpent {
        FuelSpent {
            steps: self.steps,
            depth: self.max_depth,
            cause,
        }
    }

    pub(crate) fn tick(&mut self, budget: &Fuel) -> Result<()> {
        if self.remaining == 0 {
            return Err(RewriteError::Exhausted {
                spent: self.spent(ExhaustionCause::Steps),
                budget: *budget,
            });
        }
        self.remaining -= 1;
        self.steps += 1;
        // Poll on the very first step as well: a short normalization must
        // still observe an already-expired deadline or cancellation.
        if self.supervised
            && (self.steps == 1 || self.steps.is_multiple_of(DEADLINE_CHECK_INTERVAL))
        {
            if let Some(kind) = self.supervisor.interrupted() {
                return Err(RewriteError::Interrupted {
                    kind,
                    steps: self.steps,
                });
            }
        }
        Ok(())
    }

    pub(crate) fn enter(&mut self, budget: &Fuel) -> Result<()> {
        self.depth += 1;
        if let Some(cap) = budget.max_depth {
            if self.depth > cap {
                // Report only levels actually entered: the receipt's
                // depth is the deepest admitted, i.e. the cap itself.
                return Err(RewriteError::Exhausted {
                    spent: self.spent(ExhaustionCause::Depth),
                    budget: *budget,
                });
            }
        }
        if self.depth > self.max_depth {
            self.max_depth = self.depth;
        }
        Ok(())
    }

    pub(crate) fn exit(&mut self) {
        self.depth -= 1;
    }

    fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    fn note(&mut self, rule: &str, redex: &Term, contractum: &Term) {
        if let Some(t) = &mut self.trace {
            t.record(rule, redex, contractum);
        }
    }
}

/// A term normalizer for one specification.
///
/// The strategy is leftmost-innermost (call-by-value): arguments are
/// normalized before rules are tried at an application, matching the
/// paper's evaluation reading of axiom sets. Four built-in behaviours are
/// layered on top of the user's rules:
///
/// * **strict `error`** — `f(…, error, …)` reduces to `error` of `f`'s
///   result sort, for *every* operation (paper, §3);
/// * **conditional reduction** — `if true/false/error then … else …`;
/// * **conditional lifting** — `if (if c then a else b) then x else y`
///   becomes `if c then (if a then x else y) else (if b then x else y)`
///   when the outer condition is stuck, which puts symbolic normal forms
///   into a canonical "condition tree" shape;
/// * **branch merging / eta** — `if c then x else x` reduces to `x`, and
///   `if c then true else false` to `c`.
///
/// Terms containing variables normalize symbolically: a conditional whose
/// condition cannot be decided is kept, its branches normalized under the
/// corresponding contextual assumption.
///
/// ```
/// use adt_core::{SpecBuilder, Term};
/// use adt_rewrite::Rewriter;
///
/// let mut b = SpecBuilder::new("Flip");
/// let s = b.sort("S");
/// let a = b.ctor("A", [], s);
/// let bb = b.ctor("B", [], s);
/// let flip = b.op("FLIP", [s], s);
/// b.axiom("f1", b.app(flip, [b.app(a, [])]), b.app(bb, []));
/// b.axiom("f2", b.app(flip, [b.app(bb, [])]), b.app(a, []));
/// let spec = b.build()?;
/// let rw = Rewriter::new(&spec);
/// let t = spec.sig().apply("FLIP", vec![spec.sig().apply("FLIP", vec![
///     spec.sig().apply("A", vec![])?])?])?;
/// assert_eq!(rw.normalize(&t)?, spec.sig().apply("A", vec![])?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Rewriter<'a> {
    spec: &'a Spec,
    /// Borrowed from the session by [`Rewriter::for_session`], owned
    /// otherwise.
    rules: Cow<'a, RuleSet>,
    budget: Fuel,
    /// Cooperative supervision (deadline/cancellation), polled by every
    /// normalization this rewriter runs. Inert by default.
    supervisor: Supervisor,
}

/// A rule whose sides are interned into the run's store, paired with its
/// position in the rewriter's [`RuleSet`] bucket for that head (trace
/// labels are read back through the index, so no strings are copied).
struct InternedRule {
    lhs: TermId,
    rhs: TermId,
    index: usize,
}

/// Per-normalization working state: the store all terms of this run
/// live in, plus the rules and booleans interned into it.
///
/// A fresh context is built for every [`Rewriter::run`] call, over a
/// fresh run-local store, so ids never leak between runs and the
/// rewriter stays `Sync` — the parallel checker shares one rewriter
/// across its workers — with zero locks on the evaluation path.
/// [`Rewriter::normalize_id`] builds its context over the locked session
/// store instead.
///
/// The store's normal-form table holds context-free evaluation results:
/// entries are recorded as subterms finish evaluating outside assumption
/// contexts and traces. This is what makes re-examining an
/// already-normalized subterm O(1): innermost rewriting otherwise
/// re-walks the whole normalized portion of the term after every step.
struct RunCx<'s> {
    store: &'s mut TermStore,
    /// The interned boolean constants: deciding a condition is an id
    /// compare against these.
    tt: TermId,
    ff: TermId,
    /// Rules compiled per head operation, indexed by `OpId::index` and
    /// populated lazily the first time that head is evaluated (most runs
    /// touch a handful of the specification's operations).
    rules: Vec<Option<Box<[InternedRule]>>>,
}

impl<'s> RunCx<'s> {
    fn new(spec: &Spec, store: &'s mut TermStore) -> Self {
        let arena = store.arena_mut();
        let tt = arena.intern(&spec.sig().tt());
        let ff = arena.intern(&spec.sig().ff());
        RunCx {
            store,
            tt,
            ff,
            rules: Vec::new(),
        }
    }

    fn arena(&self) -> &TermArena {
        self.store.arena()
    }

    fn arena_mut(&mut self) -> &mut TermArena {
        self.store.arena_mut()
    }
}

/// Matches an interned rule pattern against an interned subject.
///
/// Bindings accumulate in a vector rather than a map: axiom patterns
/// have a handful of variables, and a linear scan of `u32` pairs beats
/// hashing. A nonlinear occurrence checks id equality — O(1) under
/// hash-consing where the tree matcher re-walked the subject. Recursion
/// is bounded by the *pattern* (axiom-sized), never by the subject.
fn match_id(
    arena: &TermArena,
    pattern: TermId,
    subject: TermId,
    bindings: &mut Vec<(VarId, TermId)>,
) -> bool {
    if pattern == subject && arena.is_ground(pattern) {
        // Identical ids denote identical terms, and a ground pattern
        // binds nothing — nothing further to check.
        return true;
    }
    match (arena.node(pattern), arena.node(subject)) {
        (TermNode::Var(v), _) => match bindings.iter().find(|(bound_var, _)| bound_var == v) {
            Some(&(_, bound)) => bound == subject,
            None => {
                bindings.push((*v, subject));
                true
            }
        },
        (TermNode::Error(a), TermNode::Error(b)) => a == b,
        (TermNode::App(f, ps), TermNode::App(g, ss)) => {
            f == g
                && ps.len() == ss.len()
                && ps
                    .iter()
                    .zip(ss.iter())
                    .all(|(&p, &s)| match_id(arena, p, s, bindings))
        }
        (TermNode::Ite(pc, pt, pe), TermNode::Ite(sc, st, se)) => {
            match_id(arena, *pc, *sc, bindings)
                && match_id(arena, *pt, *st, bindings)
                && match_id(arena, *pe, *se, bindings)
        }
        _ => false,
    }
}

/// Builds a contractum: the rule's right-hand side with bound variables
/// replaced by the matched subject fragments.
///
/// Ground template subtrees are returned as-is — under hash-consing the
/// instantiation of a ground subtree *is* that subtree — so each step
/// costs O(axiom), never O(subject): the bound fragments are shared by
/// id, not copied. An unbound template variable instantiates to itself,
/// mirroring `Subst::apply`. Recursion is bounded by the template.
fn instantiate(arena: &mut TermArena, template: TermId, bindings: &[(VarId, TermId)]) -> TermId {
    if arena.is_ground(template) {
        return template;
    }
    match arena.node(template).clone() {
        // Errors are ground, so the shortcut above already returned.
        TermNode::Error(_) => template,
        TermNode::Var(v) => bindings
            .iter()
            .find(|&&(bound_var, _)| bound_var == v)
            .map_or(template, |&(_, bound)| bound),
        TermNode::App(op, args) => {
            let args = args
                .iter()
                .map(|&a| instantiate(arena, a, bindings))
                .collect();
            arena.app(op, args)
        }
        TermNode::Ite(c, t, e) => {
            let c = instantiate(arena, c, bindings);
            let t = instantiate(arena, t, bindings);
            let e = instantiate(arena, e, bindings);
            arena.ite(c, t, e)
        }
    }
}

/// Rebuilds an `if-then-else` over interned parts as a plain term, for
/// trace output only — never on the untraced path.
fn reify_ite(arena: &TermArena, cond: TermId, then_id: TermId, else_id: TermId) -> Term {
    Term::ite(
        arena.to_term(cond),
        arena.to_term(then_id),
        arena.to_term(else_id),
    )
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter whose rules are the specification's axioms.
    pub fn new(spec: &'a Spec) -> Self {
        Rewriter {
            spec,
            rules: Cow::Owned(RuleSet::from_spec(spec)),
            budget: Fuel::default(),
            supervisor: Supervisor::none(),
        }
    }

    /// Creates a rewriter with an explicit rule set (e.g. axioms plus
    /// induction hypotheses).
    pub fn with_rules(spec: &'a Spec, rules: RuleSet) -> Self {
        Rewriter {
            spec,
            rules: Cow::Owned(rules),
            budget: Fuel::default(),
            supervisor: Supervisor::none(),
        }
    }

    /// Creates a rewriter that borrows a [`Session`]'s world: its spec
    /// and its rule table, neither copied. This is the constructor that
    /// makes [`Rewriter::normalize_id`] eligible to evaluate in the
    /// session's store — the rules are the session's by construction.
    pub fn for_session(session: &'a Session) -> Self {
        Rewriter {
            spec: session.spec(),
            rules: Cow::Borrowed(session.rules()),
            budget: Fuel::default(),
            supervisor: Supervisor::none(),
        }
    }

    /// Replaces the step budget (number of reduction steps allowed per
    /// normalization), keeping any depth bound.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.budget.steps = fuel;
        self
    }

    /// Replaces the whole resource budget (steps and depth).
    #[must_use]
    pub fn with_budget(mut self, budget: Fuel) -> Self {
        self.budget = budget;
        self
    }

    /// The resource budget in effect for each normalization.
    pub fn budget(&self) -> Fuel {
        self.budget
    }

    /// Places this rewriter under a [`Supervisor`]: every normalization
    /// polls the deadline/cancel token on its first step and every 1024
    /// steps after, and fails with [`RewriteError::Interrupted`] once
    /// it fires. An inert supervisor (the default) costs one predicted
    /// branch per poll window.
    #[must_use]
    pub fn supervised(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// The supervisor in effect for each normalization.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The rule set in use.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The specification this rewriter executes.
    pub fn spec(&self) -> &Spec {
        self.spec
    }

    /// Normalizes a term.
    ///
    /// # Errors
    ///
    /// Returns [`RewriteError::Exhausted`] if no normal form is reached
    /// within the fuel budget (with a [`FuelSpent`] receipt saying which
    /// bound tripped), or [`RewriteError::IllSorted`] if strict error
    /// propagation needed the sort of an ill-sorted subterm.
    pub fn normalize(&self, term: &Term) -> Result<Term> {
        Ok(self.run(term, None, &[])?.0.term)
    }

    /// Normalizes a term, also reporting the number of steps taken.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn normalize_full(&self, term: &Term) -> Result<Normalization> {
        Ok(self.run(term, None, &[])?.0)
    }

    /// Normalizes a session-interned term, returning the session id of
    /// its normal form.
    ///
    /// Locks the session's [`TermStore`] once and evaluates `id` in it in
    /// place, with the same evaluator as [`Rewriter::normalize`]: no
    /// `Term` is built and nothing is re-interned. A root hit in the
    /// store's normal-form table returns at once and counts as an
    /// nf-cache hit; otherwise the normalization and its steps are folded
    /// into the session's counters. Concurrent calls on one session
    /// serialize on the lock.
    ///
    /// **Contract:** this rewriter's rules must equal the session's
    /// (guaranteed by [`Rewriter::for_session`]); otherwise the recorded
    /// normal forms would poison the session store for every other
    /// caller. Budgets may differ: entries are recorded only for
    /// sub-evaluations that finished, so they are true normal forms even
    /// when the enclosing run later exhausts or is interrupted.
    ///
    /// **Fuel caveat:** a table hit — at the root *or at any argument* —
    /// skips the steps the recorded evaluation once cost, so a caller
    /// relying on exhaustion at a *tiny* budget must not route through the
    /// session. The checkers therefore never call this.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from `session`.
    pub fn normalize_id(&self, session: &Session, id: TermId) -> Result<TermId> {
        let mut store = session.store();
        if let Some(nf) = store.cached_nf(id) {
            session.note_nf_hit();
            return Ok(nf);
        }
        let mut st = EvalState::new(&self.budget, self.supervisor.clone(), None);
        let mut cx = RunCx::new(self.spec, &mut store);
        let nf = self.eval(&mut cx, id, &mut st, &Vec::new())?;
        session.note_normalizations(1, st.steps);
        Ok(nf)
    }

    /// Normalizes a term, recording every step in a [`Trace`].
    ///
    /// This routes through the same run-local store hot path as
    /// [`Rewriter::normalize`] — terms are interned and rewritten by id,
    /// not tree-walked — so traced and untraced runs reach the same
    /// normal form by construction. What tracing changes is caching: a
    /// table hit would deliver a normal form *without* the derivation
    /// steps the trace exists to record, so traced runs skip the
    /// normal-form table and re-derive every reduction.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn normalize_traced(&self, term: &Term) -> Result<(Term, Trace)> {
        let (norm, trace) = self.run(term, Some(Trace::new()), &[])?;
        Ok((norm.term, trace.unwrap_or_else(Trace::new)))
    }

    /// Normalizes a term under contextual truth assumptions about stuck
    /// boolean terms.
    ///
    /// Assumptions are interned into the same run-local store as the
    /// subject term, and evaluation runs on the identical id-native hot
    /// path as [`Rewriter::normalize`]. Subterms evaluated under a
    /// non-empty assumption context are excluded from the normal-form
    /// table: a normal form that is only valid because
    /// `ISSAME?(id, id1) = true` was assumed must not be replayed in a
    /// context where it wasn't. The reference-engine counterpart is
    /// [`Rewriter::normalize_under_reference`].
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn normalize_under(&self, term: &Term, assumptions: &[(Term, bool)]) -> Result<Term> {
        Ok(self.run(term, None, assumptions)?.0.term)
    }

    /// Whether two terms have the same normal form.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn equal_nf(&self, a: &Term, b: &Term) -> Result<bool> {
        Ok(self.normalize(a)? == self.normalize(b)?)
    }

    /// Attempts to prove `a = b` by normalization plus case analysis on
    /// stuck boolean conditions (up to `max_splits` nested splits).
    ///
    /// This is the engine behind the representation-correctness proofs of
    /// §4: when normal forms still contain symbolic conditions such as
    /// `ISSAME?(id, id1)`, the prover considers both truth values of the
    /// first stuck condition and recursively closes each case.
    ///
    /// Every normalization inside the proof search runs on a fresh
    /// run-local store (see [`Rewriter::normalize_under`] for how
    /// assumption contexts interact with its normal-form table), so the
    /// proof a session-backed rewriter finds is identical to a plain
    /// one's: no state is carried between proofs.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn prove_equal(&self, a: &Term, b: &Term, max_splits: usize) -> Result<Proof> {
        self.prove_under(a, b, &mut Vec::new(), max_splits)
    }

    fn prove_under(
        &self,
        a: &Term,
        b: &Term,
        asms: &mut Vec<(Term, bool)>,
        splits_left: usize,
    ) -> Result<Proof> {
        let (na, _) = self.run(a, None, asms)?;
        let (nb, _) = self.run(b, None, asms)?;
        let na = na.term;
        let nb = nb.term;
        if na == nb {
            return Ok(Proof::Proved { cases: 1 });
        }
        if splits_left == 0 {
            return Ok(Proof::Undecided {
                assumptions: asms.clone(),
                lhs_nf: na,
                rhs_nf: nb,
            });
        }
        let cond = first_stuck_cond(&na)
            .or_else(|| first_stuck_cond(&nb))
            .cloned();
        let Some(cond) = cond else {
            return Ok(Proof::Undecided {
                assumptions: asms.clone(),
                lhs_nf: na,
                rhs_nf: nb,
            });
        };
        let mut cases = 0;
        for value in [true, false] {
            asms.push((cond.clone(), value));
            let sub = self.prove_under(&na, &nb, asms, splits_left - 1)?;
            asms.pop();
            match sub {
                Proof::Proved { cases: c } => cases += c,
                undecided @ Proof::Undecided { .. } => return Ok(undecided),
            }
        }
        Ok(Proof::Proved { cases })
    }

    fn run(
        &self,
        term: &Term,
        trace: Option<Trace>,
        asms: &[(Term, bool)],
    ) -> Result<(Normalization, Option<Trace>)> {
        let mut st = EvalState::new(&self.budget, self.supervisor.clone(), trace);
        if let Some(t) = &mut st.trace {
            t.set_initial(term);
        }
        let mut store = TermStore::new();
        let mut cx = RunCx::new(self.spec, &mut store);
        let root = cx.arena_mut().intern(term);
        let asms: Assumptions = asms
            .iter()
            .map(|(t, b)| (cx.arena_mut().intern(t), *b))
            .collect();
        let nf = self.eval(&mut cx, root, &mut st, &asms)?;
        Ok((
            Normalization {
                term: cx.arena().to_term(nf),
                steps: st.steps,
            },
            st.trace,
        ))
    }

    fn eval(
        &self,
        cx: &mut RunCx,
        id: TermId,
        st: &mut EvalState,
        asms: &Assumptions,
    ) -> Result<TermId> {
        st.enter(&self.budget)?;
        let result = self.eval_cached(cx, id, st, asms);
        st.exit();
        result
    }

    fn eval_cached(
        &self,
        cx: &mut RunCx,
        id: TermId,
        st: &mut EvalState,
        asms: &Assumptions,
    ) -> Result<TermId> {
        // Evaluation outside assumption contexts and traces is
        // context-free, so its results are stable for the store's whole
        // life: consult the normal-form table first (two array reads).
        // The table is what makes innermost rewriting near-linear here —
        // without it, every step re-walks the entire already-normalized
        // portion of the term looking for redexes that cannot exist.
        let cacheable = asms.is_empty() && !st.tracing();
        if cacheable {
            if let Some(nf) = cx.store.cached_nf(id) {
                return Ok(nf);
            }
        }
        let result = self.eval_loop(cx, id, st, asms)?;
        if cacheable {
            cx.store.record_nf(id, result);
            // A normal form evaluates to itself; recording that fact
            // spares the no-op walk when the result id resurfaces as an
            // argument elsewhere.
            cx.store.record_nf(result, result);
        }
        Ok(result)
    }

    fn eval_loop(
        &self,
        cx: &mut RunCx,
        id: TermId,
        st: &mut EvalState,
        asms: &Assumptions,
    ) -> Result<TermId> {
        let mut current = id;
        let mut bindings: Vec<(VarId, TermId)> = Vec::new();
        loop {
            match cx.arena().node(current) {
                TermNode::Var(_) | TermNode::Error(_) => return Ok(current),
                TermNode::Ite(c, t, e) => {
                    let (c, then_id, else_id) = (*c, *t, *e);
                    let cond = self.eval(cx, c, st, asms)?;
                    let decided = if cond == cx.tt {
                        Some(true)
                    } else if cond == cx.ff {
                        Some(false)
                    } else {
                        lookup(asms, cond)
                    };
                    if let Some(value) = decided {
                        st.tick(&self.budget)?;
                        if st.tracing() {
                            let redex = reify_ite(cx.arena(), cond, then_id, else_id);
                            let rule = if value { "if-true" } else { "if-false" };
                            let taken = cx.arena().to_term(if value { then_id } else { else_id });
                            st.note(rule, &redex, &taken);
                        }
                        current = if value { then_id } else { else_id };
                        continue;
                    }
                    if matches!(cx.arena().node(cond), TermNode::Error(_)) {
                        st.tick(&self.budget)?;
                        let sort = self.branch_sort(cx.arena(), then_id)?;
                        let result = cx.arena_mut().error(sort);
                        if st.tracing() {
                            let redex = reify_ite(cx.arena(), cond, then_id, else_id);
                            st.note("strict", &redex, &cx.arena().to_term(result));
                        }
                        return Ok(result);
                    }
                    // Stuck condition that is itself a conditional: lift it.
                    if let TermNode::Ite(c0, a, b) = cx.arena().node(cond) {
                        let (c0, a, b) = (*c0, *a, *b);
                        st.tick(&self.budget)?;
                        let then_inner = cx.arena_mut().ite(a, then_id, else_id);
                        let else_inner = cx.arena_mut().ite(b, then_id, else_id);
                        let lifted = cx.arena_mut().ite(c0, then_inner, else_inner);
                        if st.tracing() {
                            let redex = reify_ite(cx.arena(), cond, then_id, else_id);
                            st.note("if-lift", &redex, &cx.arena().to_term(lifted));
                        }
                        current = lifted;
                        continue;
                    }
                    // Atomic stuck condition: normalize the branches under
                    // the corresponding contextual assumption.
                    let mut then_asms = asms.clone();
                    then_asms.push((cond, true));
                    let t_nf = self.eval(cx, then_id, st, &then_asms)?;
                    let mut else_asms = asms.clone();
                    else_asms.push((cond, false));
                    let e_nf = self.eval(cx, else_id, st, &else_asms)?;
                    if t_nf == e_nf {
                        st.tick(&self.budget)?;
                        if st.tracing() {
                            let redex = reify_ite(cx.arena(), cond, t_nf, e_nf);
                            st.note("if-merge", &redex, &cx.arena().to_term(t_nf));
                        }
                        return Ok(t_nf);
                    }
                    if t_nf == cx.tt && e_nf == cx.ff {
                        st.tick(&self.budget)?;
                        if st.tracing() {
                            let redex = reify_ite(cx.arena(), cond, t_nf, e_nf);
                            st.note("if-eta", &redex, &cx.arena().to_term(cond));
                        }
                        return Ok(cond);
                    }
                    return Ok(cx.arena_mut().ite(cond, t_nf, e_nf));
                }
                TermNode::App(op, args) => {
                    let op = *op;
                    let args = args.to_vec();
                    let mut new_args = Vec::with_capacity(args.len());
                    for &a in &args {
                        new_args.push(self.eval(cx, a, st, asms)?);
                    }
                    // Strict error propagation: any operation applied to an
                    // argument list containing error is error (paper, §3).
                    if new_args
                        .iter()
                        .any(|&a| matches!(cx.arena().node(a), TermNode::Error(_)))
                    {
                        st.tick(&self.budget)?;
                        let result = cx.arena_mut().error(self.spec.sig().try_op(op)?.result());
                        if st.tracing() {
                            let redex = self.reify_app(cx.arena(), op, &new_args);
                            st.note("strict", &redex, &cx.arena().to_term(result));
                        }
                        return Ok(result);
                    }
                    // A stuck conditional in argument position blocks every
                    // rule (rules match constructor patterns), so lift it
                    // out: f(…, if c then x else y, …) becomes
                    // if c then f(…, x, …) else f(…, y, …). Sound for all
                    // values of c (true, false, and error, by strictness).
                    let stuck_arg = new_args.iter().enumerate().find_map(|(idx, &a)| {
                        match cx.arena().node(a) {
                            TermNode::Ite(c, t, e) => Some((idx, *c, *t, *e)),
                            _ => None,
                        }
                    });
                    if let Some((idx, c, t, e)) = stuck_arg {
                        st.tick(&self.budget)?;
                        let redex = if st.tracing() {
                            Some(self.reify_app(cx.arena(), op, &new_args))
                        } else {
                            None
                        };
                        let mut then_args = new_args.clone();
                        then_args[idx] = t;
                        let mut else_args = new_args;
                        else_args[idx] = e;
                        let then_app = cx.arena_mut().app(op, then_args);
                        let else_app = cx.arena_mut().app(op, else_args);
                        let lifted = cx.arena_mut().ite(c, then_app, else_app);
                        if let Some(redex) = redex {
                            st.note("arg-lift", &redex, &cx.arena().to_term(lifted));
                        }
                        current = lifted;
                        continue;
                    }
                    // If no argument changed, `current` is already the
                    // interned application — skip the dedup probe.
                    let subject = if new_args == args {
                        current
                    } else {
                        cx.arena_mut().app(op, new_args)
                    };
                    let op_index = op.index();
                    if cx.rules.len() <= op_index {
                        cx.rules.resize_with(op_index + 1, || None);
                    }
                    if cx.rules[op_index].is_none() {
                        let compiled: Box<[InternedRule]> = self
                            .rules
                            .for_head(op)
                            .iter()
                            .enumerate()
                            .map(|(index, rule)| InternedRule {
                                lhs: cx.arena_mut().intern(rule.lhs()),
                                rhs: cx.arena_mut().intern(rule.rhs()),
                                index,
                            })
                            .collect();
                        cx.rules[op_index] = Some(compiled);
                    }
                    // Split borrows: the compiled rules (shared) and the
                    // store (mutable) are disjoint fields of the context.
                    let RunCx { store, rules, .. } = cx;
                    let arena = store.arena_mut();
                    let mut fired = None;
                    if let Some(Some(compiled)) = rules.get(op_index) {
                        for rule in compiled.iter() {
                            bindings.clear();
                            if match_id(arena, rule.lhs, subject, &mut bindings) {
                                fired = Some(rule);
                                break;
                            }
                        }
                    }
                    match fired {
                        Some(rule) => {
                            st.tick(&self.budget)?;
                            let contractum = instantiate(arena, rule.rhs, &bindings);
                            if st.tracing() {
                                let label = self.rules.for_head(op)[rule.index].label();
                                let redex = arena.to_term(subject);
                                let contractum_term = arena.to_term(contractum);
                                st.note(label, &redex, &contractum_term);
                            }
                            current = contractum;
                        }
                        None => return Ok(subject),
                    }
                }
            }
        }
    }

    /// Rebuilds an application over interned arguments as a plain term,
    /// for trace output only.
    fn reify_app(&self, arena: &TermArena, op: OpId, args: &[TermId]) -> Term {
        Term::App(op, args.iter().map(|&a| arena.to_term(a)).collect())
    }

    /// The sort of the term `id` denotes, read off its head symbol
    /// (following `then`-branches through conditionals).
    ///
    /// Strict error propagation only needs the *sort* of the poisoned
    /// conditional; terms reaching the engine were already validated
    /// when built, so no well-sortedness re-check happens here — and
    /// unlike `Term::sort` this never recurses into arguments, so it is
    /// safe on terms of any size.
    fn branch_sort(&self, arena: &TermArena, mut id: TermId) -> Result<SortId> {
        let sig = self.spec.sig();
        loop {
            match arena.node(id) {
                TermNode::Var(v) => return Ok(sig.var(*v).sort()),
                TermNode::Error(s) => return Ok(*s),
                TermNode::App(op, _) => return Ok(sig.try_op(*op)?.result()),
                TermNode::Ite(_, t, _) => id = *t,
            }
        }
    }
}

/// Finds the first stuck boolean condition in a normalized term (the
/// condition of the outermost conditional, in pre-order).
fn first_stuck_cond(term: &Term) -> Option<&Term> {
    match term {
        Term::Ite(ite) => Some(&ite.cond),
        Term::App(_, args) => args.iter().find_map(first_stuck_cond),
        _ => None,
    }
}

/// Counts the conditional nodes remaining in a term — a quick measure of
/// "how symbolic" a normal form still is.
pub fn residual_conditionals(term: &Term) -> usize {
    match term {
        Term::Ite(ite) => {
            1 + residual_conditionals(&ite.cond)
                + residual_conditionals(&ite.then_branch)
                + residual_conditionals(&ite.else_branch)
        }
        Term::App(_, args) => args.iter().map(residual_conditionals).sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::{SpecBuilder, VarId};

    /// The full Queue specification of §3 (axioms 1–6), with Item
    /// instantiated by three constants so ground terms exist.
    fn queue_spec() -> Spec {
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        let new = b.ctor("NEW", [], queue);
        let add = b.ctor("ADD", [queue, item], queue);
        let front = b.op("FRONT", [queue], item);
        let remove = b.op("REMOVE", [queue], queue);
        let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
        b.ctor("A", [], item);
        b.ctor("B", [], item);
        b.ctor("C", [], item);
        let q = b.var("q", queue);
        let i = b.var("i", item);
        let qv = Term::Var(q);
        let iv = Term::Var(i);
        let tt = b.tt();
        let ff = b.ff();

        b.axiom("q1", b.app(is_empty, [b.app(new, [])]), tt);
        b.axiom(
            "q2",
            b.app(is_empty, [b.app(add, [qv.clone(), iv.clone()])]),
            ff,
        );
        b.axiom("q3", b.app(front, [b.app(new, [])]), Term::Error(item));
        b.axiom(
            "q4",
            b.app(front, [b.app(add, [qv.clone(), iv.clone()])]),
            Term::ite(
                b.app(is_empty, [qv.clone()]),
                iv.clone(),
                b.app(front, [qv.clone()]),
            ),
        );
        b.axiom("q5", b.app(remove, [b.app(new, [])]), Term::Error(queue));
        b.axiom(
            "q6",
            b.app(remove, [b.app(add, [qv.clone(), iv.clone()])]),
            Term::ite(
                b.app(is_empty, [qv.clone()]),
                b.app(new, []),
                b.app(add, [b.app(remove, [qv]), iv]),
            ),
        );
        b.build().unwrap()
    }

    fn q(spec: &Spec, name: &str, args: Vec<Term>) -> Term {
        spec.sig().apply(name, args).unwrap()
    }

    #[test]
    fn fifo_behaviour_is_derived() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        // FRONT(ADD(ADD(NEW, A), B)) = A — first in, first out.
        let new = q(&spec, "NEW", vec![]);
        let a = q(&spec, "A", vec![]);
        let b = q(&spec, "B", vec![]);
        let two = q(&spec, "ADD", vec![q(&spec, "ADD", vec![new, a.clone()]), b]);
        let front = q(&spec, "FRONT", vec![two.clone()]);
        assert_eq!(rw.normalize(&front).unwrap(), a);

        // REMOVE then FRONT yields B.
        let removed = q(&spec, "REMOVE", vec![two]);
        let front2 = q(&spec, "FRONT", vec![removed]);
        assert_eq!(rw.normalize(&front2).unwrap(), q(&spec, "B", vec![]));
    }

    #[test]
    fn boundary_conditions_yield_error() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let item = spec.sig().find_sort("Item").unwrap();
        let queue = spec.sig().find_sort("Queue").unwrap();
        let new = q(&spec, "NEW", vec![]);
        assert_eq!(
            rw.normalize(&q(&spec, "FRONT", vec![new.clone()])).unwrap(),
            Term::Error(item)
        );
        assert_eq!(
            rw.normalize(&q(&spec, "REMOVE", vec![new])).unwrap(),
            Term::Error(queue)
        );
    }

    #[test]
    fn errors_propagate_strictly() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let queue = spec.sig().find_sort("Queue").unwrap();
        let item = spec.sig().find_sort("Item").unwrap();
        // ADD(REMOVE(NEW), A) = error, and FRONT of that is error too.
        let bad = q(
            &spec,
            "ADD",
            vec![
                q(&spec, "REMOVE", vec![q(&spec, "NEW", vec![])]),
                q(&spec, "A", vec![]),
            ],
        );
        assert_eq!(rw.normalize(&bad).unwrap(), Term::Error(queue));
        let front = q(&spec, "FRONT", vec![bad]);
        assert_eq!(rw.normalize(&front).unwrap(), Term::Error(item));
    }

    #[test]
    fn error_in_condition_poisons_conditional() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let item = spec.sig().find_sort("Item").unwrap();
        let bool_sort = spec.sig().bool_sort();
        let t = Term::ite(
            Term::Error(bool_sort),
            q(&spec, "A", vec![]),
            q(&spec, "B", vec![]),
        );
        assert_eq!(rw.normalize(&t).unwrap(), Term::Error(item));
    }

    #[test]
    fn traces_record_the_derivation() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let new = q(&spec, "NEW", vec![]);
        let a = q(&spec, "A", vec![]);
        let b = q(&spec, "B", vec![]);
        let two = q(&spec, "ADD", vec![q(&spec, "ADD", vec![new, a.clone()]), b]);
        let front = q(&spec, "FRONT", vec![two]);
        let (nf, trace) = rw.normalize_traced(&front).unwrap();
        assert_eq!(nf, a);
        let used = trace.axioms_used();
        // q4 fires on the outer ADD, q2 decides the emptiness test, then q4
        // and q1 finish the inner queue.
        assert_eq!(used, vec!["q4", "q2", "q4", "q1"]);
        let rendered = trace.render(spec.sig()).to_string();
        assert!(rendered.contains("FRONT(ADD(ADD(NEW, A), B))"));
        assert!(rendered.contains("=[q4]=>"));
    }

    #[test]
    fn step_counts_are_reported() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let new = q(&spec, "NEW", vec![]);
        let norm = rw
            .normalize_full(&q(&spec, "IS_EMPTY?", vec![new]))
            .unwrap();
        assert_eq!(norm.term, spec.sig().tt());
        assert_eq!(norm.steps, 1);
    }

    #[test]
    fn symbolic_normal_forms_keep_stuck_conditions() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let qv = Term::Var(spec.sig().find_var("q").unwrap());
        let iv = Term::Var(spec.sig().find_var("i").unwrap());
        // FRONT(ADD(q, i)) normalizes to if IS_EMPTY?(q) then i else FRONT(q).
        let t = q(
            &spec,
            "FRONT",
            vec![q(&spec, "ADD", vec![qv.clone(), iv.clone()])],
        );
        let nf = rw.normalize(&t).unwrap();
        let expected = Term::ite(
            q(&spec, "IS_EMPTY?", vec![qv.clone()]),
            iv,
            q(&spec, "FRONT", vec![qv]),
        );
        assert_eq!(nf, expected);
        assert_eq!(residual_conditionals(&nf), 1);
    }

    #[test]
    fn assumptions_decide_stuck_conditions() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let qv = Term::Var(spec.sig().find_var("q").unwrap());
        let iv = Term::Var(spec.sig().find_var("i").unwrap());
        let t = q(
            &spec,
            "FRONT",
            vec![q(&spec, "ADD", vec![qv.clone(), iv.clone()])],
        );
        let cond = q(&spec, "IS_EMPTY?", vec![qv.clone()]);
        let under_true = rw.normalize_under(&t, &[(cond.clone(), true)]).unwrap();
        assert_eq!(under_true, iv);
        let under_false = rw.normalize_under(&t, &[(cond, false)]).unwrap();
        assert_eq!(under_false, q(&spec, "FRONT", vec![qv]));
    }

    #[test]
    fn branch_merge_and_eta_fire() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let qv = Term::Var(spec.sig().find_var("q").unwrap());
        let cond = q(&spec, "IS_EMPTY?", vec![qv.clone()]);
        let a = q(&spec, "A", vec![]);
        // if IS_EMPTY?(q) then A else A = A.
        let merged = Term::ite(cond.clone(), a.clone(), a.clone());
        assert_eq!(rw.normalize(&merged).unwrap(), a);
        // if IS_EMPTY?(q) then true else false = IS_EMPTY?(q).
        let eta = Term::ite(cond.clone(), spec.sig().tt(), spec.sig().ff());
        assert_eq!(rw.normalize(&eta).unwrap(), cond);
    }

    #[test]
    fn conditional_lifting_canonicalizes_nested_conditions() {
        // ite(ite(c, false, u), false, true) == ite(c, true, ite(u, false, true))
        // — the shape that arises in the Symboltable representation proof.
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let qv = Term::Var(spec.sig().find_var("q").unwrap());
        let new = q(&spec, "NEW", vec![]);
        let c = q(&spec, "IS_EMPTY?", vec![qv.clone()]);
        let u = q(
            &spec,
            "IS_EMPTY?",
            vec![q(&spec, "REMOVE", vec![qv.clone()])],
        );
        let tt = spec.sig().tt();
        let ff = spec.sig().ff();
        let lhs = Term::ite(
            Term::ite(c.clone(), ff.clone(), u.clone()),
            ff.clone(),
            tt.clone(),
        );
        let rhs = Term::ite(c, tt.clone(), Term::ite(u, ff, tt));
        assert_eq!(rw.normalize(&lhs).unwrap(), rw.normalize(&rhs).unwrap());
        let _ = new;
    }

    #[test]
    fn stuck_conditionals_lift_out_of_argument_positions() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let qv = Term::Var(spec.sig().find_var("q").unwrap());
        let iv = Term::Var(spec.sig().find_var("i").unwrap());
        let cond = q(&spec, "IS_EMPTY?", vec![qv.clone()]);
        let new = q(&spec, "NEW", vec![]);
        // FRONT(if IS_EMPTY?(q) then NEW else ADD(q, i))
        let t = q(
            &spec,
            "FRONT",
            vec![Term::ite(
                cond.clone(),
                new.clone(),
                q(&spec, "ADD", vec![qv.clone(), iv.clone()]),
            )],
        );
        let nf = rw.normalize(&t).unwrap();
        // Lifts to if IS_EMPTY?(q) then FRONT(NEW) else FRONT(ADD(q, i));
        // FRONT(NEW) = error, and the else branch reduces under the
        // contextual assumption IS_EMPTY?(q) = false to FRONT(ADD(q,i))'s
        // else arm, i.e. … = FRONT(q) — wait, with the assumption it picks
        // the *else* arm of axiom q4's conditional: FRONT(q).
        let item = spec.sig().find_sort("Item").unwrap();
        let expected = Term::ite(cond, Term::Error(item), q(&spec, "FRONT", vec![qv]));
        assert_eq!(nf, expected);
    }

    #[test]
    fn prove_equal_splits_on_stuck_conditions() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let qv = Term::Var(spec.sig().find_var("q").unwrap());
        let iv = Term::Var(spec.sig().find_var("i").unwrap());
        // FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q): trivially
        // provable (it *is* axiom q4), but route it through the prover.
        let lhs = q(
            &spec,
            "FRONT",
            vec![q(&spec, "ADD", vec![qv.clone(), iv.clone()])],
        );
        let rhs = Term::ite(
            q(&spec, "IS_EMPTY?", vec![qv.clone()]),
            iv,
            q(&spec, "FRONT", vec![qv]),
        );
        assert!(rw.prove_equal(&lhs, &rhs, 4).unwrap().is_proved());
    }

    #[test]
    fn prove_equal_reports_undecided_with_nfs() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let a = q(&spec, "A", vec![]);
        let b = q(&spec, "B", vec![]);
        match rw.prove_equal(&a, &b, 4).unwrap() {
            Proof::Undecided {
                assumptions,
                lhs_nf,
                rhs_nf,
            } => {
                assert!(assumptions.is_empty());
                assert_eq!(lhs_nf, a);
                assert_eq!(rhs_nf, b);
            }
            other => panic!("expected undecided, got {other:?}"),
        }
    }

    /// The circular specification F(x) = F(x): never reaches a normal form.
    fn loop_spec() -> Spec {
        let mut b = SpecBuilder::new("Loop");
        let s = b.sort("S");
        let _c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let x: VarId = b.var("x", s);
        b.axiom("loop", b.app(f, [Term::Var(x)]), b.app(f, [Term::Var(x)]));
        b.build().unwrap()
    }

    #[test]
    fn fuel_exhaustion_is_detected_at_exactly_the_budget() {
        let spec = loop_spec();
        let rw = Rewriter::new(&spec).with_fuel(100);
        let t = spec.sig().apply("F", vec![q(&spec, "C", vec![])]).unwrap();
        match rw.normalize(&t) {
            Err(RewriteError::Exhausted { spent, budget }) => {
                assert_eq!(spent.cause, adt_core::ExhaustionCause::Steps);
                assert_eq!(spent.steps, 100, "spent equals the budget exactly");
                assert_eq!(budget.steps, 100);
            }
            other => panic!("expected step exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn depth_bound_trips_on_deep_terms() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec).with_budget(Fuel::default().with_max_depth(4));
        // Nest ADDs deeper than the bound allows.
        let mut t = q(&spec, "NEW", vec![]);
        for _ in 0..8 {
            t = q(&spec, "ADD", vec![t, q(&spec, "A", vec![])]);
        }
        let front = q(&spec, "FRONT", vec![t]);
        match rw.normalize(&front) {
            Err(RewriteError::Exhausted { spent, .. }) => {
                assert_eq!(spent.cause, adt_core::ExhaustionCause::Depth);
                assert_eq!(spent.depth, 4, "receipt records the deepest level seen");
            }
            other => panic!("expected depth exhaustion, got {other:?}"),
        }
        // A shallow term still normalizes under the same budget.
        let shallow = q(&spec, "IS_EMPTY?", vec![q(&spec, "NEW", vec![])]);
        assert_eq!(rw.normalize(&shallow).unwrap(), spec.sig().tt());
    }

    #[test]
    fn deadline_trips_on_divergence() {
        use adt_core::{Deadline, Interrupt};
        use std::time::Duration;
        let spec = loop_spec();
        // An already-expired deadline with ample steps: the divergent
        // term must stop at the first supervisor poll.
        let rw = Rewriter::new(&spec)
            .supervised(Supervisor::none().with_deadline(Deadline::after(Duration::ZERO)));
        let t = spec.sig().apply("F", vec![q(&spec, "C", vec![])]).unwrap();
        match rw.normalize(&t) {
            Err(RewriteError::Interrupted {
                kind: Interrupt::DeadlineExceeded,
                steps,
            }) => assert_eq!(steps, 1, "stopped at the first poll"),
            other => panic!("expected a deadline interrupt, got {other:?}"),
        }
    }

    #[test]
    fn rules_fire_in_declaration_order() {
        // Two overlapping rules for the same head: the first declared wins.
        let mut b = SpecBuilder::new("Order");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s], s);
        let x = b.var("x", s);
        b.axiom("first", b.app(f, [Term::Var(x)]), b.app(c, []));
        b.axiom("second", b.app(f, [b.app(c, [])]), b.app(d, []));
        let spec = b.build().unwrap();
        let rw = Rewriter::new(&spec);
        let t = spec.sig().apply("F", vec![Term::App(c, vec![])]).unwrap();
        let (nf, trace) = rw.normalize_traced(&t).unwrap();
        assert_eq!(nf, Term::App(c, vec![]));
        assert_eq!(trace.axioms_used(), vec!["first"]);
    }

    #[test]
    fn deep_ground_terms_exhaust_depth_instead_of_overflowing() {
        // Before `Fuel::default` carried a depth bound, normalizing a
        // deep enough ground term recursed off the native stack and
        // aborted the whole process. It must yield an `Exhausted`
        // verdict instead. The spawned thread's large stack is for the
        // *construction and drop* of the 100k-deep input `Term` (whose
        // drop glue is recursive), not for the evaluator: the evaluator
        // stops at DEFAULT_MAX_DEPTH levels.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let spec = queue_spec();
                let rw = Rewriter::new(&spec);
                let add = spec.sig().find_op("ADD").unwrap();
                let a = q(&spec, "A", vec![]);
                // Raw `Term::App` construction: `Signature::apply` would
                // sort-check every level recursively.
                let mut t = q(&spec, "NEW", vec![]);
                for _ in 0..100_000 {
                    t = Term::App(add, vec![t, a.clone()]);
                }
                let front = spec.sig().find_op("FRONT").unwrap();
                match rw.normalize(&Term::App(front, vec![t])) {
                    Err(RewriteError::Exhausted { spent, budget }) => {
                        assert_eq!(spent.cause, adt_core::ExhaustionCause::Depth);
                        assert_eq!(spent.depth, adt_core::DEFAULT_MAX_DEPTH);
                        assert_eq!(budget.max_depth, Some(adt_core::DEFAULT_MAX_DEPTH));
                    }
                    Err(other) => panic!("expected depth exhaustion, got {other:?}"),
                    Ok(_) => panic!("expected depth exhaustion, got a normal form"),
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn session_normalize_id_agrees_with_tree_normalize() {
        let spec = queue_spec();
        let session = Session::new(spec.clone());
        let plain = Rewriter::new(&spec);
        let qv = Term::Var(spec.sig().find_var("q").unwrap());
        let mut ground = q(&spec, "NEW", vec![]);
        for name in ["A", "B", "C"] {
            ground = q(&spec, "ADD", vec![ground, q(&spec, name, vec![])]);
        }
        let samples = vec![
            q(&spec, "FRONT", vec![ground.clone()]),
            q(&spec, "REMOVE", vec![ground.clone()]),
            q(&spec, "IS_EMPTY?", vec![q(&spec, "NEW", vec![])]),
            // Symbolic terms flow through the same path.
            q(&spec, "FRONT", vec![qv]),
        ];
        let rw = Rewriter::for_session(&session);
        for t in &samples {
            let id = session.intern(t);
            let nf_id = rw.normalize_id(&session, id).unwrap();
            assert_eq!(session.term(nf_id), plain.normalize(t).unwrap(), "{t:?}");
        }
        // Every sample either evaluates or, having been reached as a
        // subterm of an earlier sample, hits the store's table at its root.
        let stats = session.stats();
        assert_eq!(
            stats.normalizations + stats.nf_cache_hits,
            samples.len() as u64
        );
        assert!(stats.rewrite_steps > 0);
    }

    #[test]
    fn session_nf_cache_short_circuits_repeat_queries() {
        let spec = queue_spec();
        let session = Session::new(spec.clone());
        let rw = Rewriter::for_session(&session);
        let mut ground = q(&spec, "NEW", vec![]);
        for name in ["A", "B", "C", "A"] {
            ground = q(&spec, "ADD", vec![ground, q(&spec, name, vec![])]);
        }
        let front = q(&spec, "FRONT", vec![ground]);
        let id = session.intern(&front);
        let first = rw.normalize_id(&session, id).unwrap();
        let before = session.stats();
        let second = rw.normalize_id(&session, id).unwrap();
        assert_eq!(first, second);
        let after = session.stats();
        assert_eq!(after.nf_cache_hits, before.nf_cache_hits + 1);
        assert_eq!(
            after.normalizations, before.normalizations,
            "a cache hit runs no evaluation"
        );
        // A normal form is its own normal form, without evaluation.
        assert_eq!(rw.normalize_id(&session, first).unwrap(), first);
    }

    #[test]
    fn session_nf_cache_is_shared_across_for_session_rewriters() {
        let spec = queue_spec();
        let session = Session::new(spec.clone());
        let mut ground = q(&spec, "NEW", vec![]);
        for name in ["A", "B", "C", "A", "B"] {
            ground = q(&spec, "ADD", vec![ground, q(&spec, name, vec![])]);
        }
        let front = q(&spec, "FRONT", vec![ground]);
        let id = session.intern(&front);
        // Warm the session store through one borrowed rewriter…
        let warm = Rewriter::for_session(&session);
        let want = warm.normalize_id(&session, id).unwrap();
        let before = session.stats();
        // …then a *fresh* borrowed rewriter finds the recorded normal
        // form by id, without evaluating.
        let fresh = Rewriter::for_session(&session);
        assert_eq!(fresh.normalize_id(&session, id).unwrap(), want);
        let after = session.stats();
        assert_eq!(after.nf_cache_hits, before.nf_cache_hits + 1);
        assert_eq!(after.normalizations, before.normalizations);
        // Tree normalization keeps no state between runs: it pays the
        // same steps every time.
        let first = fresh.normalize_full(&front).unwrap();
        let second = fresh.normalize_full(&front).unwrap();
        assert_eq!(session.term(want), first.term);
        assert!(first.steps > 0);
        assert_eq!(first.steps, second.steps);
    }

    #[test]
    fn equal_nf_convenience() {
        let spec = queue_spec();
        let rw = Rewriter::new(&spec);
        let new = q(&spec, "NEW", vec![]);
        let a = q(&spec, "A", vec![]);
        // REMOVE(ADD(NEW, A)) == NEW
        let lhs = q(&spec, "REMOVE", vec![q(&spec, "ADD", vec![new.clone(), a])]);
        assert!(rw.equal_nf(&lhs, &new).unwrap());
        let b_ = q(&spec, "B", vec![]);
        assert!(!rw.equal_nf(&b_, &new).unwrap());
    }
}
