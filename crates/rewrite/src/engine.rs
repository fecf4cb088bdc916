//! The rewrite engine: innermost normalization with strict `error`,
//! boolean conditionals, contextual assumptions, and a case-splitting
//! equality prover.
//!
//! # The hash-consed hot path
//!
//! The public API speaks [`Term`] — an ordinary boxed tree — but the
//! evaluator itself runs on [`TermId`]s drawn from a [`TermStore`]'s
//! arena. Interning gives the hot loop two things the tree
//! representation cannot:
//!
//! * **O(1) equality** — hash-consing makes structural equality an id
//!   compare, so assumption lookups, branch merging, and nonlinear
//!   pattern occurrences cost a `u32` compare instead of a tree walk;
//! * **allocation-free sharing** — a rule's contractum reuses the ids of
//!   the matched subject fragments outright; no subtree is ever copied
//!   to be substituted.
//!
//! The rules themselves are never interned: each axiom's left-hand side
//! is matched as written against the interned subject, and its
//! right-hand side is instantiated straight into the store, as the
//! paper's symbolic interpretation reads the axioms as the program.
//!
//! Every `Term`-level call ([`Rewriter::normalize`] and friends) runs
//! in its thread's *cold store*, one [`TermStore`] per thread that
//! [`with_cold_store`] empties before each run and then reuses, so a run
//! allocates only once its thread has seen a larger one. Ids never escape
//! the run (normal forms are converted back to [`Term`] at the
//! boundary), so the rewriter stays `Sync` without any locking on the
//! evaluation path, and observable behaviour — normal forms, step counts,
//! traces, exhaustion receipts — is byte-identical to the tree-walking
//! evaluator it replaced and does not depend on what the thread ran
//! before. Emptying the store costs time in proportion to the capacity
//! its largest run left behind, not to the run at hand.
//!
//! A caller that holds a store works on ids throughout:
//! [`Rewriter::one_step_reducts`] lists a term's one-step reducts in it,
//! and [`Rewriter::normalize_in`] normalizes each in place. The latter
//! forgets the store's normal-form table first, so every such
//! normalization runs cold and reports what [`Rewriter::normalize_full`]
//! would, steps and exhaustion receipts included, however often the
//! store is reused. [`Rewriter::prove_equal`] works the same way: it
//! interns both sides once in the cold store and runs its whole case
//! split on ids there, each normalization cold.
//!
//! # The session surface
//!
//! A [`Session`] owns the cross-check shared state: spec, rule table
//! and one [`TermStore`]. [`Rewriter::for_session`] builds a rewriter
//! that *borrows* it, and [`Rewriter::normalize_id`] accepts and returns
//! session [`TermId`]s. It locks the session store once and runs the
//! same evaluator on the session id in place, so callers can hold
//! interned handles end-to-end and only materialize trees when a report
//! needs one. Concurrent `normalize_id` calls on one session serialize
//! on that lock.

use std::borrow::Cow;
use std::cell::RefCell;

use adt_core::{
    ExhaustionCause, Fuel, FuelSpent, OpId, RuleSet, Session, Spec, Supervisor, Term, TermArena,
    TermId, TermNode, TermStore, VarId,
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
    asms.iter()
        .rev()
        .find(|&&(t, _)| t == cond)
        .map(|&(_, b)| b)
}

/// How often (in steps) the supervisor is polled. Checking every step
/// would put a clock read in the hot loop; every 1024th step bounds the
/// overshoot while keeping the common (unsupervised) path branch-only.
const DEADLINE_CHECK_INTERVAL: u64 = 1024;

thread_local! {
    /// The thread's cold store (see the module docs). Only
    /// [`with_cold_store`] reaches it.
    static COLD_STORE: RefCell<TermStore> = RefCell::new(TermStore::new());
}

/// Runs `f` on this thread's cold store, emptied first: the store every
/// `Term`-level normalization and proof of a [`Rewriter`] runs in.
///
/// Emptying keeps the allocations, so a thread stops allocating once it
/// has seen its largest run, and nothing `f` finds was left by earlier
/// work on the thread, even work that panicked or was interrupted
/// mid-run. Ids `f` obtains are invalid once it returns. Normalize ids
/// in the store with [`Rewriter::normalize_in`], which keeps each
/// normalization cold.
///
/// # Panics
///
/// Panics if called again while `f` runs, directly or through a
/// `Term`-level method of [`Rewriter`].
pub fn with_cold_store<R>(f: impl FnOnce(&mut TermStore) -> R) -> R {
    COLD_STORE.with_borrow_mut(|store| {
        store.clear();
        f(store)
    })
}

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

/// Whether `id` is the constant `op` (`true` or `false`, say).
fn is_constant(arena: &TermArena, id: TermId, op: OpId) -> bool {
    matches!(arena.node(id), TermNode::App(f, _) if *f == op)
}

/// Matches a rule's left-hand side, as written, against an interned
/// subject.
///
/// Bindings accumulate in a vector rather than a map: axiom patterns
/// have a handful of variables, and a linear scan of `u32` pairs beats
/// hashing. A nonlinear occurrence checks id equality — O(1) under
/// hash-consing where the tree matcher re-walked the subject. Recursion
/// is bounded by the *pattern* (axiom-sized), never by the subject.
fn match_term(
    arena: &TermArena,
    pattern: &Term,
    subject: TermId,
    bindings: &mut Vec<(VarId, TermId)>,
) -> bool {
    match (pattern, arena.node(subject)) {
        (Term::Var(v), _) => match bindings.iter().find(|(bound_var, _)| bound_var == v) {
            Some(&(_, bound)) => bound == subject,
            None => {
                bindings.push((*v, subject));
                true
            }
        },
        (Term::Error(a), TermNode::Error(b)) => a == b,
        (Term::App(f, ps), TermNode::App(g, ss)) => {
            f == g
                && ps.len() == ss.len()
                && ps
                    .iter()
                    .zip(ss.iter())
                    .all(|(p, &s)| match_term(arena, p, s, bindings))
        }
        (Term::Ite(p), TermNode::Ite(sc, st, se)) => {
            match_term(arena, &p.cond, *sc, bindings)
                && match_term(arena, &p.then_branch, *st, bindings)
                && match_term(arena, &p.else_branch, *se, bindings)
        }
        _ => false,
    }
}

/// Builds a contractum: interns a rule's right-hand side with bound
/// variables replaced by the matched subject fragments.
///
/// The bound fragments are shared by id, not copied, so each step costs
/// O(axiom), never O(subject). An unbound template variable (as in an
/// induction hypothesis's right-hand side) instantiates to itself,
/// mirroring `Subst::apply`. Recursion is bounded by the template.
fn instantiate(arena: &mut TermArena, template: &Term, bindings: &[(VarId, TermId)]) -> TermId {
    match template {
        Term::Error(s) => arena.error(*s),
        Term::Var(v) => bindings
            .iter()
            .find(|(bound_var, _)| bound_var == v)
            .map_or_else(|| arena.var(*v), |&(_, bound)| bound),
        Term::App(op, args) => {
            let args: Vec<TermId> = args
                .iter()
                .map(|a| instantiate(arena, a, bindings))
                .collect();
            arena.app(*op, &args)
        }
        Term::Ite(ite) => {
            let c = instantiate(arena, &ite.cond, bindings);
            let t = instantiate(arena, &ite.then_branch, bindings);
            let e = instantiate(arena, &ite.else_branch, bindings);
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
    /// Only a rewriter built by [`Rewriter::for_session`] on `session`
    /// may evaluate here: a rewriter with other rules would record its
    /// normal forms in the session store, where every other caller would
    /// read them as the session's. Budgets may differ: entries are
    /// recorded only for sub-evaluations that finished, so they are true
    /// normal forms even when the enclosing run later exhausts or is
    /// interrupted.
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
    /// Panics if this rewriter does not borrow `session`'s rules (it was
    /// not built by [`Rewriter::for_session`] on `session`), or if `id`
    /// did not come from `session`.
    pub fn normalize_id(&self, session: &Session, id: TermId) -> Result<TermId> {
        assert!(
            matches!(&self.rules, Cow::Borrowed(rules) if std::ptr::eq(*rules, session.rules())),
            "normalize_id needs a rewriter built by Rewriter::for_session on this session"
        );
        let mut store = session.store();
        if let Some(nf) = store.cached_nf(id) {
            session.note_nf_hit();
            return Ok(nf);
        }
        let mut st = EvalState::new(&self.budget, self.supervisor.clone(), None);
        let nf = self.eval(&mut store, id, &mut st, &Vec::new())?;
        session.note_normalizations(1, st.steps);
        Ok(nf)
    }

    /// Normalizes `id` in a caller-owned store and returns its normal form
    /// with the number of steps taken.
    ///
    /// The store's normal-form table is forgotten first, so the
    /// normalization runs cold: the normal form, the step count and any
    /// exhaustion receipt are those [`Rewriter::normalize_full`] reports
    /// for the term `id` denotes, whatever the store held before. The
    /// terms stay, so a store can be reused without reallocating.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from `store`.
    pub fn normalize_in(&self, store: &mut TermStore, id: TermId) -> Result<(TermId, u64)> {
        self.eval_cold(store, id, &Vec::new())
    }

    /// Normalizes `id` under `asms` with the store's normal-form table
    /// forgotten first: the cold run [`Rewriter::normalize_in`] and every
    /// normalization of [`Rewriter::prove_equal`] make.
    fn eval_cold(
        &self,
        store: &mut TermStore,
        id: TermId,
        asms: &Assumptions,
    ) -> Result<(TermId, u64)> {
        store.forget_nfs();
        let mut st = EvalState::new(&self.budget, self.supervisor.clone(), None);
        let nf = self.eval(store, id, &mut st, asms)?;
        Ok((nf, st.steps))
    }

    /// Every one-step reduct of `root`: for each position in pre-order,
    /// and at it each rule of the head's bucket in order, the term with
    /// that rule's contractum in place of the matching subterm. The
    /// reducts are interned into `arena`; a term with no redex has none.
    ///
    /// Matching and instantiation are the evaluator's own, so a reduct is
    /// the id of the term the tree-level rewrite (match the left-hand
    /// side, apply the substitution, replace at the position) builds.
    ///
    /// # Panics
    ///
    /// Panics if `root` did not come from `arena`.
    pub fn one_step_reducts(&self, arena: &mut TermArena, root: TermId) -> Vec<TermId> {
        let mut reducts = Vec::new();
        let mut bindings: Vec<(VarId, TermId)> = Vec::new();
        let mut args: Vec<TermId> = Vec::new();
        // A parent and the index of one of its children.
        type Edge = (TermId, usize);
        // The visited node's ancestors, root first, each with the index
        // of the child the path descends into.
        let mut path: Vec<Edge> = Vec::new();
        // Nodes still to visit: each with the length of its parent's
        // path and its edge below that parent.
        let mut todo: Vec<(TermId, usize, Option<Edge>)> = vec![(root, 0, None)];
        while let Some((node, depth, edge)) = todo.pop() {
            path.truncate(depth);
            path.extend(edge);
            if let &TermNode::App(op, _) = arena.node(node) {
                for rule in self.rules.for_head(op) {
                    bindings.clear();
                    if !match_term(arena, rule.lhs(), node, &mut bindings) {
                        continue;
                    }
                    let mut rewritten = instantiate(arena, rule.rhs(), &bindings);
                    for &(parent, i) in path.iter().rev() {
                        rewritten = match arena.node(parent) {
                            TermNode::App(op, xs) => {
                                let op = *op;
                                args.clear();
                                args.extend_from_slice(xs);
                                args[i] = rewritten;
                                arena.app(op, &args)
                            }
                            &TermNode::Ite(c, t, e) => match i {
                                0 => arena.ite(rewritten, t, e),
                                1 => arena.ite(c, rewritten, e),
                                _ => arena.ite(c, t, rewritten),
                            },
                            TermNode::Var(_) | TermNode::Error(_) => {
                                unreachable!("leaves have no children")
                            }
                        };
                    }
                    reducts.push(rewritten);
                }
            }
            let depth = path.len();
            match arena.node(node) {
                TermNode::App(_, xs) => todo.extend(
                    xs.iter()
                        .enumerate()
                        .rev()
                        .map(|(i, &x)| (x, depth, Some((node, i)))),
                ),
                &TermNode::Ite(c, t, e) => {
                    todo.extend([(e, 2), (t, 1), (c, 0)].map(|(x, i)| (x, depth, Some((node, i)))))
                }
                TermNode::Var(_) | TermNode::Error(_) => {}
            }
        }
        reducts
    }

    /// Normalizes a term, recording every step in a [`Trace`].
    ///
    /// This routes through the same cold-store hot path as
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
    /// Assumptions are interned into the thread's cold store with the
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

    /// Attempts to prove `a = b` by normalization plus case analysis on
    /// stuck boolean conditions (up to `max_splits` nested splits).
    ///
    /// This is the engine behind the representation-correctness proofs of
    /// §4: when normal forms still contain symbolic conditions such as
    /// `ISSAME?(id, id1)`, the prover considers both truth values of the
    /// first stuck condition and recursively closes each case.
    ///
    /// Both terms are interned once into the thread's cold store (see
    /// [`with_cold_store`]), and the whole case split runs on ids there.
    /// Each normalization forgets the store's normal-form table first
    /// (see [`Rewriter::normalize_under`] for how assumption contexts
    /// interact with it), so it takes the steps and exhaustion receipts
    /// of a fresh run, and the proof a session-backed rewriter finds is
    /// identical to a plain one's. `Term`s are built only for
    /// [`Proof::Undecided`].
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn prove_equal(&self, a: &Term, b: &Term, max_splits: usize) -> Result<Proof> {
        with_cold_store(|store| {
            let (a, b) = (store.arena_mut().intern(a), store.arena_mut().intern(b));
            Ok(self.prove_in(store, a, b, &mut Vec::new(), max_splits)?.0)
        })
    }

    /// [`Rewriter::prove_equal`], also returning `a`'s normal form
    /// outside any case split: a joinable critical pair's normal form,
    /// read off the proof.
    pub(crate) fn prove_with_left_nf(
        &self,
        a: &Term,
        b: &Term,
        max_splits: usize,
    ) -> Result<(Proof, Term)> {
        with_cold_store(|store| {
            let (a, b) = (store.arena_mut().intern(a), store.arena_mut().intern(b));
            let (proof, na) = self.prove_in(store, a, b, &mut Vec::new(), max_splits)?;
            Ok((proof, store.arena().to_term(na)))
        })
    }

    /// Normalizes `a` and `b` cold under `asms` and, while their normal
    /// forms differ and splits are left, closes both cases of the first
    /// stuck condition. Returns the proof with `a`'s normal form under
    /// `asms`.
    fn prove_in(
        &self,
        store: &mut TermStore,
        a: TermId,
        b: TermId,
        asms: &mut Assumptions,
        splits_left: usize,
    ) -> Result<(Proof, TermId)> {
        let (na, _) = self.eval_cold(store, a, asms)?;
        let (nb, _) = self.eval_cold(store, b, asms)?;
        if na == nb {
            return Ok((Proof::Proved { cases: 1 }, na));
        }
        let arena = store.arena();
        let cond = (splits_left > 0)
            .then(|| first_stuck_cond(arena, na).or_else(|| first_stuck_cond(arena, nb)))
            .flatten();
        let Some(cond) = cond else {
            let undecided = Proof::Undecided {
                assumptions: asms.iter().map(|&(c, v)| (arena.to_term(c), v)).collect(),
                lhs_nf: arena.to_term(na),
                rhs_nf: arena.to_term(nb),
            };
            return Ok((undecided, na));
        };
        let mut cases = 0;
        for value in [true, false] {
            asms.push((cond, value));
            let (sub, _) = self.prove_in(store, na, nb, asms, splits_left - 1)?;
            asms.pop();
            match sub {
                Proof::Proved { cases: c } => cases += c,
                undecided @ Proof::Undecided { .. } => return Ok((undecided, na)),
            }
        }
        Ok((Proof::Proved { cases }, na))
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
        with_cold_store(move |store| {
            let root = store.arena_mut().intern(term);
            let asms: Assumptions = asms
                .iter()
                .map(|(t, b)| (store.arena_mut().intern(t), *b))
                .collect();
            let nf = self.eval(store, root, &mut st, &asms)?;
            Ok((
                Normalization {
                    term: store.arena().to_term(nf),
                    steps: st.steps,
                },
                st.trace,
            ))
        })
    }

    fn eval(
        &self,
        store: &mut TermStore,
        id: TermId,
        st: &mut EvalState,
        asms: &Assumptions,
    ) -> Result<TermId> {
        st.enter(&self.budget)?;
        let result = self.eval_cached(store, id, st, asms);
        st.exit();
        result
    }

    fn eval_cached(
        &self,
        store: &mut TermStore,
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
            if let Some(nf) = store.cached_nf(id) {
                return Ok(nf);
            }
        }
        let result = self.eval_loop(store, id, st, asms)?;
        if cacheable {
            store.record_nf(id, result);
            // A normal form evaluates to itself; recording that fact
            // spares the no-op walk when the result id resurfaces as an
            // argument elsewhere.
            store.record_nf(result, result);
        }
        Ok(result)
    }

    fn eval_loop(
        &self,
        store: &mut TermStore,
        id: TermId,
        st: &mut EvalState,
        asms: &Assumptions,
    ) -> Result<TermId> {
        let sig = self.spec.sig();
        let mut current = id;
        let mut bindings: Vec<(VarId, TermId)> = Vec::new();
        loop {
            match store.arena().node(current) {
                TermNode::Var(_) | TermNode::Error(_) => return Ok(current),
                TermNode::Ite(c, t, e) => {
                    let (c, then_id, else_id) = (*c, *t, *e);
                    let cond = self.eval(store, c, st, asms)?;
                    let decided = if is_constant(store.arena(), cond, sig.true_op()) {
                        Some(true)
                    } else if is_constant(store.arena(), cond, sig.false_op()) {
                        Some(false)
                    } else {
                        lookup(asms, cond)
                    };
                    if let Some(value) = decided {
                        st.tick(&self.budget)?;
                        if st.tracing() {
                            let redex = reify_ite(store.arena(), cond, then_id, else_id);
                            let rule = if value { "if-true" } else { "if-false" };
                            let taken =
                                store.arena().to_term(if value { then_id } else { else_id });
                            st.note(rule, &redex, &taken);
                        }
                        current = if value { then_id } else { else_id };
                        continue;
                    }
                    if matches!(store.arena().node(cond), TermNode::Error(_)) {
                        st.tick(&self.budget)?;
                        let sort = store.arena().sort_of(self.spec.sig(), then_id)?;
                        let result = store.arena_mut().error(sort);
                        if st.tracing() {
                            let redex = reify_ite(store.arena(), cond, then_id, else_id);
                            st.note("strict", &redex, &store.arena().to_term(result));
                        }
                        return Ok(result);
                    }
                    // Stuck condition that is itself a conditional: lift it.
                    if let TermNode::Ite(c0, a, b) = store.arena().node(cond) {
                        let (c0, a, b) = (*c0, *a, *b);
                        st.tick(&self.budget)?;
                        let then_inner = store.arena_mut().ite(a, then_id, else_id);
                        let else_inner = store.arena_mut().ite(b, then_id, else_id);
                        let lifted = store.arena_mut().ite(c0, then_inner, else_inner);
                        if st.tracing() {
                            let redex = reify_ite(store.arena(), cond, then_id, else_id);
                            st.note("if-lift", &redex, &store.arena().to_term(lifted));
                        }
                        current = lifted;
                        continue;
                    }
                    // Atomic stuck condition: normalize the branches under
                    // the corresponding contextual assumption.
                    let mut then_asms = asms.clone();
                    then_asms.push((cond, true));
                    let t_nf = self.eval(store, then_id, st, &then_asms)?;
                    let mut else_asms = asms.clone();
                    else_asms.push((cond, false));
                    let e_nf = self.eval(store, else_id, st, &else_asms)?;
                    if t_nf == e_nf {
                        st.tick(&self.budget)?;
                        if st.tracing() {
                            let redex = reify_ite(store.arena(), cond, t_nf, e_nf);
                            st.note("if-merge", &redex, &store.arena().to_term(t_nf));
                        }
                        return Ok(t_nf);
                    }
                    if is_constant(store.arena(), t_nf, sig.true_op())
                        && is_constant(store.arena(), e_nf, sig.false_op())
                    {
                        st.tick(&self.budget)?;
                        if st.tracing() {
                            let redex = reify_ite(store.arena(), cond, t_nf, e_nf);
                            st.note("if-eta", &redex, &store.arena().to_term(cond));
                        }
                        return Ok(cond);
                    }
                    return Ok(store.arena_mut().ite(cond, t_nf, e_nf));
                }
                TermNode::App(op, args) => {
                    let op = *op;
                    let mut new_args = args.to_vec();
                    let mut changed = false;
                    for a in &mut new_args {
                        let nf = self.eval(store, *a, st, asms)?;
                        changed |= nf != *a;
                        *a = nf;
                    }
                    // Strict error propagation: any operation applied to an
                    // argument list containing error is error (paper, §3).
                    if new_args
                        .iter()
                        .any(|&a| matches!(store.arena().node(a), TermNode::Error(_)))
                    {
                        st.tick(&self.budget)?;
                        let result = store
                            .arena_mut()
                            .error(self.spec.sig().try_op(op)?.result());
                        if st.tracing() {
                            let redex = self.reify_app(store.arena(), op, &new_args);
                            st.note("strict", &redex, &store.arena().to_term(result));
                        }
                        return Ok(result);
                    }
                    // A stuck conditional in argument position blocks every
                    // rule (rules match constructor patterns), so lift it
                    // out: f(…, if c then x else y, …) becomes
                    // if c then f(…, x, …) else f(…, y, …). Sound for all
                    // values of c (true, false, and error, by strictness).
                    let stuck_arg = new_args.iter().enumerate().find_map(|(idx, &a)| {
                        match store.arena().node(a) {
                            TermNode::Ite(c, t, e) => Some((idx, *c, *t, *e)),
                            _ => None,
                        }
                    });
                    if let Some((idx, c, t, e)) = stuck_arg {
                        st.tick(&self.budget)?;
                        let redex = if st.tracing() {
                            Some(self.reify_app(store.arena(), op, &new_args))
                        } else {
                            None
                        };
                        let mut then_args = new_args.clone();
                        then_args[idx] = t;
                        let mut else_args = new_args;
                        else_args[idx] = e;
                        let then_app = store.arena_mut().app(op, &then_args);
                        let else_app = store.arena_mut().app(op, &else_args);
                        let lifted = store.arena_mut().ite(c, then_app, else_app);
                        if let Some(redex) = redex {
                            st.note("arg-lift", &redex, &store.arena().to_term(lifted));
                        }
                        current = lifted;
                        continue;
                    }
                    // If no argument changed, `current` is already the
                    // interned application — skip the dedup probe.
                    let subject = if !changed {
                        current
                    } else {
                        store.arena_mut().app(op, &new_args)
                    };
                    let fired = self.rules.for_head(op).iter().find(|rule| {
                        bindings.clear();
                        match_term(store.arena(), rule.lhs(), subject, &mut bindings)
                    });
                    let Some(rule) = fired else {
                        return Ok(subject);
                    };
                    st.tick(&self.budget)?;
                    let contractum = instantiate(store.arena_mut(), rule.rhs(), &bindings);
                    if st.tracing() {
                        let redex = store.arena().to_term(subject);
                        let contractum_term = store.arena().to_term(contractum);
                        st.note(rule.label(), &redex, &contractum_term);
                    }
                    current = contractum;
                }
            }
        }
    }

    /// Rebuilds an application over interned arguments as a plain term,
    /// for trace output only.
    fn reify_app(&self, arena: &TermArena, op: OpId, args: &[TermId]) -> Term {
        Term::App(op, args.iter().map(|&a| arena.to_term(a)).collect())
    }
}

/// Finds the first stuck boolean condition in a normalized term (the
/// condition of the outermost conditional, in pre-order).
fn first_stuck_cond(arena: &TermArena, id: TermId) -> Option<TermId> {
    match arena.node(id) {
        &TermNode::Ite(cond, _, _) => Some(cond),
        TermNode::App(_, args) => args.iter().find_map(|&a| first_stuck_cond(arena, a)),
        TermNode::Var(_) | TermNode::Error(_) => None,
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
    fn rule_sides_never_enter_the_session_store() {
        let spec = queue_spec();
        let session = Session::new(spec.clone());
        let added = q(
            &spec,
            "ADD",
            vec![q(&spec, "NEW", vec![]), q(&spec, "A", vec![])],
        );
        let id = session.intern(&q(&spec, "IS_EMPTY?", vec![added]));
        let nf = Rewriter::for_session(&session)
            .normalize_id(&session, id)
            .unwrap();
        assert_eq!(session.term(nf), spec.sig().ff());
        // The subject's four nodes and q2's contractum `false`: neither
        // IS_EMPTY? rule, nor the variables of q2, was interned.
        assert_eq!(session.stats().interned_terms, 5);
    }

    /// `F(x, x) = C` is non-linear, `G(x) = D` makes arguments equal only
    /// once they are normalized, and `H` has no axiom of its own.
    fn nonlinear_spec() -> Spec {
        let mut b = SpecBuilder::new("Nonlinear");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s, s], s);
        let g = b.op("G", [s], s);
        b.op("H", [s], s);
        let x = Term::Var(b.var("x", s));
        b.var("y", s);
        b.axiom("same", b.app(f, [x.clone(), x.clone()]), b.app(c, []));
        b.axiom("g", b.app(g, [x]), b.app(d, []));
        b.build().unwrap()
    }

    /// Normalizes `t` on the cold path (plain and traced) and by id in
    /// `store`, checks each against the reference engine, and returns
    /// the normal form.
    fn agree_with_reference(rw: &Rewriter, store: &mut TermStore, t: &Term) -> Term {
        let reference = rw.normalize_reference(t).unwrap();
        let cold = rw.normalize_full(t).unwrap();
        assert_eq!(cold.term, reference.term, "{t:?}");
        assert!(cold.steps <= reference.steps, "{t:?}");
        assert_eq!(rw.normalize_traced(t).unwrap().0, reference.term, "{t:?}");
        let id = store.arena_mut().intern(t);
        let (nf, steps) = rw.normalize_in(store, id).unwrap();
        assert_eq!(store.arena().to_term(nf), reference.term, "{t:?}");
        assert_eq!(steps, cold.steps, "{t:?}");
        reference.term
    }

    #[test]
    fn nonlinear_left_sides_fire_only_on_equal_arguments() {
        let spec = nonlinear_spec();
        let session = Session::new(spec.clone());
        let rw = Rewriter::for_session(&session);
        let mut store = TermStore::new();
        let (c, d) = (q(&spec, "C", vec![]), q(&spec, "D", vec![]));
        let x = Term::Var(spec.sig().find_var("x").unwrap());
        let y = Term::Var(spec.sig().find_var("y").unwrap());
        let f = |a: &Term, b: &Term| q(&spec, "F", vec![a.clone(), b.clone()]);
        let g_c = q(&spec, "G", vec![c.clone()]);
        for (t, want) in [
            (f(&c, &c), c.clone()),
            (f(&c, &d), f(&c, &d)),
            (f(&g_c, &d), c.clone()),
            (f(&g_c, &q(&spec, "G", vec![d.clone()])), c.clone()),
            (f(&x, &x), c.clone()),
            (f(&x, &y), f(&x, &y)),
        ] {
            assert_eq!(agree_with_reference(&rw, &mut store, &t), want, "{t:?}");
            let nf = rw.normalize_id(&session, session.intern(&t)).unwrap();
            assert_eq!(session.term(nf), want, "{t:?}");
        }
    }

    #[test]
    fn right_side_variables_absent_on_the_left_instantiate_to_themselves() {
        let spec = nonlinear_spec();
        let x = Term::Var(spec.sig().find_var("x").unwrap());
        let y = Term::Var(spec.sig().find_var("y").unwrap());
        let f = |a: &Term, b: &Term| q(&spec, "F", vec![a.clone(), b.clone()]);
        let h = |a: &Term| q(&spec, "H", vec![a.clone()]);
        // Shaped like an induction hypothesis: `y` occurs only on the right.
        let mut rules = RuleSet::from_spec(&spec);
        rules.add(adt_core::Axiom::new("IH", h(&x), f(&x, &y)));
        let rw = Rewriter::with_rules(&spec, rules);
        let mut store = TermStore::new();
        let (c, d) = (q(&spec, "C", vec![]), q(&spec, "D", vec![]));
        for (t, want) in [
            (h(&c), f(&c, &y)),
            (h(&q(&spec, "G", vec![c.clone()])), f(&d, &y)),
            // x := y makes the contractum F(y, y), which `same` rewrites.
            (h(&y), c.clone()),
        ] {
            assert_eq!(agree_with_reference(&rw, &mut store, &t), want, "{t:?}");
        }
    }

    #[test]
    #[should_panic(expected = "Rewriter::for_session")]
    fn normalize_id_rejects_a_rewriter_with_its_own_rules() {
        let spec = queue_spec();
        let session = Session::new(spec.clone());
        let id = session.intern(&q(&spec, "IS_EMPTY?", vec![q(&spec, "NEW", vec![])]));
        let _ = Rewriter::new(&spec).normalize_id(&session, id);
    }
}
