//! Consistency checking.
//!
//! "If any two of these [statements] are contradictory, the axiomatization
//! is inconsistent." (paper, §3.) Operationally: the axioms must never
//! rewrite one ground term to two distinguishable values (`true` and
//! `false`, two different constructor terms, `error` and a non-error).
//!
//! Two complementary analyses are used:
//!
//! 1. **Critical-pair analysis** (via [`adt_rewrite::superpositions`] and
//!    [`adt_rewrite::classify_superposition`]): every overlap of two
//!    left-hand sides, enumerated in axiom declaration order, must join.
//!    A diverged pair with two distinguishable normal forms is a proof of
//!    inconsistency.
//! 2. **Randomized ground probing**: sample ground terms, enumerate every
//!    one-step reduct (any rule at any position), normalize each, and
//!    compare. This catches contradictions that only manifest on
//!    particular value combinations.

use std::cell::RefCell;
use std::collections::HashSet;

use adt_core::{
    display, DetRng, ExhaustionCause, FuelSpent, Interrupt, OpId, Session, Signature, SortId, Spec,
    Term, TermId, TermStore,
};
use adt_rewrite::{classify_superposition, superpositions, PairStatus, RewriteError, Rewriter};

use crate::config::CheckConfig;
use crate::fault::{PAIRS, PROBES};
use crate::parallel::{run_supervised, CheckFailure, CheckStats, Supervised};

/// Evidence of an inconsistency: one term, two distinguishable values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contradiction {
    /// The term that reduces both ways.
    pub peak: Term,
    /// First normal form.
    pub left_nf: Term,
    /// Second normal form.
    pub right_nf: Term,
    /// Where the evidence came from (`"critical-pair"` or `"ground-probe"`).
    pub source: &'static str,
}

/// Overall verdict of a consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyVerdict {
    /// All critical pairs join and no probe diverged: no inconsistency is
    /// derivable by the analyses performed.
    Consistent,
    /// A contradiction was exhibited.
    Inconsistent,
    /// No contradiction was found, but some critical pairs or probes ran
    /// out of fuel before reaching a normal form: the analyses terminated
    /// with a *partial* verdict instead of hanging on a (possibly
    /// divergent) axiom set.
    Exhausted,
    /// No contradiction was found, but the run's supervisor (cancellation
    /// or wall-clock deadline) stopped some items before they produced a
    /// verdict. Like [`ConsistencyVerdict::Exhausted`], a partial result —
    /// the specification was not proved wrong.
    Interrupted,
    /// No contradiction was found, but some critical pairs neither joined
    /// nor produced distinguishable values (e.g. symbolic divergence), so
    /// consistency could not be confirmed.
    Unknown,
}

/// A ground probe whose normalization ran out of fuel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustedProbe {
    /// The probed term.
    pub term: Term,
    /// The fuel receipt from the first exhausted normalization.
    pub spent: FuelSpent,
}

/// Configuration of the randomized ground probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeConfig {
    /// Number of random ground terms to sample.
    pub samples: usize,
    /// Maximum constructor depth of sampled terms.
    pub max_depth: usize,
    /// RNG seed (probes are deterministic given the seed).
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            samples: 200,
            max_depth: 5,
            seed: 0x0AD7_1977,
        }
    }
}

/// The result of a consistency check.
#[derive(Debug, Clone)]
pub struct ConsistencyReport {
    verdict: ConsistencyVerdict,
    contradictions: Vec<Contradiction>,
    unresolved_pairs: usize,
    pairs_checked: usize,
    probes_run: usize,
    exhausted_probes: Vec<ExhaustedProbe>,
    exhausted_pairs: usize,
    interrupted_items: usize,
    failures: Vec<CheckFailure>,
    /// Deterministic per-pair verdict strings, in superposition order
    /// (fault-isolation harnesses compare these index-wise).
    pair_verdicts: Vec<String>,
    /// Deterministic per-probe verdict strings, in sample order.
    probe_verdicts: Vec<String>,
    stats: CheckStats,
    /// Specification copy the evidence terms are rendered against.
    spec: Spec,
}

impl ConsistencyReport {
    /// The verdict.
    pub fn verdict(&self) -> &ConsistencyVerdict {
        &self.verdict
    }

    /// Whether the specification passed.
    pub fn is_consistent(&self) -> bool {
        self.verdict == ConsistencyVerdict::Consistent
    }

    /// All contradictions found.
    pub fn contradictions(&self) -> &[Contradiction] {
        &self.contradictions
    }

    /// Number of critical pairs examined.
    pub fn pairs_checked(&self) -> usize {
        self.pairs_checked
    }

    /// Number of critical pairs that neither joined nor refuted.
    pub fn unresolved_pairs(&self) -> usize {
        self.unresolved_pairs
    }

    /// Number of ground probes executed.
    pub fn probes_run(&self) -> usize {
        self.probes_run
    }

    /// Probes whose normalization ran out of fuel (divergence surfaced
    /// as a partial verdict instead of a hang).
    pub fn exhausted_probes(&self) -> &[ExhaustedProbe] {
        &self.exhausted_probes
    }

    /// Number of critical pairs whose classification ran out of fuel
    /// (after any configured retry ladder).
    pub fn exhausted_pairs(&self) -> usize {
        self.exhausted_pairs
    }

    /// Number of items (pairs and probes) the supervisor stopped before
    /// they produced a verdict.
    pub fn interrupted_items(&self) -> usize {
        self.interrupted_items
    }

    /// Work items that failed outright (worker panicked twice). The rest
    /// of the report is unaffected by these items.
    pub fn failures(&self) -> &[CheckFailure] {
        &self.failures
    }

    /// Deterministic per-critical-pair verdict strings, in superposition
    /// order. Two runs over the same spec yield identical vectors entry
    /// for entry (at any job count); fault-isolation harnesses compare
    /// these index-wise, skipping deliberately sabotaged indices.
    pub fn pair_verdicts(&self) -> &[String] {
        &self.pair_verdicts
    }

    /// Deterministic per-probe verdict strings, in sample order (same
    /// contract as [`ConsistencyReport::pair_verdicts`]).
    pub fn probe_verdicts(&self) -> &[String] {
        &self.probe_verdicts
    }

    /// Telemetry from the run (worker utilization, rewrite steps).
    /// Timings vary between runs; everything else in the report does not.
    pub fn stats(&self) -> &CheckStats {
        &self.stats
    }

    /// The specification the evidence is rendered against.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Human-readable summary. Clean runs render exactly as they always
    /// have; exhaustion and engine-fault lines appear only when present.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "consistency: {:?} ({} critical pairs, {} unresolved, {} probes)\n",
            self.verdict, self.pairs_checked, self.unresolved_pairs, self.probes_run
        );
        for c in &self.contradictions {
            out.push_str(&format!(
                "  contradiction [{}]: {} = {} but also {}\n",
                c.source,
                display::term(self.spec.sig(), &c.peak),
                display::term(self.spec.sig(), &c.left_nf),
                display::term(self.spec.sig(), &c.right_nf),
            ));
        }
        if self.interrupted_items > 0 {
            out.push_str(&format!(
                "  interrupted: {} item(s) stopped before a verdict\n",
                self.interrupted_items
            ));
        }
        if self.exhausted_pairs > 0 {
            out.push_str(&format!(
                "  exhausted pairs: {} (step budget ran out)\n",
                self.exhausted_pairs
            ));
        }
        const SHOWN: usize = 5;
        for e in self.exhausted_probes.iter().take(SHOWN) {
            out.push_str(&format!(
                "  exhausted probe: {} ({})\n",
                display::term(self.spec.sig(), &e.term),
                e.spent
            ));
        }
        if self.exhausted_probes.len() > SHOWN {
            out.push_str(&format!(
                "  … and {} more exhausted probe(s)\n",
                self.exhausted_probes.len() - SHOWN
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  engine fault: {}\n", f.error));
        }
        out
    }
}

/// Whether two normal forms are *distinguishable* — definitely denoting
/// different abstract values. Distinct ground constructor terms are
/// distinguishable; so are `error` vs a non-error constructor term. Stuck
/// symbolic terms are not (they might still be equal).
fn distinguishable(sig: &Signature, a: &Term, b: &Term) -> bool {
    if a == b {
        return false;
    }
    let ground_value = |t: &Term| t.is_constructor_term(sig);
    ground_value(a) && ground_value(b)
}

/// Checks the consistency of a specification with the default probe
/// configuration, on the calling thread.
pub fn check_consistency(spec: &Spec) -> ConsistencyReport {
    check_consistency_with_config(spec, &ProbeConfig::default(), &CheckConfig::default())
}

/// [`check_consistency_with_config`] on a [`Session`]'s specification,
/// with the check's probe normalizations and rewrite steps folded into
/// the session counters. The report is the same as the session-less
/// call's: no cache is shared with the session, so how warm the session
/// is cannot change a verdict.
pub fn check_consistency_session(
    session: &Session,
    probe: &ProbeConfig,
    config: &CheckConfig,
) -> ConsistencyReport {
    let report = check_consistency_with_config(session.spec(), probe, config);
    session.note_normalizations(report.probes_run as u64, report.stats.rewrite_steps);
    report
}

/// Checks the consistency of a specification under a [`ProbeConfig`]
/// and a full [`CheckConfig`]: worker count, resource budget, retry
/// ladder, supervision, and (for harnesses testing the engine itself) a
/// fault-injection plan.
///
/// Determinism: superpositions are enumerated sequentially (their order
/// defines the contradiction list order) and only *classified* in
/// parallel; probe terms are sampled sequentially from the seeded RNG and
/// only *normalized* in parallel. Both merges restore input order. Each
/// pair's classification builds its own store; each probe runs in its
/// worker thread's one store, which is cleared at the start of every
/// attempt, and each of the probe's normalizations forgets that store's
/// normal-form table before it starts. No normal form outlives one
/// normalization, so the report is a function of (spec, probe, budget)
/// alone — byte-identical at any job count.
///
/// Robustness guarantees:
///
/// * Normalizations run under `config.fuel`; a probe that runs out is
///   recorded in [`ConsistencyReport::exhausted_probes`] and surfaces as
///   the [`ConsistencyVerdict::Exhausted`] partial verdict — never a hang.
/// * A work item whose worker panics (twice) is recorded in
///   [`ConsistencyReport::failures`]; every *other* item's verdict is
///   unaffected, byte for byte.
pub fn check_consistency_with_config(
    spec: &Spec,
    probe: &ProbeConfig,
    config: &CheckConfig,
) -> ConsistencyReport {
    let mut contradictions = Vec::new();
    let mut unresolved = 0;
    let mut stats = CheckStats::default();
    let mut failures: Vec<CheckFailure> = Vec::new();
    let mut exhausted_probes: Vec<ExhaustedProbe> = Vec::new();
    let mut exhausted_pairs = 0;
    let mut interrupted_items = 0;
    let mut pair_verdicts: Vec<String> = Vec::new();
    let mut probe_verdicts: Vec<String> = Vec::new();

    // Phase 1: critical pairs — sequential enumeration, parallel joining.
    let set = superpositions(spec);
    let pairs_checked = set.superpositions.len();
    let pair_outcomes = run_supervised(
        config,
        PAIRS,
        &set.superpositions,
        |fuel, supervisor| {
            Rewriter::new(&set.spec)
                .with_budget(fuel)
                .supervised(supervisor.clone())
        },
        |rw, sp, _| classify_superposition(rw, sp),
        retryable_pair,
        |idx, sp| {
            format!(
                "critical pair #{idx} ({} / {})",
                sp.outer_rule, sp.inner_rule
            )
        },
        &mut stats,
    );
    stats.pairs_checked = pairs_checked;
    for (sp, outcome) in set.superpositions.iter().zip(pair_outcomes) {
        let status = match outcome {
            Supervised::Done(status) => status,
            Supervised::Stopped(kind) => PairStatus::Interrupted { kind },
            Supervised::Failed(failure) => {
                pair_verdicts.push(format!("engine fault: {}", failure.error));
                failures.push(failure);
                continue;
            }
        };
        pair_verdicts.push(match &status {
            PairStatus::Joinable(nf) => {
                format!("joins at {}", display::term(set.spec.sig(), nf))
            }
            PairStatus::Diverged { left_nf, right_nf } => format!(
                "diverged: {} vs {}",
                display::term(set.spec.sig(), left_nf),
                display::term(set.spec.sig(), right_nf)
            ),
            PairStatus::Exhausted { spent, .. } => format!("exhausted: {spent}"),
            PairStatus::Interrupted { kind } => format!("interrupted: {kind}"),
            PairStatus::Unknown { reason } => format!("unknown: {reason}"),
        });
        match status {
            PairStatus::Joinable(_) => {}
            PairStatus::Diverged { left_nf, right_nf } => {
                if distinguishable(set.spec.sig(), &left_nf, &right_nf) {
                    contradictions.push(Contradiction {
                        peak: sp.peak.clone(),
                        left_nf,
                        right_nf,
                        source: "critical-pair",
                    });
                } else {
                    unresolved += 1;
                }
            }
            PairStatus::Exhausted { .. } => {
                exhausted_pairs += 1;
                unresolved += 1;
            }
            PairStatus::Interrupted { .. } => {
                interrupted_items += 1;
                unresolved += 1;
            }
            PairStatus::Unknown { .. } => unresolved += 1,
        }
    }

    // Phase 2: randomized ground probing — sequential sampling (the RNG
    // stream is one deterministic sequence), parallel normalization.
    let mut rng = DetRng::new(probe.seed);
    let observers: Vec<OpId> = spec.derived_ops().collect();
    let mut probe_terms = Vec::new();
    if !observers.is_empty() {
        for _ in 0..probe.samples {
            let op = observers[rng.below(observers.len())];
            if let Some(term) = random_application(spec.sig(), op, probe.max_depth, &mut rng) {
                probe_terms.push(term);
            }
        }
    }
    let probes_run = probe_terms.len();
    let probe_outcomes = run_supervised(
        config,
        PROBES,
        &probe_terms,
        |fuel, supervisor| {
            Rewriter::new(spec)
                .with_budget(fuel)
                .supervised(supervisor.clone())
        },
        |rw, term, earlier: Option<ProbeOutcome>| {
            let out = probe_divergence(rw, spec.sig(), term);
            // A retried probe's step count covers every rung it ran.
            ProbeOutcome {
                steps: out.steps + earlier.map_or(0, |e| e.steps),
                ..out
            }
        },
        retryable_probe,
        |idx, term| format!("probe #{idx} ({})", display::term(spec.sig(), term)),
        &mut stats,
    );
    stats.probes_run = probes_run;
    for (term, outcome) in probe_terms.iter().zip(probe_outcomes) {
        let out = match outcome {
            Supervised::Done(out) => out,
            Supervised::Stopped(kind) => ProbeOutcome::stopped(kind),
            Supervised::Failed(failure) => {
                probe_verdicts.push(format!("engine fault: {}", failure.error));
                failures.push(failure);
                continue;
            }
        };
        stats.rewrite_steps += out.steps;
        probe_verdicts.push(match (&out.found, &out.interrupted, &out.exhausted) {
            (Some(c), _, _) => format!(
                "diverged: {} vs {}",
                display::term(spec.sig(), &c.left_nf),
                display::term(spec.sig(), &c.right_nf)
            ),
            (None, Some(kind), _) => format!("interrupted: {kind}"),
            (None, None, Some(spent)) => format!("exhausted: {spent}"),
            (None, None, None) => "agreed".to_owned(),
        });
        if let Some(c) = out.found {
            contradictions.push(c);
        } else if out.interrupted.is_some() {
            interrupted_items += 1;
        } else if let Some(spent) = out.exhausted {
            exhausted_probes.push(ExhaustedProbe {
                term: term.clone(),
                spent,
            });
        }
    }

    // Deduplicate contradictions by peak.
    let mut seen = HashSet::new();
    contradictions.retain(|c| seen.insert(c.peak.clone()));

    // Precedence: a contradiction beats everything; a supervisor interrupt
    // (the run was cut short from outside) beats exhaustion; exhaustion (a
    // partial analysis) beats symbolic unknowns; engine failures never
    // affect the verdict — they concern sabotaged items only.
    let verdict = if !contradictions.is_empty() {
        ConsistencyVerdict::Inconsistent
    } else if interrupted_items > 0 {
        ConsistencyVerdict::Interrupted
    } else if !exhausted_probes.is_empty() || exhausted_pairs > 0 {
        ConsistencyVerdict::Exhausted
    } else if unresolved > 0 {
        ConsistencyVerdict::Unknown
    } else {
        ConsistencyVerdict::Consistent
    };

    ConsistencyReport {
        verdict,
        contradictions,
        unresolved_pairs: unresolved,
        pairs_checked,
        probes_run,
        exhausted_probes,
        exhausted_pairs,
        interrupted_items,
        failures,
        pair_verdicts,
        probe_verdicts,
        stats,
        spec: set.spec,
    }
}

/// Whether the retry ladder applies: only plain *step* exhaustion is
/// rescued by more fuel. Depth bounds, deadlines, and interrupts are not.
fn retryable_pair(status: &PairStatus) -> bool {
    matches!(status, PairStatus::Exhausted { spent, .. } if spent.cause == ExhaustionCause::Steps)
}

/// [`retryable_pair`] for probe outcomes.
fn retryable_probe(out: &ProbeOutcome) -> bool {
    out.found.is_none()
        && out.interrupted.is_none()
        && matches!(&out.exhausted, Some(spent) if spent.cause == ExhaustionCause::Steps)
}

/// Builds a random ground application of `op` to constructor terms.
/// Returns `None` if some argument sort has no constructors.
pub fn random_application(
    sig: &Signature,
    op: OpId,
    max_depth: usize,
    rng: &mut DetRng,
) -> Option<Term> {
    let args: Option<Vec<Term>> = sig
        .op(op)
        .args()
        .iter()
        .map(|&s| random_ctor_term(sig, s, max_depth, rng))
        .collect();
    Some(Term::App(op, args?))
}

/// Builds a random ground constructor term of `sort` with depth at most
/// `max_depth`. Returns `None` if the sort has no constructors (or none
/// usable within the depth budget).
///
/// The workspace's one seeded constructor-term sampler: the consistency
/// probes and `adt-verify`'s random axiom instances both draw from it.
pub fn random_ctor_term(
    sig: &Signature,
    sort: SortId,
    max_depth: usize,
    rng: &mut DetRng,
) -> Option<Term> {
    // At the last level only nullary constructors fit.
    let mut usable = sig
        .constructors_of(sort)
        .filter(|&c| max_depth > 1 || sig.op(c).arity() == 0);
    let count = usable.clone().count();
    if count == 0 {
        return None;
    }
    let ctor = usable
        .nth(rng.below(count))
        .expect("the draw is below the count");
    let args: Option<Vec<Term>> = sig
        .op(ctor)
        .args()
        .iter()
        .map(|&s| random_ctor_term(sig, s, max_depth.saturating_sub(1), rng))
        .collect();
    Some(Term::App(ctor, args?))
}

/// What one ground probe observed.
struct ProbeOutcome {
    /// First distinguishable disagreement among the reducts' normal forms.
    found: Option<Contradiction>,
    /// Fuel receipt from the first normalization that ran out, if any.
    exhausted: Option<FuelSpent>,
    /// Supervisor interrupt that stopped the probe, if any.
    interrupted: Option<Interrupt>,
    /// Total rewrite steps spent.
    steps: u64,
}

impl ProbeOutcome {
    /// A probe the supervisor stopped before it did any work.
    fn stopped(kind: Interrupt) -> ProbeOutcome {
        ProbeOutcome {
            found: None,
            exhausted: None,
            interrupted: Some(kind),
            steps: 0,
        }
    }
}

thread_local! {
    /// The store each worker thread runs its probes in. A probe clears
    /// it before it starts, so no attempt reads what an earlier probe,
    /// or a panicked or retried attempt, left; clearing keeps the
    /// allocations, so a worker's probes stop allocating once it has
    /// seen its largest.
    static PROBE_STORE: RefCell<TermStore> = RefCell::new(TermStore::new());
}

/// Enumerates every one-step reduct of `term` (any rule, any position),
/// normalizes each, and reports the first distinguishable disagreement.
/// A normalization that exhausts its budget is recorded — not swallowed —
/// so divergent axiom sets surface as a partial verdict; other rewrite
/// errors (ill-sorted reducts) skip that reduct.
///
/// The probe runs on ids in the worker's store: the term is interned
/// once, each reduct is normalized in place, and `Term`s are built only
/// for a contradiction.
fn probe_divergence(rw: &Rewriter<'_>, sig: &Signature, term: &Term) -> ProbeOutcome {
    PROBE_STORE.with_borrow_mut(|store| {
        store.clear();
        let root = store.arena_mut().intern(term);
        let mut steps = 0;
        let mut exhausted: Option<FuelSpent> = None;
        let mut interrupted: Option<Interrupt> = None;
        let mut normal_forms: Vec<TermId> = Vec::new();
        for reduct in rw.one_step_reducts(store.arena_mut(), root) {
            match rw.normalize_in(store, reduct) {
                Ok((nf, taken)) => {
                    steps += taken;
                    normal_forms.push(nf);
                }
                Err(RewriteError::Exhausted { spent, .. }) => {
                    steps += spent.steps;
                    if exhausted.is_none() {
                        exhausted = Some(spent);
                    }
                }
                Err(RewriteError::Interrupted { kind, steps: s }) => {
                    // The supervisor pulled the plug: stop the whole
                    // scan — further reducts would only be interrupted
                    // again.
                    steps += s;
                    interrupted = Some(kind);
                    break;
                }
                Err(_) => {}
            }
        }
        // Ids of one store are equal exactly when the terms are, so
        // two normal forms are distinguishable when their ids differ
        // and both are values.
        let arena = store.arena();
        let values: Vec<bool> = normal_forms
            .iter()
            .map(|&nf| arena.is_constructor_term(sig, nf))
            .collect();
        let found = (0..normal_forms.len())
            .flat_map(|i| ((i + 1)..normal_forms.len()).map(move |j| (i, j)))
            .find(|&(i, j)| values[i] && values[j] && normal_forms[i] != normal_forms[j])
            .map(|(i, j)| Contradiction {
                peak: term.clone(),
                left_nf: arena.to_term(normal_forms[i]),
                right_nf: arena.to_term(normal_forms[j]),
                source: "ground-probe",
            });
        ProbeOutcome {
            found,
            exhausted,
            interrupted,
            steps,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::{Fuel, SpecBuilder};

    fn consistent_spec() -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let s = b.sort("Nat");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let x = Term::Var(b.var("x", s));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [x])]), ff);
        b.build().unwrap()
    }

    fn inconsistent_spec() -> Spec {
        // F(x) = C for all x, but F(C) = D: contradictory on F(C).
        let mut b = SpecBuilder::new("Bad");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let d = b.ctor("D", [], s);
        let f = b.op("F", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("general", b.app(f, [x]), b.app(c, []));
        b.axiom("specific", b.app(f, [b.app(c, [])]), b.app(d, []));
        let _ = d;
        b.build().unwrap()
    }

    #[test]
    fn consistent_spec_passes() {
        let report = check_consistency(&consistent_spec());
        assert!(report.is_consistent(), "{}", report.summary());
        assert!(report.contradictions().is_empty());
        assert!(report.probes_run() > 0);
    }

    #[test]
    fn contradiction_is_found_by_critical_pairs() {
        let report = check_consistency(&inconsistent_spec());
        assert_eq!(report.verdict(), &ConsistencyVerdict::Inconsistent);
        assert!(report
            .contradictions()
            .iter()
            .any(|c| c.source == "critical-pair" || c.source == "ground-probe"));
        let summary = report.summary();
        assert!(summary.contains("contradiction"), "{summary}");
    }

    #[test]
    fn a_declared_primed_variable_is_renamed_around() {
        // `x′` is the name renaming apart tries first for `x`; with it
        // taken, the pair F(x, A) / F(B, x) is still found and diverges.
        let mut b = SpecBuilder::new("Primed");
        let s = b.sort("S");
        let a = b.ctor("A", [], s);
        let bb = b.ctor("B", [], s);
        let f = b.op("F", [s, s], s);
        let x = Term::Var(b.var("x", s));
        b.var("x\u{2032}", s);
        b.axiom("f1", b.app(f, [x.clone(), b.app(a, [])]), b.app(a, []));
        b.axiom("f2", b.app(f, [b.app(bb, []), x]), b.app(bb, []));
        let peak = b.app(f, [b.app(bb, []), b.app(a, [])]);
        let report = check_consistency(&b.build().unwrap());
        assert_eq!(report.verdict(), &ConsistencyVerdict::Inconsistent);
        assert!(
            report
                .contradictions()
                .iter()
                .any(|c| c.source == "critical-pair" && c.peak == peak),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn ground_probe_finds_value_specific_contradictions() {
        // Two axioms that overlap only at a specific nested value:
        // G(SUCC(x)) = ZERO and G(SUCC(ZERO)) = SUCC(ZERO).
        let mut b = SpecBuilder::new("Probe");
        let s = b.sort("Nat");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let g = b.op("G", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("g1", b.app(g, [b.app(succ, [x])]), b.app(zero, []));
        b.axiom(
            "g2",
            b.app(g, [b.app(succ, [b.app(zero, [])])]),
            b.app(succ, [b.app(zero, [])]),
        );
        let spec = b.build().unwrap();
        let report = check_consistency(&spec);
        assert_eq!(report.verdict(), &ConsistencyVerdict::Inconsistent);
    }

    #[test]
    fn probe_config_is_deterministic() {
        let spec = consistent_spec();
        let cfg = ProbeConfig {
            samples: 50,
            max_depth: 4,
            seed: 7,
        };
        let r1 = check_consistency_with_config(&spec, &cfg, &CheckConfig::default());
        let r2 = check_consistency_with_config(&spec, &cfg, &CheckConfig::default());
        assert_eq!(r1.probes_run(), r2.probes_run());
        assert_eq!(r1.verdict(), r2.verdict());
    }

    #[test]
    fn parallel_report_matches_sequential() {
        for spec in [consistent_spec(), inconsistent_spec()] {
            let cfg = ProbeConfig::default();
            let seq = check_consistency_with_config(&spec, &cfg, &CheckConfig::jobs(1));
            let par = check_consistency_with_config(&spec, &cfg, &CheckConfig::jobs(4));
            assert_eq!(seq.verdict(), par.verdict());
            assert_eq!(seq.contradictions(), par.contradictions());
            assert_eq!(seq.pairs_checked(), par.pairs_checked());
            assert_eq!(seq.probes_run(), par.probes_run());
            assert_eq!(seq.unresolved_pairs(), par.unresolved_pairs());
            assert_eq!(seq.summary(), par.summary());
        }
    }

    #[test]
    fn stats_count_pairs_and_probes() {
        let report = check_consistency(&consistent_spec());
        let stats = report.stats();
        assert_eq!(stats.pairs_checked, report.pairs_checked());
        assert_eq!(stats.probes_run, report.probes_run());
        assert_eq!(stats.items, report.pairs_checked() + report.probes_run());
    }

    #[test]
    fn divergent_axioms_exhaust_instead_of_hanging() {
        // F(x) = F(x): every probe normalization loops forever. The check
        // must terminate with a partial (Exhausted) verdict at exactly the
        // configured budget, at any job count.
        let mut b = SpecBuilder::new("Loop");
        let s = b.sort("S");
        let _c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let x = Term::Var(b.var("x", s));
        b.axiom("loop", b.app(f, [x.clone()]), b.app(f, [x]));
        let spec = b.build().unwrap();
        let probe = ProbeConfig {
            samples: 10,
            max_depth: 3,
            seed: 1,
        };
        let seq = check_consistency_with_config(
            &spec,
            &probe,
            &CheckConfig::jobs(1).with_fuel(Fuel::steps(50)),
        );
        assert_eq!(
            seq.verdict(),
            &ConsistencyVerdict::Exhausted,
            "{}",
            seq.summary()
        );
        assert!(!seq.exhausted_probes().is_empty());
        assert_eq!(seq.exhausted_probes()[0].spent.steps, 50);
        assert!(
            seq.summary().contains("exhausted probe"),
            "{}",
            seq.summary()
        );

        let par = check_consistency_with_config(
            &spec,
            &probe,
            &CheckConfig::jobs(4).with_fuel(Fuel::steps(50)),
        );
        assert_eq!(seq.summary(), par.summary());
        assert_eq!(seq.probe_verdicts(), par.probe_verdicts());
    }

    #[test]
    fn injected_panic_leaves_other_verdicts_identical() {
        use crate::fault::FaultSpec;
        let spec = consistent_spec();
        let probe = ProbeConfig::default();
        let clean = check_consistency_with_config(&spec, &probe, &CheckConfig::jobs(1));
        let faults = FaultSpec {
            seed: 11,
            panics: 1,
            ..FaultSpec::default()
        };
        for jobs in [1, 4] {
            let cfg = CheckConfig::jobs(jobs).with_faults(faults.clone());
            let faulted = check_consistency_with_config(&spec, &probe, &cfg);
            assert!(!faulted.failures().is_empty());
            assert_eq!(faulted.verdict(), clean.verdict());

            let armed_pairs = faults.arm(PAIRS, clean.pairs_checked());
            let armed_probes = faults.arm(PROBES, clean.probes_run());
            assert_eq!(faulted.pair_verdicts().len(), clean.pair_verdicts().len());
            assert_eq!(faulted.probe_verdicts().len(), clean.probe_verdicts().len());
            for (idx, (a, b)) in clean
                .pair_verdicts()
                .iter()
                .zip(faulted.pair_verdicts())
                .enumerate()
            {
                if armed_pairs.is_faulted(idx) {
                    assert!(b.starts_with("engine fault:"), "{b}");
                } else {
                    assert_eq!(a, b, "pair #{idx} (jobs {jobs})");
                }
            }
            for (idx, (a, b)) in clean
                .probe_verdicts()
                .iter()
                .zip(faulted.probe_verdicts())
                .enumerate()
            {
                if armed_probes.is_faulted(idx) {
                    assert!(b.starts_with("engine fault:"), "{b}");
                } else {
                    assert_eq!(a, b, "probe #{idx} (jobs {jobs})");
                }
            }
        }
    }

    #[test]
    fn random_ctor_terms_respect_depth() {
        let spec = consistent_spec();
        let mut rng = DetRng::new(3);
        let s = spec.sig().find_sort("Nat").unwrap();
        for _ in 0..100 {
            let t = random_ctor_term(spec.sig(), s, 4, &mut rng).unwrap();
            assert!(t.depth() <= 4);
            assert!(t.is_constructor_term(spec.sig()));
            assert_eq!(t.sort(spec.sig()).unwrap(), s);
        }
    }

    #[test]
    fn sorts_without_constructors_yield_no_terms() {
        let mut b = SpecBuilder::new("P");
        let s = b.sort("S");
        let item = b.param_sort("Item");
        let mk = b.ctor("MK", [item], s);
        let _ = mk;
        let spec = b.build().unwrap();
        let mut rng = DetRng::new(3);
        // S's only constructor needs an Item, and Item has none.
        let sid = spec.sig().find_sort("S").unwrap();
        assert!(random_ctor_term(spec.sig(), sid, 4, &mut rng).is_none());
        let iid = spec.sig().find_sort("Item").unwrap();
        assert!(random_ctor_term(spec.sig(), iid, 4, &mut rng).is_none());
    }
}
