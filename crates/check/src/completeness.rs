//! Sufficient-completeness checking.
//!
//! A specification is *sufficiently complete* (Guttag [8]) when the axioms
//! pin down the value of every derived operation on every constructor-built
//! input — no legal ground observer application is left without a meaning.
//! (Applications involving `error` need no axioms: strict propagation
//! already gives them a meaning.)
//!
//! The check is a pattern-coverage analysis in the style of compiler
//! match-exhaustiveness checking: the left-hand sides of the axioms for an
//! operation form a pattern matrix, and we search for a constructor-term
//! vector no row matches. Every such vector is materialized as a *witness
//! term* — the paper's "prompt to the user".

use std::collections::HashSet;
use std::fmt;
use std::time::Instant;

use adt_core::{
    display, EngineError, ExhaustionCause, Fresh, Fuel, FuelSpent, Interrupt, OpId, Session,
    Signature, SortId, Spec, Term, VarId,
};

use crate::config::{CheckConfig, RetryFuel};
use crate::fault::COMPLETENESS;
use crate::parallel::{run_supervised, CheckStats, Supervised};

/// A caveat noted while converting an axiom left-hand side to a coverage
/// pattern. Patterns with caveats are treated conservatively (as covering
/// nothing at the offending position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternNote {
    /// The left-hand side contains a repeated variable; coverage analysis
    /// treats the repeated occurrence as opaque.
    NonLinear {
        /// Label of the axiom.
        axiom: String,
        /// Name of the repeated variable.
        var: String,
    },
    /// The left-hand side contains a non-constructor operation below the
    /// head; such a pattern only matches unreduced terms, so it cannot
    /// contribute to constructor-case coverage.
    NonConstructor {
        /// Label of the axiom.
        axiom: String,
        /// Name of the non-constructor operation.
        op: String,
    },
}

impl fmt::Display for PatternNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternNote::NonLinear { axiom, var } => write!(
                f,
                "axiom `{axiom}`: repeated variable `{var}` treated conservatively"
            ),
            PatternNote::NonConstructor { axiom, op } => write!(
                f,
                "axiom `{axiom}`: non-constructor operation `{op}` in the left-hand side \
                 cannot contribute to coverage"
            ),
        }
    }
}

/// Coverage verdict for one derived operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coverage {
    /// Every constructor case is covered by some axiom.
    Complete,
    /// Cases are missing; each entry is a synthesized witness term the
    /// axioms say nothing about (rendered against
    /// [`CompletenessReport::sig`]).
    Missing(Vec<Term>),
    /// The analysis ran out of budget before deciding: a *partial*
    /// verdict, not a failure. Missing cases found before exhaustion are
    /// definite; `frontier` holds witness terms for case groups the
    /// analysis never explored (capped; `truncated` counts the rest).
    Exhausted {
        /// What was spent before the budget ran out. For case analysis,
        /// `steps` counts case partitions examined.
        spent: FuelSpent,
        /// Definite missing cases found before the budget ran out.
        missing: Vec<Term>,
        /// Unexplored case groups, as witness terms (rendered against
        /// [`CompletenessReport::sig`]).
        frontier: Vec<Term>,
        /// Unexplored case groups beyond the reported frontier.
        truncated: usize,
    },
    /// The run's supervisor (cancellation or wall-clock deadline) stopped
    /// the analysis before it produced a verdict. Like
    /// [`Coverage::Exhausted`], a partial result — the operation was not
    /// proved incomplete.
    Interrupted {
        /// What stopped the run.
        kind: Interrupt,
    },
    /// The analysis worker panicked (twice: original run plus one retry
    /// on a fresh stack); the rest of the report is unaffected.
    Failed {
        /// What went wrong.
        error: EngineError,
    },
}

/// Coverage analysis for one derived operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCoverage {
    op: OpId,
    op_name: String,
    coverage: Coverage,
    notes: Vec<PatternNote>,
    axiom_count: usize,
}

impl OpCoverage {
    /// An operation with a verdict but no analysis behind it (the
    /// supervisor stopped it, or its worker failed): no pattern notes.
    fn unanalysed(spec: &Spec, op: OpId, coverage: Coverage) -> Self {
        OpCoverage {
            op,
            op_name: spec.sig().op(op).name().to_owned(),
            coverage,
            notes: Vec::new(),
            axiom_count: spec.axioms_for(op).count(),
        }
    }

    /// The analysed operation.
    pub fn op(&self) -> OpId {
        self.op
    }

    /// Its name.
    pub fn op_name(&self) -> &str {
        &self.op_name
    }

    /// The coverage verdict.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Caveats noted while building the pattern matrix.
    pub fn notes(&self) -> &[PatternNote] {
        &self.notes
    }

    /// How many axioms are headed by this operation.
    pub fn axiom_count(&self) -> usize {
        self.axiom_count
    }

    /// Whether the operation is completely specified.
    pub fn is_complete(&self) -> bool {
        matches!(self.coverage, Coverage::Complete)
    }
}

/// The result of a sufficient-completeness check.
///
/// The report owns an extended copy of the signature (fresh variables
/// were minted to display witness terms); render witnesses against
/// [`CompletenessReport::sig`].
#[derive(Debug, Clone)]
pub struct CompletenessReport {
    sig: Signature,
    coverage: Vec<OpCoverage>,
    stats: CheckStats,
}

impl CompletenessReport {
    /// The specification's signature extended with witness variables.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    /// Telemetry from the run (worker utilization, per-op analysis time).
    /// Timings vary between runs; everything else in the report does not.
    pub fn stats(&self) -> &CheckStats {
        &self.stats
    }

    /// Per-operation coverage, in operation-declaration order.
    pub fn coverage(&self) -> &[OpCoverage] {
        &self.coverage
    }

    /// Coverage entry for a specific operation.
    pub fn for_op(&self, op: OpId) -> Option<&OpCoverage> {
        self.coverage.iter().find(|c| c.op == op)
    }

    /// Whether every derived operation is completely specified.
    pub fn is_sufficiently_complete(&self) -> bool {
        self.coverage.iter().all(OpCoverage::is_complete)
    }

    /// Total number of *definite* missing cases across all operations
    /// (including those found before an analysis exhausted its budget).
    pub fn missing_case_count(&self) -> usize {
        self.coverage
            .iter()
            .map(|c| match &c.coverage {
                Coverage::Complete => 0,
                Coverage::Missing(v) => v.len(),
                Coverage::Exhausted { missing, .. } => missing.len(),
                Coverage::Interrupted { .. } | Coverage::Failed { .. } => 0,
            })
            .sum()
    }

    /// Operations whose analysis did not reach a verdict (budget
    /// exhausted, supervisor interrupt, or worker failure). Empty on a
    /// clean run.
    pub fn undetermined_ops(&self) -> Vec<&OpCoverage> {
        self.coverage
            .iter()
            .filter(|c| {
                matches!(
                    c.coverage,
                    Coverage::Exhausted { .. }
                        | Coverage::Interrupted { .. }
                        | Coverage::Failed { .. }
                )
            })
            .collect()
    }

    /// How many operations the supervisor stopped before a verdict.
    pub fn interrupted_ops(&self) -> usize {
        self.coverage
            .iter()
            .filter(|c| matches!(c.coverage, Coverage::Interrupted { .. }))
            .count()
    }

    /// Whether some operation has a definitely-missing case (as opposed
    /// to merely an undetermined analysis).
    pub fn has_definite_missing(&self) -> bool {
        self.missing_case_count() > 0
    }

    /// Renders the report in the interactive style the paper describes:
    /// one `<witness> = ?` prompt per missing case.
    pub fn prompts(&self) -> String {
        let mut out = String::new();
        for cov in &self.coverage {
            match &cov.coverage {
                Coverage::Complete => {}
                Coverage::Missing(cases) => {
                    out.push_str(&format!(
                        "operation {}: insufficiently complete — {} missing case(s):\n",
                        cov.op_name,
                        cases.len()
                    ));
                    for case in cases {
                        out.push_str(&format!("  {} = ?\n", display::term(&self.sig, case)));
                    }
                }
                Coverage::Exhausted {
                    spent,
                    missing,
                    frontier,
                    truncated,
                } => {
                    out.push_str(&format!(
                        "operation {}: analysis exhausted ({spent}) — partial verdict:\n",
                        cov.op_name
                    ));
                    for case in missing {
                        out.push_str(&format!("  {} = ?\n", display::term(&self.sig, case)));
                    }
                    for case in frontier {
                        out.push_str(&format!(
                            "  {} = ? (unexplored)\n",
                            display::term(&self.sig, case)
                        ));
                    }
                    if *truncated > 0 {
                        out.push_str(&format!(
                            "  … and {truncated} more unexplored case group(s)\n"
                        ));
                    }
                }
                Coverage::Interrupted { kind } => {
                    out.push_str(&format!(
                        "operation {}: analysis interrupted ({kind}) — no verdict\n",
                        cov.op_name
                    ));
                }
                Coverage::Failed { error } => {
                    out.push_str(&format!(
                        "operation {}: analysis failed — {error}\n",
                        cov.op_name
                    ));
                }
            }
            for note in &cov.notes {
                out.push_str(&format!("  note: {note}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("specification is sufficiently complete\n");
        }
        out
    }
}

/// A coverage pattern: wildcard, constructor application, or opaque
/// (covers nothing — produced by non-linear or non-constructor positions).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pat {
    Wild(SortId),
    Ctor(OpId, Vec<Pat>),
    Opaque,
}

/// A synthesized witness: mirrors `Pat` but with wildcards to materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Witness {
    Any(SortId),
    Ctor(OpId, Vec<Witness>),
}

/// The order-independent part of one operation's analysis: everything
/// except witness materialization (which mints shared fresh variables and
/// must therefore run sequentially, in operation-declaration order).
struct OpAnalysis {
    op: OpId,
    op_name: String,
    notes: Vec<PatternNote>,
    missing_cases: Vec<Vec<Witness>>,
    /// Case groups the enumeration never explored (budget ran out).
    frontier_cases: Vec<Vec<Witness>>,
    /// Unexplored case groups beyond `frontier_cases`' cap.
    frontier_truncated: usize,
    /// Case partitions examined before stopping.
    partitions: usize,
    /// The partition budget the analysis ran under.
    budget: usize,
    axiom_count: usize,
    time: std::time::Duration,
}

/// The step budget, if the analysis consumed its whole partition budget
/// *and* left cases unexplored — the only exhaustion a bigger budget can
/// rescue (a frontier behind the witness cap is not retried: more fuel
/// cannot raise the cap).
fn budget_exhausted(analysis: &OpAnalysis) -> Option<ExhaustionCause> {
    (analysis.partitions >= analysis.budget
        && (!analysis.frontier_cases.is_empty() || analysis.frontier_truncated > 0))
        .then_some(ExhaustionCause::Steps)
}

/// Builds the pattern matrix for `op` and enumerates its missing cases,
/// examining at most `case_budget` case partitions. Pure with respect to
/// `spec` — safe to run on any worker thread.
fn analyze_op(spec: &Spec, op: OpId, case_budget: usize) -> OpAnalysis {
    let started = Instant::now();
    let info = spec.sig().op(op);
    let op_name = info.name().to_owned();
    let arg_sorts: Vec<SortId> = info.args().to_vec();

    let mut notes = Vec::new();
    let mut matrix: Vec<Vec<Pat>> = Vec::new();
    let mut axiom_count = 0;
    for ax in spec.axioms_for(op) {
        axiom_count += 1;
        let Term::App(_, args) = ax.lhs() else {
            continue;
        };
        let mut seen = HashSet::new();
        let row: Vec<Pat> = args
            .iter()
            .map(|a| to_pat(a, spec.sig(), ax.label(), &mut seen, &mut notes))
            .collect();
        // Rows with opaque positions cannot be relied on for coverage;
        // the corresponding note was already recorded.
        if row.iter().all(|p| !has_opaque(p)) {
            matrix.push(row);
        }
    }

    // Partition the all-wildcard case along the constructor patterns
    // of the rows; every partition no row subsumes is a missing case.
    let root_case: Vec<Witness> = arg_sorts.iter().map(|&s| Witness::Any(s)).collect();
    let mut missing_cases: Vec<Vec<Witness>> = Vec::new();
    let mut frontier_cases: Vec<Vec<Witness>> = Vec::new();
    let mut frontier_truncated = 0;
    let mut budget = case_budget;
    enumerate_missing(
        &matrix,
        root_case,
        spec.sig(),
        &mut missing_cases,
        &mut budget,
        &mut frontier_cases,
        &mut frontier_truncated,
    );

    OpAnalysis {
        op,
        op_name,
        notes,
        missing_cases,
        frontier_cases,
        frontier_truncated,
        partitions: case_budget - budget,
        budget: case_budget,
        axiom_count,
        time: started.elapsed(),
    }
}

/// Checks the sufficient completeness of a specification.
///
/// Every non-constructor, non-builtin operation is analysed; for each, the
/// left-hand sides of its axioms are compiled to a pattern matrix, and
/// missing constructor cases are enumerated (up to an internal bound of 64
/// witnesses per operation, which no sane specification approaches).
///
/// Runs on the calling thread; see [`check_completeness_with_config`]
/// for the parallel variant (whose report is identical apart from timing
/// stats).
pub fn check_completeness(spec: &Spec) -> CompletenessReport {
    check_completeness_with_config(spec, &CheckConfig::default())
}

/// [`check_completeness_with_config`] on a [`Session`]'s specification.
/// The analysis is pattern arithmetic and normalizes nothing, so the
/// session's counters are left as they were and the report is the same
/// as the session-less call's.
pub fn check_completeness_session(session: &Session, config: &CheckConfig) -> CompletenessReport {
    check_completeness_with_config(session.spec(), config)
}

/// [`check_completeness`] under an explicit [`CheckConfig`]: worker
/// count (`0` = every available core), fuel budget (a cap on case
/// partitions examined per operation), and an optional fault-injection
/// plan.
///
/// The expensive phase — pattern-matrix construction and missing-case
/// enumeration — is independent per operation and runs in parallel. The
/// cheap phase — materializing witness terms, which mints fresh variables
/// in a shared signature — runs sequentially afterwards, in
/// operation-declaration order. The report is therefore *identical* to the
/// sequential one, byte for byte, at any job count; only
/// [`CompletenessReport::stats`] timings differ.
///
/// Robustness contract: a panicking analysis worker surfaces as
/// [`Coverage::Failed`] for its operation only, an exhausted budget as
/// [`Coverage::Exhausted`] — neither can take down the run or disturb
/// any other operation's verdict.
pub fn check_completeness_with_config(spec: &Spec, config: &CheckConfig) -> CompletenessReport {
    let derived: Vec<OpId> = spec.derived_ops().collect();
    // The fuel's step budget caps case partitions, and so does every
    // rung of the retry ladder, never above the built-in safety valve.
    let valve = CASE_BUDGET as u64;
    let config = CheckConfig {
        fuel: Fuel::steps(config.fuel.steps.min(valve)),
        retry: config.retry.map(|retry| RetryFuel {
            cap_steps: retry.cap_steps.min(valve),
            ..retry
        }),
        ..config.clone()
    };
    let mut stats = CheckStats::default();
    let outcomes = run_supervised(
        &config,
        COMPLETENESS,
        &derived,
        |fuel, _| usize::try_from(fuel.steps).unwrap_or(usize::MAX),
        |&budget, &op, _| analyze_op(spec, op, budget),
        budget_exhausted,
        |_, &op| format!("operation `{}`", spec.sig().op(op).name()),
        &mut stats,
    );

    // Witness variables extend the signature; the axioms are untouched,
    // so the report keeps only the extended signature.
    let (sig, coverage) = spec.sig().extend(|fresh| {
        let mut witness_vars: Vec<(SortId, Vec<VarId>)> = Vec::new();
        let mut coverage = Vec::new();
        for (&op, outcome) in derived.iter().zip(outcomes) {
            let analysis = match outcome {
                Supervised::Done(analysis) => analysis,
                Supervised::Stopped(kind) => {
                    coverage.push(OpCoverage::unanalysed(
                        spec,
                        op,
                        Coverage::Interrupted { kind },
                    ));
                    continue;
                }
                Supervised::Failed(failure) => {
                    let error = failure.error;
                    coverage.push(OpCoverage::unanalysed(spec, op, Coverage::Failed { error }));
                    continue;
                }
            };
            stats
                .op_times
                .push((analysis.op_name.clone(), analysis.time));
            let mut materialize_cases = |cases: &[Vec<Witness>]| -> Vec<Term> {
                cases
                    .iter()
                    .map(|case| {
                        let mut counters = std::collections::HashMap::new();
                        let terms = case
                            .iter()
                            .map(|w| materialize_inner(w, fresh, &mut witness_vars, &mut counters))
                            .collect();
                        Term::App(analysis.op, terms)
                    })
                    .collect()
            };
            let missing: Vec<Term> = materialize_cases(&analysis.missing_cases);
            let frontier: Vec<Term> = materialize_cases(&analysis.frontier_cases);

            let exhausted = !frontier.is_empty() || analysis.frontier_truncated > 0;
            coverage.push(OpCoverage {
                op: analysis.op,
                op_name: analysis.op_name,
                coverage: if exhausted {
                    Coverage::Exhausted {
                        spent: FuelSpent {
                            steps: analysis.partitions as u64,
                            depth: 0,
                            cause: ExhaustionCause::Steps,
                        },
                        missing,
                        frontier,
                        truncated: analysis.frontier_truncated,
                    }
                } else if missing.is_empty() {
                    Coverage::Complete
                } else {
                    Coverage::Missing(missing)
                },
                notes: analysis.notes,
                axiom_count: analysis.axiom_count,
            });
        }
        coverage
    });
    CompletenessReport {
        sig,
        coverage,
        stats,
    }
}

fn to_pat(
    term: &Term,
    sig: &Signature,
    axiom: &str,
    seen: &mut HashSet<VarId>,
    notes: &mut Vec<PatternNote>,
) -> Pat {
    match term {
        Term::Var(v) => {
            if seen.insert(*v) {
                Pat::Wild(sig.var(*v).sort())
            } else {
                notes.push(PatternNote::NonLinear {
                    axiom: axiom.to_owned(),
                    var: sig.var(*v).name().to_owned(),
                });
                Pat::Opaque
            }
        }
        Term::App(op, args) => {
            if sig.op(*op).is_constructor() {
                Pat::Ctor(
                    *op,
                    args.iter()
                        .map(|a| to_pat(a, sig, axiom, seen, notes))
                        .collect(),
                )
            } else {
                notes.push(PatternNote::NonConstructor {
                    axiom: axiom.to_owned(),
                    op: sig.op(*op).name().to_owned(),
                });
                Pat::Opaque
            }
        }
        // `error` patterns and conditionals cover nothing we must account
        // for: strictness already defines the error cases.
        Term::Error(_) | Term::Ite(_) => Pat::Opaque,
    }
}

fn has_opaque(p: &Pat) -> bool {
    match p {
        Pat::Opaque => true,
        Pat::Wild(_) => false,
        Pat::Ctor(_, args) => args.iter().any(has_opaque),
    }
}

/// Safety valve: the maximum number of case partitions examined per
/// operation. Real specifications stay far below this.
const CASE_BUDGET: usize = 10_000;

/// Maximum number of missing cases reported per operation.
const MAX_WITNESSES: usize = 64;

/// Maximum number of unexplored case groups reported per operation when
/// the budget runs out (the rest are counted, not materialized).
const MAX_FRONTIER: usize = 8;

/// Recursively partitions `case` along the constructor patterns of the
/// rows, collecting every partition no row subsumes. A case abandoned
/// because the budget (or the witness cap) ran out is recorded on the
/// `frontier` instead of being dropped silently, so exhaustion is
/// visible in the report.
#[allow(clippy::too_many_arguments)]
fn enumerate_missing(
    rows: &[Vec<Pat>],
    case: Vec<Witness>,
    sig: &Signature,
    out: &mut Vec<Vec<Witness>>,
    budget: &mut usize,
    frontier: &mut Vec<Vec<Witness>>,
    truncated: &mut usize,
) {
    if out.len() >= MAX_WITNESSES || *budget == 0 {
        if frontier.len() < MAX_FRONTIER {
            frontier.push(case);
        } else {
            *truncated += 1;
        }
        return;
    }
    *budget -= 1;

    let compat: Vec<&Vec<Pat>> = rows
        .iter()
        .filter(|row| row.iter().zip(&case).all(|(p, w)| compatible(p, w)))
        .collect();
    if compat.is_empty() {
        out.push(case);
        return;
    }
    if compat
        .iter()
        .any(|row| row.iter().zip(&case).all(|(p, w)| subsumes(p, w)))
    {
        return; // fully covered
    }
    // Some compatible row inspects a position the case leaves open: split
    // the case there, one branch per constructor.
    let Some((idx, path, sort)) = find_split(&compat, &case) else {
        // Unreachable in theory (compatible + no split point implies
        // subsumption), but stay conservative.
        out.push(case);
        return;
    };
    let ctors: Vec<OpId> = sig.constructors_of(sort).collect();
    if ctors.is_empty() {
        // A pattern demands a constructor of a sort that has none (an
        // opaque parameter sort): nothing can cover the open values.
        out.push(case);
        return;
    }
    for ctor in ctors {
        let args = sig
            .op(ctor)
            .args()
            .iter()
            .map(|&s| Witness::Any(s))
            .collect();
        let mut split_case = case.clone();
        split_case[idx] = set_at(&case[idx], &path, Witness::Ctor(ctor, args));
        enumerate_missing(rows, split_case, sig, out, budget, frontier, truncated);
    }
}

/// Whether some instance of `case` matches `pat`.
fn compatible(pat: &Pat, case: &Witness) -> bool {
    match (pat, case) {
        (Pat::Opaque, _) => false,
        (Pat::Wild(_), _) => true,
        (Pat::Ctor(_, _), Witness::Any(_)) => true,
        (Pat::Ctor(op, pargs), Witness::Ctor(cop, cargs)) => {
            op == cop && pargs.iter().zip(cargs).all(|(p, w)| compatible(p, w))
        }
    }
}

/// Whether *every* instance of `case` matches `pat`.
fn subsumes(pat: &Pat, case: &Witness) -> bool {
    match (pat, case) {
        (Pat::Opaque, _) => false,
        (Pat::Wild(_), _) => true,
        (Pat::Ctor(_, _), Witness::Any(_)) => false,
        (Pat::Ctor(op, pargs), Witness::Ctor(cop, cargs)) => {
            op == cop && pargs.iter().zip(cargs).all(|(p, w)| subsumes(p, w))
        }
    }
}

/// Finds the leftmost-outermost open position of the case where some
/// compatible row has a constructor pattern; returns the argument index,
/// the path within that argument, and the sort to split on.
fn find_split(compat: &[&Vec<Pat>], case: &[Witness]) -> Option<(usize, Vec<usize>, SortId)> {
    for (idx, w) in case.iter().enumerate() {
        for row in compat {
            if let Some((path, sort)) = find_split_in(&row[idx], w) {
                return Some((idx, path, sort));
            }
        }
    }
    None
}

fn find_split_in(pat: &Pat, case: &Witness) -> Option<(Vec<usize>, SortId)> {
    match (pat, case) {
        (Pat::Ctor(_, _), Witness::Any(sort)) => Some((Vec::new(), *sort)),
        (Pat::Ctor(_, pargs), Witness::Ctor(_, cargs)) => {
            for (i, (p, w)) in pargs.iter().zip(cargs).enumerate() {
                if let Some((mut path, sort)) = find_split_in(p, w) {
                    path.insert(0, i);
                    return Some((path, sort));
                }
            }
            None
        }
        _ => None,
    }
}

/// Returns a copy of `case` with the subtree at `path` replaced.
fn set_at(case: &Witness, path: &[usize], replacement: Witness) -> Witness {
    if path.is_empty() {
        return replacement;
    }
    match case {
        Witness::Ctor(op, args) => {
            let mut new_args = args.clone();
            new_args[path[0]] = set_at(&args[path[0]], &path[1..], replacement);
            Witness::Ctor(*op, new_args)
        }
        Witness::Any(_) => unreachable!("path into a wildcard"),
    }
}

fn materialize_inner(
    w: &Witness,
    fresh: &mut Fresh<'_>,
    pool: &mut Vec<(SortId, Vec<VarId>)>,
    counters: &mut std::collections::HashMap<SortId, usize>,
) -> Term {
    match w {
        Witness::Any(sort) => {
            let idx = counters.entry(*sort).or_insert(0);
            let var = fresh_var(*sort, *idx, fresh, pool);
            *idx += 1;
            Term::Var(var)
        }
        Witness::Ctor(op, args) => Term::App(
            *op,
            args.iter()
                .map(|a| materialize_inner(a, fresh, pool, counters))
                .collect(),
        ),
    }
}

/// The `idx`-th witness variable of `sort`, shared by every case: named
/// `<sort>_<n>` in lower case, with `n` counting from the pool's size
/// plus one up to the first free name.
fn fresh_var(
    sort: SortId,
    idx: usize,
    fresh: &mut Fresh<'_>,
    pool: &mut Vec<(SortId, Vec<VarId>)>,
) -> VarId {
    let entry = match pool.iter_mut().find(|(s, _)| *s == sort) {
        Some(e) => e,
        None => {
            pool.push((sort, Vec::new()));
            pool.last_mut().expect("just pushed")
        }
    };
    while entry.1.len() <= idx {
        let base = fresh.sig().sort(sort).name().to_lowercase();
        let n = entry.1.len() + 1;
        entry
            .1
            .push(fresh.var(sort, (n..).map(|k| format!("{base}_{k}"))));
    }
    entry.1[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::SpecBuilder;

    /// The complete Queue spec of §3.
    fn queue_spec(include_q4: bool) -> Spec {
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        let new = b.ctor("NEW", [], queue);
        let add = b.ctor("ADD", [queue, item], queue);
        let front = b.op("FRONT", [queue], item);
        let remove = b.op("REMOVE", [queue], queue);
        let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
        b.ctor("A", [], item);
        let q = Term::Var(b.var("q", queue));
        let i = Term::Var(b.var("i", item));
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("q1", b.app(is_empty, [b.app(new, [])]), tt);
        b.axiom(
            "q2",
            b.app(is_empty, [b.app(add, [q.clone(), i.clone()])]),
            ff,
        );
        b.axiom("q3", b.app(front, [b.app(new, [])]), Term::Error(item));
        if include_q4 {
            b.axiom(
                "q4",
                b.app(front, [b.app(add, [q.clone(), i.clone()])]),
                Term::ite(
                    b.app(is_empty, [q.clone()]),
                    i.clone(),
                    b.app(front, [q.clone()]),
                ),
            );
        }
        b.axiom("q5", b.app(remove, [b.app(new, [])]), Term::Error(queue));
        b.axiom(
            "q6",
            b.app(remove, [b.app(add, [q.clone(), i.clone()])]),
            Term::ite(
                b.app(is_empty, [q.clone()]),
                b.app(new, []),
                b.app(add, [b.app(remove, [q]), i]),
            ),
        );
        b.build().unwrap()
    }

    #[test]
    fn complete_queue_passes() {
        let spec = queue_spec(true);
        let report = check_completeness(&spec);
        assert!(report.is_sufficiently_complete(), "{}", report.prompts());
        assert_eq!(report.missing_case_count(), 0);
        assert_eq!(report.coverage().len(), 3); // FRONT, REMOVE, IS_EMPTY?
        assert!(report.prompts().contains("sufficiently complete"));
    }

    #[test]
    fn dropping_axiom_4_is_detected_with_the_right_witness() {
        let spec = queue_spec(false);
        let report = check_completeness(&spec);
        assert!(!report.is_sufficiently_complete());
        assert_eq!(report.missing_case_count(), 1);
        let front = spec.sig().find_op("FRONT").unwrap();
        let cov = report.for_op(front).unwrap();
        let Coverage::Missing(cases) = cov.coverage() else {
            panic!("expected missing cases");
        };
        let rendered = display::term(report.sig(), &cases[0]).to_string();
        assert_eq!(rendered, "FRONT(ADD(queue_1, item_1))");
        assert!(report.prompts().contains("FRONT(ADD(queue_1, item_1)) = ?"));
    }

    #[test]
    fn operation_with_no_axioms_reports_all_cases() {
        let mut b = SpecBuilder::new("Nat");
        let s = b.sort("Nat");
        b.ctor("ZERO", [], s);
        b.ctor("SUCC", [s], s);
        b.op("IS_ZERO?", [s], b.bool_sort());
        let spec = b.build().unwrap();
        let report = check_completeness(&spec);
        assert!(!report.is_sufficiently_complete());
        // No axiom constrains IS_ZERO? at all: one all-open missing case.
        assert_eq!(report.missing_case_count(), 1);
        let prompts = report.prompts();
        assert!(prompts.contains("IS_ZERO?(nat_1) = ?"), "{prompts}");
    }

    #[test]
    fn nested_patterns_cover_like_the_symboltable_axioms() {
        // LEAVEBLOCK is defined on INIT, ENTERBLOCK(s) and ADD(s, id): the
        // three constructor heads — complete even though patterns nest.
        let mut b = SpecBuilder::new("Sym");
        let st = b.sort("Symboltable");
        let ident = b.param_sort("Identifier");
        b.ctor("ID_A", [], ident);
        let init = b.ctor("INIT", [], st);
        let enter = b.ctor("ENTERBLOCK", [st], st);
        let add = b.ctor("ADD", [st, ident], st);
        let leave = b.op("LEAVEBLOCK", [st], st);
        let s = Term::Var(b.var("symtab", st));
        let id = Term::Var(b.var("id", ident));
        b.axiom("a1", b.app(leave, [b.app(init, [])]), Term::Error(st));
        b.axiom("a2", b.app(leave, [b.app(enter, [s.clone()])]), s.clone());
        b.axiom(
            "a3",
            b.app(leave, [b.app(add, [s.clone(), id])]),
            b.app(leave, [s]),
        );
        let spec = b.build().unwrap();
        let report = check_completeness(&spec);
        assert!(report.is_sufficiently_complete(), "{}", report.prompts());
    }

    #[test]
    fn missing_nested_case_is_pinpointed() {
        // Like above but the ENTERBLOCK case is missing.
        let mut b = SpecBuilder::new("Sym");
        let st = b.sort("Symboltable");
        let init = b.ctor("INIT", [], st);
        let _enter = b.ctor("ENTERBLOCK", [st], st);
        let leave = b.op("LEAVEBLOCK", [st], st);
        b.axiom("a1", b.app(leave, [b.app(init, [])]), Term::Error(st));
        let spec = b.build().unwrap();
        let report = check_completeness(&spec);
        let leave_id = spec.sig().find_op("LEAVEBLOCK").unwrap();
        let cov = report.for_op(leave_id).unwrap();
        let Coverage::Missing(cases) = cov.coverage() else {
            panic!("expected missing");
        };
        assert_eq!(cases.len(), 1);
        let rendered = display::term(report.sig(), &cases[0]).to_string();
        assert_eq!(rendered, "LEAVEBLOCK(ENTERBLOCK(symboltable_1))");
    }

    #[test]
    fn multi_argument_coverage_enumerates_combinations() {
        // EQ?: two Nat arguments, only (ZERO, ZERO) covered — expect the
        // checker to surface the remaining combinations.
        let mut b = SpecBuilder::new("Nat");
        let s = b.sort("Nat");
        let zero = b.ctor("ZERO", [], s);
        b.ctor("SUCC", [s], s);
        let eq = b.op("EQ?", [s, s], b.bool_sort());
        let tt = b.tt();
        b.axiom("e1", b.app(eq, [b.app(zero, []), b.app(zero, [])]), tt);
        let spec = b.build().unwrap();
        let report = check_completeness(&spec);
        let eq_id = spec.sig().find_op("EQ?").unwrap();
        let Coverage::Missing(cases) = report.for_op(eq_id).unwrap().coverage() else {
            panic!("expected missing");
        };
        // The uncovered space partitions into EQ?(ZERO, SUCC(_)) and
        // EQ?(SUCC(_), _).
        assert_eq!(cases.len(), 2, "cases: {cases:#?}");
        let rendered: Vec<String> = cases
            .iter()
            .map(|c| display::term(report.sig(), c).to_string())
            .collect();
        assert!(
            rendered.contains(&"EQ?(ZERO, SUCC(nat_1))".to_owned()),
            "{rendered:?}"
        );
        assert!(
            rendered.contains(&"EQ?(SUCC(nat_1), nat_2)".to_owned()),
            "{rendered:?}"
        );
    }

    #[test]
    fn nonlinear_pattern_is_flagged() {
        let mut b = SpecBuilder::new("Pair");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let same = b.op("SAME?", [s, s], b.bool_sort());
        let x = Term::Var(b.var("x", s));
        let tt = b.tt();
        // SAME?(x, x) = true — non-linear.
        b.axiom("s1", b.app(same, [x.clone(), x]), tt);
        let _ = c;
        let spec = b.build().unwrap();
        let report = check_completeness(&spec);
        let cov = &report.coverage()[0];
        assert!(!cov.is_complete());
        assert!(matches!(cov.notes()[0], PatternNote::NonLinear { .. }));
    }

    #[test]
    fn non_constructor_pattern_is_flagged() {
        let mut b = SpecBuilder::new("S");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let g = b.op("G", [s], s);
        // G(F(x)) = C: F below the head is not a constructor.
        let x = Term::Var(b.var("x", s));
        b.axiom("g1", b.app(g, [b.app(f, [x])]), b.app(c, []));
        b.axiom(
            "f1",
            b.app(f, [Term::Var(b.sig().find_var("x").unwrap())]),
            b.app(c, []),
        );
        let spec = b.build().unwrap();
        let report = check_completeness(&spec);
        let g_id = spec.sig().find_op("G").unwrap();
        let cov = report.for_op(g_id).unwrap();
        assert!(!cov.is_complete());
        assert!(cov
            .notes()
            .iter()
            .any(|n| matches!(n, PatternNote::NonConstructor { .. })));
    }

    #[test]
    fn parameter_sort_wildcards_cover_opaque_values() {
        // RETRIEVE-style op over a parameter sort with no sample
        // constructors: a wildcard covers it.
        let mut b = SpecBuilder::new("Box");
        let bx = b.sort("Box");
        let item = b.param_sort("Item");
        let mk = b.ctor("MK", [item], bx);
        let get = b.op("GET", [bx], item);
        let i = Term::Var(b.var("i", item));
        b.axiom("g1", b.app(get, [b.app(mk, [i.clone()])]), i);
        let spec = b.build().unwrap();
        let report = check_completeness(&spec);
        assert!(report.is_sufficiently_complete(), "{}", report.prompts());
    }

    #[test]
    fn axiom_counts_are_reported() {
        let spec = queue_spec(true);
        let report = check_completeness(&spec);
        let front = spec.sig().find_op("FRONT").unwrap();
        assert_eq!(report.for_op(front).unwrap().axiom_count(), 2);
    }
}
