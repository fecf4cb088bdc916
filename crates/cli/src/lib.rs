//! # adt-cli — the `adt` command-line tool
//!
//! A small driver over the whole toolchain, for working with `.adt`
//! specification files from a shell:
//!
//! ```text
//! adt check <file>                 parse + completeness + consistency
//! adt fmt <file>                   print the canonical form
//! adt eval <file> <term>           normalize a term of the specification
//! adt trace <file> <term>          normalize, showing every rewrite step
//! adt prove <file> <lhs> = <rhs>   prove an equation (with case analysis)
//! ```
//!
//! The command logic lives in this library (returning the output as a
//! string) so it is directly testable; the binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checkpoint;
pub mod repl;

use std::fmt::Write as _;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use adt_check::fault::fault_isolation_check;
use adt_check::{
    check_completeness_session, check_consistency_session, classification_warnings,
    overlap_warnings, recursion_warnings, CheckConfig, CheckStats, ConsistencyVerdict, FaultSpec,
    ProbeConfig, RetryFuel,
};
use adt_core::{display, Deadline, Fuel, Session, Spec, Supervisor, Term};
use adt_dsl::{parse_session, parse_term, print_spec};
use adt_rewrite::{Proof, Rewriter};

use checkpoint::{fnv1a_hex, Checkpoint, Phase, VerdictGroup};

/// The outcome of running a command: what to print, and the exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Text for stdout.
    pub output: String,
    /// Process exit code (0 = success; 1 = the check failed; 2 = usage or
    /// input error).
    pub code: i32,
}

impl Outcome {
    fn ok(output: String) -> Self {
        Outcome { output, code: 0 }
    }

    fn fail(output: String) -> Self {
        Outcome { output, code: 1 }
    }

    fn usage(output: String) -> Self {
        Outcome { output, code: 2 }
    }
}

/// The usage banner.
pub const USAGE: &str = "usage:
  adt check [--jobs N] [--stats] [--fuel N] [--deadline DUR] [--retry-fuel PLAN]
            [--checkpoint FILE] [--faults PLAN] <file.adt>
                                       parse and run the mechanical checks
                                       (--jobs 0 = all cores; --stats prints
                                       worker/probe and session arena/cache
                                       telemetry; --fuel caps
                                       rewrite steps per work item; --deadline
                                       bounds the whole run by wall clock,
                                       e.g. 500ms, 2s, 1m — work stopped at
                                       the deadline reports UNDETERMINED;
                                       --retry-fuel re-runs items that ran out
                                       of steps with escalating budgets, e.g.
                                       \"factor=4,rungs=3,cap=64000000\";
                                       --checkpoint records each finished
                                       phase in FILE so an interrupted run
                                       resumes instead of restarting; --faults
                                       injects engine faults, e.g.
                                       \"seed=7,panic=1\", and verifies the
                                       non-faulted verdicts are untouched)
  adt batch [--jobs N] [--fuel N] [--deadline DUR] [--retry-fuel PLAN] <dir>
                                       check every .adt spec in a directory;
                                       each spec gets its own deadline and
                                       panic isolation, and a spec that
                                       panics twice is QUARANTINED (the only
                                       batch outcome with a nonzero exit)
  adt fmt <file.adt>                   print the canonical form
  adt eval <file.adt> <term>           normalize a term
  adt trace <file.adt> <term>          normalize, printing the derivation
  adt prove <file.adt> <lhs> = <rhs>   prove an equation by rewriting
  adt repl <file.adt>                  interactive symbolic interpretation
";

/// Options parsed from `adt check` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CheckOpts {
    /// Worker threads (`0` = every available core). The default, 1, keeps
    /// output timing-free and matches the sequential checker exactly.
    jobs: usize,
    /// Whether to print the [`CheckStats`] telemetry after the report.
    stats: bool,
    /// Rewrite-step budget per work item (`None` = the engine default).
    fuel: Option<u64>,
    /// Wall-clock budget for the whole run (`None` = unbounded).
    deadline: Option<Duration>,
    /// Escalating-fuel retry ladder for exhausted items (`None` = no retry).
    retry: Option<RetryFuel>,
    /// Checkpoint file for phase-granular resume (`None` = no checkpoint).
    checkpoint: Option<String>,
    /// Fault-injection plan (switches `check` into isolation-harness mode).
    faults: Option<FaultSpec>,
}

/// Splits the `check`/`batch` flags out of an argument list, leaving the
/// positional arguments in place.
fn parse_check_flags(args: &[String]) -> Result<(CheckOpts, Vec<String>), String> {
    let mut opts = CheckOpts {
        jobs: 1,
        stats: false,
        fuel: None,
        deadline: None,
        retry: None,
        checkpoint: None,
        faults: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stats" => opts.stats = true,
            "--jobs" => {
                let Some(n) = it.next() else {
                    return Err("--jobs needs a number (0 = all cores)\n".to_owned());
                };
                opts.jobs = n
                    .parse()
                    .map_err(|_| format!("--jobs: `{n}` is not a number\n"))?;
            }
            "--fuel" => {
                let Some(n) = it.next() else {
                    return Err("--fuel needs a rewrite-step budget\n".to_owned());
                };
                let steps: u64 = n
                    .parse()
                    .map_err(|_| format!("--fuel: `{n}` is not a number\n"))?;
                if steps == 0 {
                    return Err("--fuel: the budget must be at least 1\n".to_owned());
                }
                opts.fuel = Some(steps);
            }
            "--deadline" => {
                let Some(dur) = it.next() else {
                    return Err("--deadline needs a duration, e.g. 500ms, 2s, 1m\n".to_owned());
                };
                opts.deadline = Some(parse_deadline(dur)?);
            }
            "--retry-fuel" => {
                let Some(plan) = it.next() else {
                    return Err("--retry-fuel needs a plan, e.g. \"factor=4,rungs=3\"\n".to_owned());
                };
                opts.retry =
                    Some(RetryFuel::parse(plan).map_err(|e| format!("--retry-fuel: {e}\n"))?);
            }
            "--checkpoint" => {
                let Some(path) = it.next() else {
                    return Err("--checkpoint needs a file path\n".to_owned());
                };
                opts.checkpoint = Some(path.clone());
            }
            "--faults" => {
                let Some(plan) = it.next() else {
                    return Err("--faults needs a plan, e.g. \"seed=7,panic=1\"\n".to_owned());
                };
                opts.faults = Some(FaultSpec::parse(plan).map_err(|e| format!("--faults: {e}\n"))?);
            }
            _ => positional.push(arg.clone()),
        }
    }
    Ok((opts, positional))
}

/// Parses a human wall-clock duration: `500ms`, `2s`, `1m`, or a bare
/// number of seconds. Zero is allowed — an already-expired deadline is the
/// cheapest way to see a fully degraded (all-UNDETERMINED) report.
pub(crate) fn parse_deadline(text: &str) -> Result<Duration, String> {
    // `ms` must be peeled before `s`: every millisecond suffix also ends
    // in the seconds suffix.
    let (digits, unit_ms) = if let Some(n) = text.strip_suffix("ms") {
        (n, 1.0)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1000.0)
    } else if let Some(n) = text.strip_suffix('m') {
        (n, 60_000.0)
    } else {
        (text, 1000.0)
    };
    let value: f64 = digits
        .parse()
        .map_err(|_| format!("--deadline: `{text}` is not a duration (try 500ms, 2s, 1m)\n"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("--deadline: `{text}` is not a duration\n"));
    }
    Ok(Duration::from_secs_f64(value * unit_ms / 1000.0))
}

/// Runs the tool on already-split arguments (without the program name).
pub fn run(args: &[String]) -> Outcome {
    match args {
        [] => Outcome::usage(USAGE.to_owned()),
        [cmd, rest @ ..] => match cmd.as_str() {
            "check" => match parse_check_flags(rest) {
                Ok((opts, positional)) => {
                    with_file(&positional, 0, |session, _| cmd_check(session, &opts).0)
                }
                Err(msg) => Outcome::usage(format!("{msg}{USAGE}")),
            },
            "batch" => cmd_batch(rest),
            "fmt" => with_file(rest, 0, |session, _| {
                Outcome::ok(print_spec(session.spec()))
            }),
            "eval" | "trace" => with_file(rest, 1, |session, extra| {
                cmd_eval(session, &extra[0], cmd == "trace")
            }),
            // adt prove <file> <lhs> = <rhs>
            "prove" => match rest {
                [_, _, eq, _] if eq == "=" => with_file(rest, 3, |session, extra| {
                    cmd_prove(session, &extra[0], &extra[2])
                }),
                _ => Outcome::usage(USAGE.to_owned()),
            },
            "help" | "--help" | "-h" => Outcome::ok(USAGE.to_owned()),
            other => Outcome::usage(format!("unknown command `{other}`\n{USAGE}")),
        },
    }
}

/// Loads the `.adt` file named by `args[0]` into one [`Session`] (the
/// interned workspace every command runs against), requires exactly
/// `extra_args` further arguments, and hands both to `f`.
fn with_file(
    args: &[String],
    extra_args: usize,
    f: impl FnOnce(&Session, &[String]) -> Outcome,
) -> Outcome {
    if args.len() != extra_args + 1 {
        return Outcome::usage(USAGE.to_owned());
    }
    let path = &args[0];
    let source = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return Outcome::usage(format!("cannot read `{path}`: {e}\n")),
    };
    match parse_session(&source) {
        Ok(session) => f(&session, &args[1..]),
        Err(diags) => Outcome::fail(diags.render(&source)),
    }
}

/// `adt check`: the report to print, and the verdict `adt batch` counts.
fn cmd_check(session: &Session, opts: &CheckOpts) -> (Outcome, BatchVerdict) {
    let spec = session.spec();
    let mut config = CheckConfig::jobs(opts.jobs);
    if let Some(steps) = opts.fuel {
        config = config.with_fuel(Fuel::steps(steps));
    }
    if let Some(retry) = opts.retry {
        config = config.with_retry(retry);
    }
    if let Some(budget) = opts.deadline {
        // The deadline starts counting here, at command entry, so every
        // phase shares one wall-clock budget.
        config = config.with_supervisor(Supervisor::none().with_deadline(Deadline::after(budget)));
    }
    if let Some(plan) = &opts.faults {
        if opts.checkpoint.is_some() {
            // Fault runs are deliberately non-representative; caching their
            // verdicts would poison a later real resume.
            return (
                Outcome::usage(format!(
                    "--checkpoint cannot be combined with --faults\n{USAGE}"
                )),
                BatchVerdict::Failed,
            );
        }
        // The fault harness compares faulted runs with a fault-free one
        // and reports that comparison instead of the usual verdicts.
        let outcome = cmd_check_faults(spec, plan, &config);
        let verdict = BatchVerdict::of(&outcome, false);
        return (outcome, verdict);
    }

    // A checkpoint is keyed on the spec's canonical text and the parts of
    // the configuration that determine verdicts (fuel and the retry plan —
    // NOT --jobs, which never changes the report, and NOT the deadline,
    // since a resume may run under a different remaining budget).
    let mut ckpt = opts.checkpoint.as_ref().map(|path| {
        let spec_hash = fnv1a_hex(&print_spec(spec));
        let fingerprint = config_fingerprint(&config);
        let loaded = Checkpoint::load(Path::new(path))
            .filter(|c| c.matches(&spec_hash, &fingerprint))
            .unwrap_or_else(|| Checkpoint::new(spec_hash, fingerprint));
        (PathBuf::from(path), loaded)
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} sort(s) of interest, {} operation(s), {} axiom(s)",
        spec.name(),
        spec.tois().len(),
        spec.sig().op_count(),
        spec.axioms().len()
    );
    let mut failed = false;
    // Set by a phase that ran out of fuel or time before its verdict.
    let mut undetermined = false;

    // ---- completeness phase (cached section replayed verbatim) ----
    let mut completeness = None;
    match ckpt.as_ref().and_then(|(_, c)| c.phase("completeness")) {
        Some(cached) => {
            failed |= cached.failed;
            undetermined |= opens_undetermined(&cached.section);
            out.push_str(&cached.section);
        }
        None => {
            let report = check_completeness_session(session, &config);
            let mut section = String::new();
            let phase_failed = if report.has_definite_missing() {
                // Definite negatives fail the check; a merely *partial*
                // analysis (exhausted, interrupted, or faulted) is reported
                // but keeps exit code 0 — the engine ran out of budget, the
                // spec was not proved wrong.
                let _ = writeln!(section, "sufficiently complete: NO");
                for line in report.prompts().lines() {
                    let _ = writeln!(section, "  {line}");
                }
                true
            } else if !report.undetermined_ops().is_empty() {
                let _ = writeln!(
                    section,
                    "sufficiently complete: UNDETERMINED (partial analysis)"
                );
                for line in report.prompts().lines() {
                    let _ = writeln!(section, "  {line}");
                }
                undetermined = true;
                false
            } else {
                let _ = writeln!(section, "sufficiently complete: yes");
                false
            };
            failed |= phase_failed;
            // Only a phase that ran to the end is worth remembering: an
            // interrupted analysis would replay its degraded verdicts on
            // resume instead of finishing the work.
            if report.interrupted_ops() == 0 {
                if let Some((path, c)) = ckpt.as_mut() {
                    c.set_phase(Phase {
                        name: "completeness".to_owned(),
                        failed: phase_failed,
                        section: section.clone(),
                        verdicts: Vec::new(),
                    });
                    let _ = c.save(path);
                }
            }
            out.push_str(&section);
            completeness = Some(report);
        }
    }

    // ---- consistency phase ----
    let mut consistency = None;
    match ckpt.as_ref().and_then(|(_, c)| c.phase("consistency")) {
        Some(cached) => {
            failed |= cached.failed;
            undetermined |= opens_undetermined(&cached.section);
            out.push_str(&cached.section);
        }
        None => {
            let report = check_consistency_session(session, &ProbeConfig::default(), &config);
            let mut section = String::new();
            let phase_failed = match report.verdict() {
                ConsistencyVerdict::Consistent => {
                    let _ = writeln!(
                        section,
                        "consistent: yes ({} critical pairs, {} probes)",
                        report.pairs_checked(),
                        report.probes_run()
                    );
                    false
                }
                ConsistencyVerdict::Exhausted => {
                    let _ = writeln!(
                        section,
                        "consistent: UNDETERMINED (normalization exhausted its fuel budget)"
                    );
                    for line in report.summary().lines().skip(1) {
                        let _ = writeln!(section, "  {line}");
                    }
                    undetermined = true;
                    false
                }
                ConsistencyVerdict::Interrupted => {
                    let _ = writeln!(
                        section,
                        "consistent: UNDETERMINED (checking was interrupted before a verdict)"
                    );
                    for line in report.summary().lines().skip(1) {
                        let _ = writeln!(section, "  {line}");
                    }
                    undetermined = true;
                    false
                }
                ConsistencyVerdict::Inconsistent | ConsistencyVerdict::Unknown => {
                    let _ = writeln!(section, "consistent: NO");
                    for line in report.summary().lines().skip(1) {
                        let _ = writeln!(section, "  {line}");
                    }
                    true
                }
            };
            for f in report.failures() {
                let _ = writeln!(section, "warning: {}", f.error);
            }
            failed |= phase_failed;
            if report.interrupted_items() == 0 {
                if let Some((path, c)) = ckpt.as_mut() {
                    c.set_phase(Phase {
                        name: "consistency".to_owned(),
                        failed: phase_failed,
                        section: section.clone(),
                        verdicts: vec![
                            VerdictGroup {
                                group: "pairs".to_owned(),
                                items: report.pair_verdicts().to_vec(),
                            },
                            VerdictGroup {
                                group: "probes".to_owned(),
                                items: report.probe_verdicts().to_vec(),
                            },
                        ],
                    });
                    let _ = c.save(path);
                }
            }
            out.push_str(&section);
            consistency = Some(report);
        }
    }

    // Structural warnings are cheap and deterministic — always recomputed,
    // never cached.
    for w in classification_warnings(spec) {
        let _ = writeln!(out, "warning: {w}");
    }
    for w in overlap_warnings(spec) {
        let _ = writeln!(out, "warning: {w}");
    }
    for w in recursion_warnings(spec) {
        let _ = writeln!(out, "warning: {w}");
    }

    if opts.stats {
        // Fold both phases into one telemetry block. Timings vary between
        // runs; everything above this line does not. Phases replayed from a
        // checkpoint did no work, so they contribute nothing here.
        let mut stats = CheckStats::default();
        if let Some(c) = completeness.as_ref().map(|r| r.stats()) {
            stats.absorb(&c.busy, c.elapsed, c.items);
            stats.op_times = c.op_times.clone();
            stats.retries.extend(c.retries.iter().cloned());
        }
        if let Some(k) = consistency.as_ref().map(|r| r.stats()) {
            stats.absorb(&k.busy, k.elapsed, k.items);
            stats.pairs_checked = k.pairs_checked;
            stats.probes_run = k.probes_run;
            stats.rewrite_steps = k.rewrite_steps;
            stats.retries.extend(k.retries.iter().cloned());
        }
        out.push_str(&stats.render());
        out.push_str(&session.stats().render());
    }

    let outcome = if failed {
        Outcome::fail(out)
    } else {
        Outcome::ok(out)
    };
    let verdict = BatchVerdict::of(&outcome, undetermined);
    (outcome, verdict)
}

/// Whether a phase section replayed from a checkpoint opens with an
/// UNDETERMINED verdict line (`sufficiently complete: …` or
/// `consistent: …`, as [`cmd_check`] writes them).
fn opens_undetermined(section: &str) -> bool {
    section
        .lines()
        .next()
        .is_some_and(|header| header.contains(": UNDETERMINED"))
}

/// The configuration fingerprint checkpoints are validated against.
fn config_fingerprint(config: &CheckConfig) -> String {
    let retry = match &config.retry {
        Some(r) => format!("factor={},rungs={},cap={}", r.factor, r.rungs, r.cap_steps),
        None => "none".to_owned(),
    };
    format!("fuel={};retry={retry}", config.fuel.steps)
}

/// `adt check --faults`: run the fault-isolation harness instead of the
/// plain checks. Exit code 0 means every *non-faulted* work item produced
/// a verdict byte-identical to a fault-free run — the injected faults
/// (worker panics, exhausted budgets, slow chunks) were fully contained.
fn cmd_check_faults(spec: &Spec, plan: &FaultSpec, config: &CheckConfig) -> Outcome {
    let report = fault_isolation_check(spec, &ProbeConfig::default(), plan, config);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: fault-injection harness ({} fault(s) armed, {} job(s))",
        spec.name(),
        report.faults_injected(),
        config.jobs
    );
    out.push_str(&report.render());
    if report.isolated() {
        Outcome::ok(out)
    } else {
        Outcome::fail(out)
    }
}

/// One spec's outcome under `adt batch`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BatchVerdict {
    /// Every check passed.
    Passed,
    /// A definite negative (incomplete, inconsistent, or a parse error).
    Failed,
    /// The checks ran out of fuel or time before a verdict.
    Undetermined,
    /// The spec made the checker panic twice in a row; the payload is the
    /// second panic's message.
    Quarantined(String),
}

impl BatchVerdict {
    /// The verdict of a check that exited with `outcome`, given whether a
    /// phase ended UNDETERMINED: a nonzero exit is a definite failure.
    fn of(outcome: &Outcome, undetermined: bool) -> Self {
        if outcome.code != 0 {
            BatchVerdict::Failed
        } else if undetermined {
            BatchVerdict::Undetermined
        } else {
            BatchVerdict::Passed
        }
    }
}

/// Runs one spec's check with panic isolation: a first panic earns one
/// retry (transient faults happen), a second quarantines the spec. Returns
/// the verdict and how many attempts panicked.
fn supervise_spec(check: impl Fn() -> BatchVerdict) -> (BatchVerdict, u32) {
    for attempt in 0u32..2 {
        match catch_unwind(AssertUnwindSafe(&check)) {
            Ok(verdict) => return (verdict, attempt),
            Err(payload) if attempt == 0 => drop(payload),
            Err(payload) => return (BatchVerdict::Quarantined(panic_text(&*payload)), 2),
        }
    }
    unreachable!("both attempts return above")
}

pub(crate) fn panic_text(payload: &dyn std::any::Any) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// `adt batch <dir>`: checks every `.adt` spec in a directory, in name
/// order, under one supervisor policy. Each spec gets a *fresh* deadline
/// (the `--deadline` budget is per spec, not for the whole batch) and full
/// panic isolation. FAILED and UNDETERMINED specs are reported but do not
/// affect the exit code — a batch is a survey, not a gate; only a
/// quarantined spec (the checker itself crashed twice) exits nonzero.
fn cmd_batch(args: &[String]) -> Outcome {
    let (opts, positional) = match parse_check_flags(args) {
        Ok(parsed) => parsed,
        Err(msg) => return Outcome::usage(format!("{msg}{USAGE}")),
    };
    if opts.checkpoint.is_some() {
        return Outcome::usage(format!(
            "batch does not take --checkpoint (each spec is checked in isolation)\n{USAGE}"
        ));
    }
    if opts.faults.is_some() {
        return Outcome::usage(format!(
            "batch does not take --faults (use `adt check --faults` per spec)\n{USAGE}"
        ));
    }
    let [dir] = positional.as_slice() else {
        return Outcome::usage(USAGE.to_owned());
    };
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => return Outcome::usage(format!("cannot read `{dir}`: {e}\n")),
    };
    let mut specs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "adt"))
        .collect();
    specs.sort();
    if specs.is_empty() {
        return Outcome::usage(format!("no .adt specs in `{dir}`\n"));
    }

    let mut out = String::new();
    let (mut passed, mut failed, mut undetermined, mut quarantined) = (0, 0, 0, 0);
    for path in &specs {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let (verdict, panics) = supervise_spec(|| {
            // An unreadable or unparsable file is a definite failure.
            let Ok(source) = fs::read_to_string(path) else {
                return BatchVerdict::Failed;
            };
            match parse_session(&source) {
                // cmd_check re-arms Deadline::after at entry, so each spec
                // starts with the full --deadline budget.
                Ok(session) => cmd_check(&session, &opts).1,
                Err(_) => BatchVerdict::Failed,
            }
        });
        let retried = if panics == 1 {
            " (retried after a panic)"
        } else {
            ""
        };
        match verdict {
            BatchVerdict::Passed => {
                passed += 1;
                let _ = writeln!(out, "  {name}: PASSED{retried}");
            }
            BatchVerdict::Failed => {
                failed += 1;
                let _ = writeln!(out, "  {name}: FAILED{retried}");
            }
            BatchVerdict::Undetermined => {
                undetermined += 1;
                let _ = writeln!(out, "  {name}: UNDETERMINED{retried}");
            }
            BatchVerdict::Quarantined(msg) => {
                quarantined += 1;
                let _ = writeln!(out, "  {name}: QUARANTINED (panicked twice: {msg})");
            }
        }
    }
    let _ = writeln!(
        out,
        "batch: {} spec(s) — {passed} passed, {failed} failed, {undetermined} undetermined, \
         {quarantined} quarantined",
        specs.len()
    );
    if quarantined > 0 {
        Outcome::fail(out)
    } else {
        Outcome::ok(out)
    }
}

fn cmd_eval(session: &Session, term_src: &str, trace: bool) -> Outcome {
    let term = match parse_term(session.spec(), term_src) {
        Ok(term) => term,
        Err(diags) => return Outcome::fail(diags.render(term_src)),
    };
    match query(session, &term, trace, Supervisor::none()) {
        Ok(out) => Outcome::ok(out),
        Err(e) => Outcome::fail(e),
    }
}

/// The reply of `adt eval`/`adt trace` and of the REPL's bare-term and
/// `:trace` lines: `term` normalized cold, on a run-local store, so the
/// reply never depends on earlier work in `session`. `Err` is the error line.
pub(crate) fn query(
    session: &Session,
    term: &Term,
    trace: bool,
    supervisor: Supervisor,
) -> Result<String, String> {
    let sig = session.sig();
    let rw = Rewriter::for_session(session).supervised(supervisor);
    if trace {
        let (nf, trace) = rw.normalize_traced(term).map_err(|e| format!("{e}\n"))?;
        let mut out = trace.render(sig).to_string();
        let _ = writeln!(out, "normal form: {}", display::term(sig, &nf));
        Ok(out)
    } else {
        let norm = rw.normalize_full(term).map_err(|e| format!("{e}\n"))?;
        session.note_normalizations(1, norm.steps);
        Ok(format!(
            "{}   ({} step(s))\n",
            display::term(sig, &norm.term),
            norm.steps
        ))
    }
}

fn cmd_prove(session: &Session, lhs_src: &str, rhs_src: &str) -> Outcome {
    let spec = session.spec();
    let lhs = match parse_term(spec, lhs_src) {
        Ok(term) => term,
        Err(diags) => return Outcome::fail(diags.render(lhs_src)),
    };
    let rhs = match parse_term(spec, rhs_src) {
        Ok(term) => term,
        Err(diags) => return Outcome::fail(diags.render(rhs_src)),
    };
    let rw = Rewriter::for_session(session);
    match rw.prove_equal(&lhs, &rhs, 8) {
        Ok(Proof::Proved { cases }) => Outcome::ok(format!("proved ({cases} case(s))\n")),
        Ok(Proof::Undecided {
            assumptions,
            lhs_nf,
            rhs_nf,
        }) => {
            let mut out = String::from("NOT proved\n");
            if !assumptions.is_empty() {
                let _ = writeln!(out, "under the assumptions:");
                for (t, b) in &assumptions {
                    let _ = writeln!(out, "  {} = {b}", display::term(spec.sig(), t));
                }
            }
            let _ = writeln!(
                out,
                "left side normalizes to:  {}",
                display::term(spec.sig(), &lhs_nf)
            );
            let _ = writeln!(
                out,
                "right side normalizes to: {}",
                display::term(spec.sig(), &rhs_nf)
            );
            Outcome::fail(out)
        }
        Err(e) => Outcome::fail(format!("{e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture(name: &str, contents: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("adt_cli_test_{}_{name}.adt", std::process::id()));
        fs::write(&path, contents).expect("temp file is writable");
        path
    }

    const QUEUE: &str = r#"
type Queue
param Item
ops
  NEW: -> Queue ctor
  ADD: Queue, Item -> Queue ctor
  FRONT: Queue -> Item
  REMOVE: Queue -> Queue
  IS_EMPTY?: Queue -> Bool
  A: -> Item ctor
  B: -> Item ctor
vars
  q: Queue
  i: Item
axioms
  [1] IS_EMPTY?(NEW) = true
  [2] IS_EMPTY?(ADD(q, i)) = false
  [3] FRONT(NEW) = error
  [4] FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
  [5] REMOVE(NEW) = error
  [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end
"#;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]);
        assert_eq!(out.code, 2);
        assert!(out.output.contains("usage:"));
    }

    #[test]
    fn unknown_command_prints_usage() {
        let out = run(&args(&["frobnicate"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("unknown command"));
    }

    #[test]
    fn check_passes_on_a_good_file() {
        let path = fixture("good", QUEUE);
        let out = run(&args(&["check", path.to_str().unwrap()]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("sufficiently complete: yes"));
        assert!(out.output.contains("consistent: yes"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_jobs_and_stats_flags_are_parsed() {
        let path = fixture("flags", QUEUE);
        let out = run(&args(&[
            "check",
            "--jobs",
            "4",
            "--stats",
            path.to_str().unwrap(),
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("stats: 4 job(s)"), "{}", out.output);
        assert!(out.output.contains("utilization"), "{}", out.output);
        assert!(
            out.output.contains("stats: session arena"),
            "{}",
            out.output
        );
        assert!(out.output.contains("normalization(s)"), "{}", out.output);
        assert!(!out.output.contains("memo"), "{}", out.output);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_without_stats_prints_no_telemetry() {
        let path = fixture("nostats", QUEUE);
        let out = run(&args(&["check", path.to_str().unwrap()]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(!out.output.contains("stats:"), "{}", out.output);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_report_is_identical_across_job_counts() {
        let path = fixture("jobseq", QUEUE);
        let seq = run(&args(&["check", "--jobs", "1", path.to_str().unwrap()]));
        let par = run(&args(&["check", "--jobs", "4", path.to_str().unwrap()]));
        assert_eq!(seq, par);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_rejects_malformed_jobs_flag() {
        let out = run(&args(&["check", "--jobs", "many", "x.adt"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("not a number"));
        let out = run(&args(&["check", "--jobs"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("--jobs needs a number"));
    }

    const LOOP: &str =
        "type L\nops\n  C: -> L ctor\n  F: L -> L\nvars\n  x: L\naxioms\n  [1] F(x) = F(x)\nend\n";

    #[test]
    fn check_fuel_flag_surfaces_divergence_as_undetermined() {
        let path = fixture("fuel", LOOP);
        for jobs in ["1", "4"] {
            let out = run(&args(&[
                "check",
                "--jobs",
                jobs,
                "--fuel",
                "100",
                path.to_str().unwrap(),
            ]));
            assert_eq!(out.code, 0, "jobs {jobs}: {}", out.output);
            assert!(
                out.output.contains("consistent: UNDETERMINED"),
                "jobs {jobs}: {}",
                out.output
            );
            assert!(
                out.output.contains("exhausted probe"),
                "jobs {jobs}: {}",
                out.output
            );
        }
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_faults_flag_runs_the_isolation_harness() {
        let path = fixture("faults", QUEUE);
        for jobs in ["1", "4"] {
            let out = run(&args(&[
                "check",
                "--jobs",
                jobs,
                "--faults",
                "seed=7,panic=1",
                path.to_str().unwrap(),
            ]));
            assert_eq!(out.code, 0, "jobs {jobs}: {}", out.output);
            assert!(
                out.output.contains("fault-injection harness"),
                "jobs {jobs}: {}",
                out.output
            );
            assert!(
                out.output.contains("non-faulted verdicts identical: yes"),
                "jobs {jobs}: {}",
                out.output
            );
            assert!(
                out.output.contains("faulted item(s) ["),
                "jobs {jobs}: {}",
                out.output
            );
        }
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_rejects_malformed_fuel_and_fault_flags() {
        let out = run(&args(&["check", "--fuel", "many", "x.adt"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("not a number"));
        let out = run(&args(&["check", "--fuel", "0", "x.adt"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("at least 1"));
        let out = run(&args(&["check", "--faults", "frobnicate=1", "x.adt"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("unknown fault plan key"));
        let out = run(&args(&["check", "--faults"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("--faults needs a plan"));
    }

    #[test]
    fn check_fails_on_an_incomplete_file() {
        let incomplete: String = QUEUE
            .lines()
            .filter(|l| !l.contains("[4]"))
            .collect::<Vec<_>>()
            .join("\n");
        let path = fixture("incomplete", &incomplete);
        let out = run(&args(&["check", path.to_str().unwrap()]));
        assert_eq!(out.code, 1);
        assert!(out.output.contains("sufficiently complete: NO"));
        assert!(out.output.contains("FRONT(ADD("), "{}", out.output);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_reports_parse_errors_with_carets() {
        let path = fixture("broken", "type Q\nops\n  F: Zorp -> Q\nend");
        let out = run(&args(&["check", path.to_str().unwrap()]));
        assert_eq!(out.code, 1);
        assert!(out.output.contains("unknown sort `Zorp`"));
        assert!(out.output.contains('^'));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_a_usage_error() {
        let out = run(&args(&["check", "/no/such/file.adt"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("cannot read"));
    }

    #[test]
    fn fmt_round_trips() {
        let path = fixture("fmt", QUEUE);
        let out = run(&args(&["fmt", path.to_str().unwrap()]));
        assert_eq!(out.code, 0);
        assert!(out.output.contains("type Queue"));
        assert!(out.output.contains("[4] FRONT(ADD(q, i)) ="));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn eval_normalizes_terms() {
        let path = fixture("eval", QUEUE);
        let out = run(&args(&[
            "eval",
            path.to_str().unwrap(),
            "FRONT(ADD(ADD(NEW, A), B))",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.starts_with("A "), "{}", out.output);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn eval_reports_bad_terms() {
        let path = fixture("evalbad", QUEUE);
        let out = run(&args(&[
            "eval",
            path.to_str().unwrap(),
            "FRONT(APPEND(NEW))",
        ]));
        assert_eq!(out.code, 1);
        assert!(out.output.contains("unknown operation `APPEND`"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn trace_shows_the_derivation() {
        let path = fixture("trace", QUEUE);
        let out = run(&args(&[
            "trace",
            path.to_str().unwrap(),
            "REMOVE(ADD(NEW, A))",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("=[6]=>"), "{}", out.output);
        assert!(out.output.contains("normal form: NEW"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn prove_closes_a_symbolic_equation() {
        let path = fixture("prove", QUEUE);
        let out = run(&args(&[
            "prove",
            path.to_str().unwrap(),
            "FRONT(ADD(q, i))",
            "=",
            "if IS_EMPTY?(q) then i else FRONT(q)",
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("proved"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn prove_reports_failures_with_normal_forms() {
        let path = fixture("provebad", QUEUE);
        let out = run(&args(&["prove", path.to_str().unwrap(), "A", "=", "B"]));
        assert_eq!(out.code, 1);
        assert!(out.output.contains("NOT proved"));
        assert!(out.output.contains("left side normalizes to:  A"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn prove_usage_requires_equals_sign() {
        let path = fixture("proveusage", QUEUE);
        let out = run(&args(&["prove", path.to_str().unwrap(), "A", "B"]));
        assert_eq!(out.code, 2);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn parse_deadline_accepts_common_suffixes() {
        assert_eq!(parse_deadline("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_deadline("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_deadline("1m").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_deadline("3").unwrap(), Duration::from_secs(3));
        assert_eq!(parse_deadline("0s").unwrap(), Duration::ZERO);
        assert_eq!(parse_deadline("1.5s").unwrap(), Duration::from_millis(1500));
        assert!(parse_deadline("fast").is_err());
        assert!(parse_deadline("-1s").is_err());
        let out = run(&args(&["check", "--deadline", "soon", "x.adt"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("not a duration"));
    }

    #[test]
    fn check_expired_deadline_degrades_to_undetermined() {
        let path = fixture("deadline0", QUEUE);
        let mut reports = Vec::new();
        for jobs in ["1", "4"] {
            let out = run(&args(&[
                "check",
                "--jobs",
                jobs,
                "--deadline",
                "0s",
                path.to_str().unwrap(),
            ]));
            assert_eq!(out.code, 0, "jobs {jobs}: {}", out.output);
            assert!(
                out.output
                    .contains("sufficiently complete: UNDETERMINED (partial analysis)"),
                "jobs {jobs}: {}",
                out.output
            );
            assert!(
                out.output
                    .contains("consistent: UNDETERMINED (checking was interrupted"),
                "jobs {jobs}: {}",
                out.output
            );
            assert!(
                out.output.contains("deadline exceeded"),
                "jobs {jobs}: {}",
                out.output
            );
            reports.push(out);
        }
        // An already-expired deadline interrupts every item before it
        // starts, so even the degraded report is identical at any --jobs.
        assert_eq!(reports[0], reports[1]);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_generous_deadline_leaves_the_report_untouched() {
        let path = fixture("deadline60", QUEUE);
        let plain = run(&args(&["check", path.to_str().unwrap()]));
        let supervised = run(&args(&[
            "check",
            "--deadline",
            "60s",
            path.to_str().unwrap(),
        ]));
        assert_eq!(plain, supervised);
        let _ = fs::remove_file(path);
    }

    fn retry_stat_lines(output: &str) -> Vec<String> {
        output
            .lines()
            .filter(|l| l.contains("stats: retry"))
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn check_retry_ladder_reports_rescued_rungs_in_stats() {
        // Starve the checker (--fuel 2) and let the ladder escalate: items
        // that exhausted their first budget come back rescued, and --stats
        // names the rung that saved each one. Every item's ladder depends
        // only on the item and its budgets, so the telemetry is the same
        // on a re-run and at any --jobs.
        let path = fixture("retry", QUEUE);
        let cmd = args(&[
            "check",
            "--fuel",
            "2",
            "--retry-fuel",
            "factor=8,rungs=3",
            "--stats",
            path.to_str().unwrap(),
        ]);
        let out = run(&cmd);
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("rescued at rung"), "{}", out.output);
        let lines = retry_stat_lines(&out.output);
        assert!(!lines.is_empty(), "{}", out.output);
        // Re-running the same command reproduces the same ladder telemetry.
        assert_eq!(lines, retry_stat_lines(&run(&cmd).output));
        let mut parallel = cmd.clone();
        parallel.splice(1..1, ["--jobs".to_owned(), "4".to_owned()]);
        assert_eq!(lines, retry_stat_lines(&run(&parallel).output));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_retry_ladder_telemetry_is_identical_across_job_counts() {
        // A genuinely divergent operation can never be rescued — no
        // scheduling changes that — so the rung telemetry must be
        // byte-identical at any --jobs.
        let path = fixture("retryloop", LOOP);
        let mut per_jobs = Vec::new();
        for jobs in ["1", "4"] {
            let out = run(&args(&[
                "check",
                "--jobs",
                jobs,
                "--fuel",
                "100",
                "--retry-fuel",
                "factor=4,rungs=2",
                "--stats",
                path.to_str().unwrap(),
            ]));
            assert_eq!(out.code, 0, "jobs {jobs}: {}", out.output);
            assert!(
                out.output.contains("still exhausted at rung 2"),
                "jobs {jobs}: {}",
                out.output
            );
            per_jobs.push(retry_stat_lines(&out.output));
        }
        assert_eq!(per_jobs[0], per_jobs[1]);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_rejects_malformed_retry_and_deadline_flags() {
        let out = run(&args(&["check", "--retry-fuel", "sideways=9", "x.adt"]));
        assert_eq!(out.code, 2, "{}", out.output);
        let out = run(&args(&["check", "--retry-fuel"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("--retry-fuel needs a plan"));
        let out = run(&args(&["check", "--deadline"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("--deadline needs a duration"));
        let out = run(&args(&["check", "--checkpoint"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("--checkpoint needs a file path"));
    }

    #[test]
    fn check_checkpoint_with_faults_is_a_usage_error() {
        let path = fixture("ckptfaults", QUEUE);
        let out = run(&args(&[
            "check",
            "--checkpoint",
            "/tmp/never-written.json",
            "--faults",
            "seed=7,panic=1",
            path.to_str().unwrap(),
        ]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("--checkpoint cannot be combined"));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn check_checkpoint_resumes_byte_identical_at_any_job_count() {
        let path = fixture("ckpt", QUEUE);
        let mut ck = std::env::temp_dir();
        ck.push(format!("adt_cli_test_{}_ckpt.json", std::process::id()));
        let _ = fs::remove_file(&ck);
        let plain = run(&args(&["check", path.to_str().unwrap()]));

        // A full run populates the checkpoint without changing the report.
        let first = run(&args(&[
            "check",
            "--checkpoint",
            ck.to_str().unwrap(),
            path.to_str().unwrap(),
        ]));
        assert_eq!(first, plain);
        let saved = Checkpoint::load(&ck).expect("checkpoint written");
        assert!(saved.phase("completeness").is_some());
        assert!(saved.phase("consistency").is_some());

        // Simulate a run killed between the phases: only completeness was
        // recorded. Resuming must replay it and recompute the rest, ending
        // byte-identical to the uninterrupted run — at any --jobs.
        let mut partial = saved.clone();
        partial.phases.retain(|p| p.name == "completeness");
        for jobs in ["1", "4"] {
            partial.save(&ck).expect("checkpoint is writable");
            let resumed = run(&args(&[
                "check",
                "--jobs",
                jobs,
                "--checkpoint",
                ck.to_str().unwrap(),
                path.to_str().unwrap(),
            ]));
            assert_eq!(resumed, plain, "jobs {jobs}");
        }

        // A replay from a fully populated checkpoint is also identical.
        let replay = run(&args(&[
            "check",
            "--checkpoint",
            ck.to_str().unwrap(),
            path.to_str().unwrap(),
        ]));
        assert_eq!(replay, plain);

        // Changing the fuel changes the fingerprint: the stale checkpoint
        // is ignored (fresh run), then overwritten with the new config.
        let refueled = run(&args(&[
            "check",
            "--fuel",
            "500000",
            "--checkpoint",
            ck.to_str().unwrap(),
            path.to_str().unwrap(),
        ]));
        assert_eq!(refueled.code, 0, "{}", refueled.output);
        let rewritten = Checkpoint::load(&ck).expect("checkpoint rewritten");
        assert!(rewritten.config.contains("fuel=500000"));

        let _ = fs::remove_file(path);
        let _ = fs::remove_file(ck);
    }

    #[test]
    fn corrupt_checkpoints_degrade_to_a_fresh_run() {
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/queue.adt");
        let mut ck = std::env::temp_dir();
        ck.push(format!("adt_cli_test_{}_corrupt.json", std::process::id()));
        let plain = run(&args(&["check", spec]));
        assert_eq!(plain.code, 0, "{}", plain.output);

        // A file of 100,000 `[` once overflowed the parser's stack; a
        // truncated checkpoint is the ordinary case of a killed write.
        let _ = fs::remove_file(&ck);
        let _ = run(&args(&[
            "check",
            "--checkpoint",
            ck.to_str().unwrap(),
            spec,
        ]));
        let written = fs::read_to_string(&ck).expect("checkpoint written");
        for corrupt in ["[".repeat(100_000), written[..100].to_owned()] {
            fs::write(&ck, &corrupt).expect("checkpoint is writable");
            let out = run(&args(&[
                "check",
                "--checkpoint",
                ck.to_str().unwrap(),
                spec,
            ]));
            assert_eq!(out, plain, "checkpoint starting {:?}", &corrupt[..10]);
        }
        let _ = fs::remove_file(ck);
    }

    #[test]
    fn contradictions_are_listed_in_declaration_order() {
        // Six heads, each with one diverging critical pair: the report
        // lists them in axiom order at any job count.
        let spec = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/overlap_heads.adt"
        );
        let mut expected = String::from(
            "N: 1 sort(s) of interest, 10 operation(s), 12 axiom(s)\n\
             sufficiently complete: yes\n\
             consistent: NO\n",
        );
        for (k, op) in ["A", "B", "C", "D", "E", "F"].iter().enumerate() {
            let value = format!("{}ZERO{}", "SUCC(".repeat(k + 1), ")".repeat(k + 1));
            expected.push_str(&format!(
                "    contradiction [critical-pair]: {op}(ZERO) = ZERO but also {value}\n"
            ));
        }
        for op in ["a", "b", "c", "d", "e", "f"] {
            expected.push_str(&format!(
                "warning: axioms `{op}1` and `{op}2` overlap: rule order decides which \
                 fires on their common instances\n"
            ));
        }
        for jobs in ["1", "4"] {
            let out = run(&args(&["check", "--jobs", jobs, spec]));
            assert_eq!(out.code, 1, "jobs {jobs}");
            assert_eq!(out.output, expected, "jobs {jobs}");
        }
    }

    #[test]
    fn expired_deadline_caches_no_phases() {
        let path = fixture("ckptdead", QUEUE);
        let mut ck = std::env::temp_dir();
        ck.push(format!("adt_cli_test_{}_dead.json", std::process::id()));
        let _ = fs::remove_file(&ck);
        let out = run(&args(&[
            "check",
            "--deadline",
            "0s",
            "--checkpoint",
            ck.to_str().unwrap(),
            path.to_str().unwrap(),
        ]));
        assert_eq!(out.code, 0, "{}", out.output);
        // Both phases were interrupted, so neither may be remembered — a
        // resume must redo the work, not replay the degraded verdicts.
        assert!(Checkpoint::load(&ck).is_none_or(|c| c.phases.is_empty()));
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(ck);
    }

    fn batch_dir(name: &str, specs: &[(&str, &str)]) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("adt_cli_test_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp dir is writable");
        for (file, contents) in specs {
            fs::write(dir.join(file), contents).expect("spec is writable");
        }
        dir
    }

    #[test]
    fn batch_surveys_a_directory_without_failing_on_bad_specs() {
        let incomplete: String = QUEUE
            .lines()
            .filter(|l| !l.contains("[4]"))
            .collect::<Vec<_>>()
            .join("\n");
        let dir = batch_dir(
            "batch",
            &[
                ("a_good.adt", QUEUE),
                ("b_incomplete.adt", &incomplete),
                ("c_loop.adt", LOOP),
                ("ignored.txt", "not a spec"),
            ],
        );
        let out = run(&args(&["batch", "--fuel", "100", dir.to_str().unwrap()]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(out.output.contains("a_good.adt: PASSED"), "{}", out.output);
        assert!(
            out.output.contains("b_incomplete.adt: FAILED"),
            "{}",
            out.output
        );
        assert!(
            out.output.contains("c_loop.adt: UNDETERMINED"),
            "{}",
            out.output
        );
        assert!(
            out.output
                .contains("batch: 3 spec(s) — 1 passed, 1 failed, 1 undetermined, 0 quarantined"),
            "{}",
            out.output
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_rejects_checkpoint_faults_and_bad_directories() {
        let out = run(&args(&["batch", "--checkpoint", "x.json", "specs"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("batch does not take --checkpoint"));
        let out = run(&args(&["batch", "--faults", "seed=7,panic=1", "specs"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("batch does not take --faults"));
        let out = run(&args(&["batch", "/no/such/dir"]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("cannot read"));
        let empty = batch_dir("empty", &[]);
        let out = run(&args(&["batch", empty.to_str().unwrap()]));
        assert_eq!(out.code, 2);
        assert!(out.output.contains("no .adt specs"));
        let _ = fs::remove_dir_all(empty);
    }

    #[test]
    fn supervise_spec_retries_once_then_quarantines() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let (verdict, panics) = supervise_spec(|| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient fault");
            }
            BatchVerdict::Passed
        });
        assert_eq!(verdict, BatchVerdict::Passed);
        assert_eq!(panics, 1);

        let (verdict, panics) = supervise_spec(|| panic!("hard crash"));
        assert!(
            matches!(&verdict, BatchVerdict::Quarantined(msg) if msg.contains("hard crash")),
            "{verdict:?}"
        );
        assert_eq!(panics, 2);
    }

    #[test]
    fn batch_verdict_comes_from_the_checks_not_the_report_text() {
        // A spec whose own names contain the word UNDETERMINED passes
        // both checks; batch must count it as passed.
        let spec = "type UNDETERMINED
ops
  ZERO: -> UNDETERMINED ctor
  SUCC: UNDETERMINED -> UNDETERMINED ctor
  IS_ZERO?: UNDETERMINED -> Bool
vars
  n: UNDETERMINED
axioms
  [z1] IS_ZERO?(ZERO) = true
  [z2] IS_ZERO?(SUCC(n)) = false
end
";
        let dir = batch_dir("undetermined_name", &[("undetermined.adt", spec)]);
        let file = dir.join("undetermined.adt");
        let out = run(&args(&["check", file.to_str().unwrap()]));
        assert_eq!(out.code, 0, "{}", out.output);
        assert!(
            out.output.contains("sufficiently complete: yes"),
            "{}",
            out.output
        );
        assert!(out.output.contains("consistent: yes"), "{}", out.output);
        let out = run(&args(&["batch", dir.to_str().unwrap()]));
        assert!(
            out.output.contains("undetermined.adt: PASSED"),
            "{}",
            out.output
        );
        assert!(
            out.output
                .contains("batch: 1 spec(s) — 1 passed, 0 failed, 0 undetermined, 0 quarantined"),
            "{}",
            out.output
        );
        let _ = fs::remove_dir_all(dir);
    }
}
