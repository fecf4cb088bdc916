//! `adt repl` — an interactive session over a specification, the §5
//! "system in which implementations and algebraic specifications of
//! abstract types are interchangeable", at a prompt:
//!
//! ```text
//! queue> x := NEW
//! queue> x := ADD(x, A)
//! queue> FRONT(x)
//! A   (2 steps)
//! queue> :trace REMOVE(x)
//! …derivation…
//! queue> :prove FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
//! proved (1 case)
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use adt_check::{CheckConfig, ConsistencyVerdict, ProbeConfig};
use adt_core::{display, Deadline, Session, Spec, Subst, Supervisor, Term};
use adt_dsl::{lower_term_in, parse_term_source, Diagnostics};
use adt_rewrite::{Proof, Rewriter};

/// The REPL's help text.
const REPL_HELP: &str = "commands:
  NAME := <term>        bind a session variable to the normalized term
  <term>                normalize a term (may use bound session variables)
  :trace <term>         normalize, printing every rewrite step
  :prove <t1> = <t2>    prove an equation (boolean case analysis allowed)
  :induct <v> <t1> = <t2>  prove an equation by induction on variable v
  :check                run the completeness and consistency checkers
  :vars                 list bound session variables
  :axioms               list the specification's axioms
  :stats                show session arena/cache telemetry
  :deadline <dur>|off   bound every later line by wall clock (500ms, 2s, 1m);
                        work stopped at the deadline reports UNDETERMINED
  :reset                drop the session (bindings, arena and cache)
  :help                 this text
  :quit                 leave
";

/// What the REPL loop should do after a dispatched line.
enum ReplAction {
    /// Keep going with the same session.
    Continue,
    /// Leave the REPL.
    Quit,
    /// Drop the session (arena, cache, bindings) and start a fresh one.
    Reset,
}

/// Runs the REPL over `input`, writing to `output`. Returns the number of
/// commands executed (used by tests; the binary ignores it).
///
/// One [`Session`] lives for the whole REPL lifetime: every line's
/// rewriter borrows its compiled rules, and terms and their normal forms
/// are interned into its arena. `:reset` is the explicit way to drop
/// that state.
///
/// # Errors
///
/// Returns any I/O error from reading input or writing output.
pub fn run_repl(
    spec: &Spec,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> std::io::Result<usize> {
    let mut session = Session::new(spec.clone());
    let mut env: HashMap<String, Term> = HashMap::new();
    let mut deadline: Option<Duration> = None;
    let mut executed = 0;
    let prompt = spec.name().to_lowercase();

    let mut line = String::new();
    loop {
        write!(output, "{prompt}> ")?;
        output.flush()?;
        line.clear();
        if input.read_line(&mut line)? == 0 {
            writeln!(output)?;
            return Ok(executed);
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        executed += 1;
        let mut reply = String::new();
        // One bad line must not kill the whole session: a panic anywhere in
        // evaluation is caught here, reported as UNDETERMINED, and the loop
        // keeps its prompt. (`:reset` is the escape hatch if the panic left
        // the session's caches in a state the user no longer trusts.)
        let dispatched = catch_unwind(AssertUnwindSafe(|| {
            dispatch(&session, &mut env, &mut deadline, line, &mut reply)
        }));
        match dispatched {
            Ok(Ok(ReplAction::Continue)) => {
                output.write_all(reply.as_bytes())?;
            }
            Ok(Ok(ReplAction::Quit)) => {
                output.write_all(reply.as_bytes())?;
                return Ok(executed);
            }
            Ok(Ok(ReplAction::Reset)) => {
                session = Session::new(spec.clone());
                env.clear();
                output.write_all(reply.as_bytes())?;
            }
            Ok(Err(diags)) => {
                writeln!(output, "{}", diags.render(line).trim_end())?;
            }
            Err(payload) => {
                writeln!(
                    output,
                    "UNDETERMINED: evaluation panicked: {}",
                    crate::panic_text(&*payload)
                )?;
                writeln!(output, "(the session survives; :reset drops it if in doubt)")?;
            }
        }
    }
}

/// Executes one REPL line into `reply`.
fn dispatch(
    session: &Session,
    env: &mut HashMap<String, Term>,
    deadline: &mut Option<Duration>,
    line: &str,
    reply: &mut String,
) -> Result<ReplAction, Diagnostics> {
    let spec = session.spec();
    // Every line with a `:deadline` in force gets a supervisor armed NOW,
    // so the budget covers exactly this line's evaluation.
    let supervisor = match *deadline {
        Some(budget) => Supervisor::none().with_deadline(Deadline::after(budget)),
        None => Supervisor::none(),
    };
    // Cheap per line (a rule-set clone). Each line is normalized cold,
    // so its reply — step count included — is the same on any line.
    let rw = Rewriter::for_session(session).supervised(supervisor.clone());
    if let Some(rest) = line.strip_prefix(':') {
        let (cmd, arg) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        match cmd {
            "quit" | "q" => return Ok(ReplAction::Quit),
            "help" | "h" => reply.push_str(REPL_HELP),
            "reset" => {
                reply.push_str("session reset: bindings, arena and cache dropped\n");
                return Ok(ReplAction::Reset);
            }
            "stats" => reply.push_str(&session.stats().render()),
            "deadline" => {
                if arg == "off" {
                    *deadline = None;
                    reply.push_str("per-line deadline off\n");
                } else if arg.is_empty() {
                    reply.push_str("usage: :deadline <duration>|off (e.g. :deadline 2s)\n");
                } else {
                    match crate::parse_deadline(arg) {
                        Ok(budget) => {
                            *deadline = Some(budget);
                            let _ = writeln!(reply, "per-line deadline set to {arg}");
                        }
                        Err(_) => {
                            let _ = writeln!(reply, "bad duration `{arg}` (try 500ms, 2s, 1m)");
                        }
                    }
                }
            }
            #[cfg(test)]
            "__panic" => panic!("injected repl panic"),
            "vars" => {
                if env.is_empty() {
                    reply.push_str("no session variables bound\n");
                }
                let mut names: Vec<&String> = env.keys().collect();
                names.sort();
                for name in names {
                    let _ = writeln!(reply, "{name} = {}", display::term(spec.sig(), &env[name]));
                }
            }
            "axioms" => {
                for ax in spec.axioms() {
                    let _ = writeln!(reply, "{}", display::axiom(spec.sig(), ax));
                }
            }
            "trace" => {
                let term = parse_in_env(spec, env, arg)?;
                match rw.normalize_traced(&term) {
                    Ok((nf, trace)) => {
                        reply.push_str(&trace.render(spec.sig()).to_string());
                        let _ = writeln!(reply, "normal form: {}", display::term(spec.sig(), &nf));
                    }
                    Err(e) => {
                        let _ = writeln!(reply, "{e}");
                    }
                }
            }
            "check" => {
                // The checkers honor the per-line deadline too: a `:check`
                // that outruns its budget degrades to UNDETERMINED.
                let config = CheckConfig::jobs(1).with_supervisor(supervisor.clone());
                let completeness = adt_check::check_completeness_session(session, &config);
                if completeness.is_sufficiently_complete() {
                    reply.push_str("sufficiently complete: yes\n");
                } else {
                    let verdict = if completeness.has_definite_missing() {
                        "NO"
                    } else {
                        "UNDETERMINED"
                    };
                    let _ = writeln!(reply, "sufficiently complete: {verdict}");
                    for line in completeness.prompts().lines() {
                        let _ = writeln!(reply, "  {line}");
                    }
                }
                let consistency =
                    adt_check::check_consistency_session(session, &ProbeConfig::default(), &config);
                let _ = writeln!(
                    reply,
                    "consistent: {}",
                    match consistency.verdict() {
                        ConsistencyVerdict::Consistent => "yes",
                        ConsistencyVerdict::Inconsistent | ConsistencyVerdict::Unknown => "NO",
                        ConsistencyVerdict::Exhausted | ConsistencyVerdict::Interrupted =>
                            "UNDETERMINED",
                    }
                );
            }
            "induct" => {
                // :induct <var> <lhs> = <rhs>
                let Some((var_name, equation)) = arg.split_once(char::is_whitespace) else {
                    reply.push_str("usage: :induct <var> <term> = <term>\n");
                    return Ok(ReplAction::Continue);
                };
                let Some((lhs_src, rhs_src)) = equation.split_once('=') else {
                    reply.push_str("usage: :induct <var> <term> = <term>\n");
                    return Ok(ReplAction::Continue);
                };
                let Some(var) = spec.sig().find_var(var_name.trim()) else {
                    let _ = writeln!(reply, "unknown specification variable `{var_name}`");
                    return Ok(ReplAction::Continue);
                };
                let lhs = parse_in_env(spec, env, lhs_src.trim())?;
                let rhs = parse_in_env(spec, env, rhs_src.trim())?;
                let (lhs_id, rhs_id) = (session.intern(&lhs), session.intern(&rhs));
                match adt_verify::prove_by_induction_session(session, lhs_id, rhs_id, var, 8) {
                    Ok(adt_verify::InductionOutcome::Proved { cases }) => {
                        let names: Vec<&str> = cases.iter().map(|(n, _)| n.as_str()).collect();
                        let _ =
                            writeln!(reply, "proved by induction (cases: {})", names.join(", "));
                    }
                    Ok(adt_verify::InductionOutcome::Failed {
                        case,
                        lhs_nf,
                        rhs_nf,
                    }) => {
                        let _ = writeln!(
                            reply,
                            "NOT proved: the {case} case is stuck at {lhs_nf} vs {rhs_nf}"
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(reply, "{e}");
                    }
                }
            }
            "prove" => {
                let Some((lhs_src, rhs_src)) = arg.split_once('=') else {
                    reply.push_str("usage: :prove <term> = <term>\n");
                    return Ok(ReplAction::Continue);
                };
                let lhs = parse_in_env(spec, env, lhs_src.trim())?;
                let rhs = parse_in_env(spec, env, rhs_src.trim())?;
                match rw.prove_equal(&lhs, &rhs, 8) {
                    Ok(Proof::Proved { cases }) => {
                        let _ = writeln!(reply, "proved ({cases} case(s))");
                    }
                    Ok(Proof::Undecided { lhs_nf, rhs_nf, .. }) => {
                        let _ = writeln!(
                            reply,
                            "NOT proved: {} vs {}",
                            display::term(spec.sig(), &lhs_nf),
                            display::term(spec.sig(), &rhs_nf)
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(reply, "{e}");
                    }
                }
            }
            other => {
                let _ = writeln!(reply, "unknown command `:{other}` (try :help)");
            }
        }
        return Ok(ReplAction::Continue);
    }

    // `NAME := term` or a bare term.
    if let Some((name, term_src)) = line.split_once(":=") {
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            let _ = writeln!(reply, "bad session variable name `{name}`");
            return Ok(ReplAction::Continue);
        }
        let term = parse_in_env(spec, env, term_src.trim())?;
        match rw.normalize_full(&term) {
            Ok(norm) => {
                session.note_normalizations(1, norm.steps);
                let _ = writeln!(reply, "{name} = {}", display::term(spec.sig(), &norm.term));
                env.insert(name.to_owned(), norm.term);
            }
            Err(e) => {
                let _ = writeln!(reply, "{e}");
            }
        }
        return Ok(ReplAction::Continue);
    }

    let term = parse_in_env(spec, env, line)?;
    match rw.normalize_full(&term) {
        Ok(norm) => {
            session.record_nf(session.intern(&term), session.intern(&norm.term));
            session.note_normalizations(1, norm.steps);
            let _ = writeln!(
                reply,
                "{}   ({} step(s))",
                display::term(spec.sig(), &norm.term),
                norm.steps
            );
        }
        Err(e) => {
            let _ = writeln!(reply, "{e}");
        }
    }
    Ok(ReplAction::Continue)
}

/// Parses a term that may mention session variables: the signature is
/// temporarily extended with one typed variable per binding, and the
/// bindings are substituted in afterwards.
fn parse_in_env(
    spec: &Spec,
    env: &HashMap<String, Term>,
    source: &str,
) -> Result<Term, Diagnostics> {
    let ast = parse_term_source(source)?;
    let mut sig = spec.sig().clone();
    let mut subst = Subst::new();
    for (name, value) in env {
        if sig.find_var(name).is_some() || sig.find_op(name).is_some() {
            continue; // spec names shadow session bindings
        }
        let sort = value
            .sort(spec.sig())
            .expect("bound values are normalized well-sorted terms");
        let var = sig
            .add_var(name, sort)
            .expect("binding names were checked unique");
        subst.bind(var, value.clone());
    }
    let term = lower_term_in(&sig, &ast, None)?;
    Ok(subst.apply(&term))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn queue_spec() -> Spec {
        adt_dsl::parse(
            r#"
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
"#,
        )
        .unwrap()
    }

    fn drive(script: &str) -> String {
        let spec = queue_spec();
        let mut input = Cursor::new(script.to_owned());
        let mut output = Vec::new();
        run_repl(&spec, &mut input, &mut output).unwrap();
        String::from_utf8(output).unwrap()
    }

    #[test]
    fn bindings_and_evaluation() {
        let out = drive("x := NEW\nx := ADD(x, A)\nFRONT(x)\n:quit\n");
        assert!(out.contains("x = NEW"), "{out}");
        assert!(out.contains("x = ADD(NEW, A)"), "{out}");
        assert!(out.contains("A   (") && out.contains("step"), "{out}");
    }

    #[test]
    fn session_variables_feed_later_terms() {
        let out = drive("x := ADD(ADD(NEW, A), B)\nFRONT(REMOVE(x))\n:quit\n");
        assert!(out.contains("B   ("), "{out}");
    }

    #[test]
    fn trace_and_prove_commands() {
        let out = drive(
            ":trace FRONT(ADD(NEW, A))\n:prove FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)\n:quit\n",
        );
        assert!(out.contains("=[4]=>"), "{out}");
        assert!(out.contains("proved"), "{out}");
    }

    #[test]
    fn prove_failure_shows_normal_forms() {
        let out = drive(":prove A = B\n:quit\n");
        assert!(out.contains("NOT proved: A vs B"), "{out}");
    }

    #[test]
    fn vars_and_axioms_listings() {
        let out = drive("x := NEW\n:vars\n:axioms\n:quit\n");
        assert!(out.contains("x = NEW"), "{out}");
        assert!(out.contains("[4] FRONT(ADD(q, i))"), "{out}");
    }

    #[test]
    fn errors_are_reported_inline_and_session_continues() {
        let out = drive("FRONT(ZORP)\nFRONT(ADD(NEW, A))\n:quit\n");
        assert!(out.contains("unknown name `ZORP`"), "{out}");
        assert!(out.contains("A   ("), "{out}");
    }

    #[test]
    fn unknown_command_and_help() {
        let out = drive(":frob\n:help\n:quit\n");
        assert!(out.contains("unknown command `:frob`"), "{out}");
        assert!(out.contains("commands:"), "{out}");
    }

    #[test]
    fn check_command_runs_both_checkers() {
        let out = drive(":check\n:quit\n");
        assert!(out.contains("sufficiently complete: yes"), "{out}");
        assert!(out.contains("consistent: yes"), "{out}");
    }

    #[test]
    fn induct_command_closes_constructor_cases() {
        let out = drive(":induct q IS_EMPTY?(ADD(q, i)) = false\n:quit\n");
        assert!(
            out.contains("proved by induction (cases: NEW, ADD)"),
            "{out}"
        );
    }

    #[test]
    fn induct_rejects_unknown_variables_and_bad_usage() {
        let out = drive(":induct zz FRONT(NEW) = error\n:induct q FRONT(NEW)\n:quit\n");
        assert!(out.contains("unknown specification variable `zz`"), "{out}");
        assert!(out.contains("usage: :induct"), "{out}");
    }

    #[test]
    fn session_persists_across_lines_and_stats_sees_it() {
        // Two evaluations plus telemetry: the session counts both, and
        // the repeated line replies exactly as the first did — step count
        // included, since no cache carries work from one line to the next.
        let out = drive("FRONT(ADD(NEW, A))\nFRONT(ADD(NEW, A))\n:stats\n:quit\n");
        assert!(out.contains("stats: session arena"), "{out}");
        assert!(out.contains("2 normalization(s)"), "{out}");
        let replies: Vec<&str> = out.lines().filter(|l| l.contains("step(s))")).collect();
        assert_eq!(replies.len(), 2, "{out}");
        assert_eq!(replies[0], replies[1], "{out}");
        assert!(!replies[0].contains("(0 step(s))"), "{out}");
    }

    #[test]
    fn reset_drops_bindings_and_telemetry() {
        let out = drive("x := ADD(NEW, A)\nFRONT(x)\n:reset\n:vars\n:stats\n:quit\n");
        assert!(out.contains("session reset"), "{out}");
        assert!(out.contains("no session variables bound"), "{out}");
        assert!(out.contains("0 normalization(s)"), "{out}");
    }

    #[test]
    fn eof_terminates_cleanly() {
        let out = drive("x := NEW\n");
        assert!(out.contains("x = NEW"), "{out}");
    }

    #[test]
    fn error_value_propagates_in_session() {
        let out = drive("x := REMOVE(NEW)\nIS_EMPTY?(x)\n:quit\n");
        assert!(out.contains("x = error"), "{out}");
        assert!(out.contains("error   ("), "{out}");
    }

    #[test]
    fn deadline_interrupts_evaluation_and_can_be_lifted() {
        // An already-expired budget interrupts on the very first rewrite
        // step; `:deadline off` restores normal evaluation — same session,
        // same term.
        let out = drive(
            ":deadline 0s\nFRONT(ADD(NEW, A))\n:deadline off\nFRONT(ADD(NEW, A))\n:quit\n",
        );
        assert!(out.contains("per-line deadline set to 0s"), "{out}");
        assert!(
            out.contains("interrupted (deadline exceeded)"),
            "{out}"
        );
        assert!(out.contains("per-line deadline off"), "{out}");
        assert!(out.contains("A   ("), "{out}");
    }

    #[test]
    fn deadline_applies_to_check_too() {
        let out = drive(":deadline 0s\n:check\n:quit\n");
        assert!(out.contains("sufficiently complete: UNDETERMINED"), "{out}");
        assert!(out.contains("consistent: UNDETERMINED"), "{out}");
    }

    #[test]
    fn deadline_usage_and_bad_durations_are_reported() {
        let out = drive(":deadline\n:deadline soon\n:quit\n");
        assert!(out.contains("usage: :deadline"), "{out}");
        assert!(out.contains("bad duration `soon`"), "{out}");
    }

    #[test]
    fn panic_in_evaluation_does_not_kill_the_session() {
        // `:__panic` is a test-only line that panics inside dispatch —
        // standing in for any engine bug. The session must answer with an
        // UNDETERMINED diagnostic and keep serving later lines; `:reset`
        // still works afterwards.
        let out = drive("x := ADD(NEW, A)\n:__panic\nFRONT(x)\n:reset\n:vars\n:quit\n");
        assert!(
            out.contains("UNDETERMINED: evaluation panicked: injected repl panic"),
            "{out}"
        );
        assert!(out.contains(":reset drops it if in doubt"), "{out}");
        assert!(out.contains("A   ("), "{out}");
        assert!(out.contains("no session variables bound"), "{out}");
    }
}
