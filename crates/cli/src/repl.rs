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
//!
//! The REPL holds one [`SymbolicSession`], which `:reset` replaces:
//! `NAME := term` binds a session id, evaluated in the session store,
//! and every line's rewriter borrows the session's rules. Lines that
//! print step counts — bare terms, `:trace` and `:prove` — run cold, so
//! those replies never depend on earlier lines. A binding prints only
//! its normal form, which the warm store gives as a cold run does
//! whenever the cold run finishes within budget.

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use adt_check::{CheckConfig, ConsistencyVerdict, ProbeConfig};
use adt_core::{display, Deadline, Spec, Subst, Supervisor, Term};
use adt_dsl::{lower_term_in, parse_term_source, Diagnostics, Span};
use adt_rewrite::{Proof, Rewriter, SymbolicSession};

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
/// # Errors
///
/// Returns any I/O error from reading input or writing output.
pub fn run_repl(
    spec: &Spec,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> std::io::Result<usize> {
    let mut symbolic = SymbolicSession::new(spec);
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
            dispatch(&mut symbolic, &mut deadline, line, &mut reply)
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
                symbolic = SymbolicSession::new(spec);
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
                writeln!(
                    output,
                    "(the session survives; :reset drops it if in doubt)"
                )?;
            }
        }
    }
}

/// Executes one REPL line into `reply`.
fn dispatch(
    symbolic: &mut SymbolicSession,
    deadline: &mut Option<Duration>,
    line: &str,
    reply: &mut String,
) -> Result<ReplAction, Diagnostics> {
    // Every line with a `:deadline` in force gets a supervisor armed NOW,
    // so the budget covers exactly this line's evaluation.
    let supervisor = match *deadline {
        Some(budget) => Supervisor::none().with_deadline(Deadline::after(budget)),
        None => Supervisor::none(),
    };
    if !line.starts_with(':') {
        if let Some((name, term_src)) = line.split_once(":=") {
            symbolic.set_supervisor(supervisor);
            return bind(symbolic, line, name.trim(), term_src.trim(), reply);
        }
    }
    let symbolic = &*symbolic;
    let session = symbolic.session();
    let spec = session.spec();
    if let Some(rest) = line.strip_prefix(':') {
        let (cmd, arg) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            // An empty argument still sits at the end of the line, so an
            // error about it points there.
            None => (rest, &rest[rest.len()..]),
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
                let names = symbolic.bound_vars();
                if names.is_empty() {
                    reply.push_str("no session variables bound\n");
                }
                for name in names {
                    let value = symbolic.get(name).expect("listed names are bound");
                    let _ = writeln!(reply, "{name} = {}", display::term(spec.sig(), &value));
                }
            }
            "axioms" => {
                for ax in spec.axioms() {
                    let _ = writeln!(reply, "{}", display::axiom(spec.sig(), ax));
                }
            }
            "trace" => {
                let term = parse_in_env(symbolic, line, arg)?;
                match crate::query(session, &term, true, supervisor) {
                    Ok(text) | Err(text) => reply.push_str(&text),
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
                let lhs = parse_in_env(symbolic, line, lhs_src.trim())?;
                let rhs = parse_in_env(symbolic, line, rhs_src.trim())?;
                match adt_verify::prove_by_induction(spec, &lhs, &rhs, var, 8) {
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
                let lhs = parse_in_env(symbolic, line, lhs_src.trim())?;
                let rhs = parse_in_env(symbolic, line, rhs_src.trim())?;
                let rw = Rewriter::for_session(session).supervised(supervisor);
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

    let term = parse_in_env(symbolic, line, line)?;
    match crate::query(session, &term, false, supervisor) {
        Ok(text) | Err(text) => reply.push_str(&text),
    }
    Ok(ReplAction::Continue)
}

/// `NAME := term`: binds the normal form of `term` in the session.
fn bind(
    symbolic: &mut SymbolicSession,
    line: &str,
    name: &str,
    term_src: &str,
    reply: &mut String,
) -> Result<ReplAction, Diagnostics> {
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        let _ = writeln!(reply, "bad session variable name `{name}`");
        return Ok(ReplAction::Continue);
    }
    let term = parse_in_env(symbolic, line, term_src)?;
    match symbolic.set(name, term) {
        Ok(nf) => {
            let session = symbolic.session();
            let nf = session.term(nf);
            let _ = writeln!(reply, "{name} = {}", display::term(session.sig(), &nf));
        }
        Err(e) => {
            let _ = writeln!(reply, "{e}");
        }
    }
    Ok(ReplAction::Continue)
}

/// Parses a term that may mention session variables: the signature is
/// temporarily extended with one typed variable per binding, and the
/// bindings are substituted in afterwards. `source` is a slice of the
/// input `line`; diagnostics come back with spans into `line`, so they
/// render with the caret under the offending text.
fn parse_in_env(symbolic: &SymbolicSession, line: &str, source: &str) -> Result<Term, Diagnostics> {
    parse_term_in_env(symbolic, source).map_err(|diags| {
        let offset = offset_in(line, source);
        let mut shifted = Diagnostics::new();
        for d in diags.items() {
            let span = Span::new(d.span.start + offset, d.span.end + offset);
            shifted.error(span, d.message.clone());
        }
        shifted
    })
}

/// Byte offset of `part` within `line`, or 0 when `part` is not a slice
/// of `line`.
fn offset_in(line: &str, part: &str) -> usize {
    let offset = (part.as_ptr() as usize).wrapping_sub(line.as_ptr() as usize);
    if offset.saturating_add(part.len()) <= line.len() {
        offset
    } else {
        0
    }
}

fn parse_term_in_env(symbolic: &SymbolicSession, source: &str) -> Result<Term, Diagnostics> {
    let ast = parse_term_source(source)?;
    let spec = symbolic.session().spec();
    let (sig, subst) = spec.sig().extend(|fresh| {
        let mut subst = Subst::new();
        for name in symbolic.bound_vars() {
            if fresh.sig().find_var(name).is_some() || fresh.sig().find_op(name).is_some() {
                continue; // spec names shadow session bindings
            }
            let value = symbolic.get(name).expect("listed names are bound");
            let sort = value
                .sort(spec.sig())
                .expect("bound values are normalized well-sorted terms");
            // Binding names are unique, so the name is free.
            subst.bind(fresh.var(sort, [name.to_owned()]), value);
        }
        subst
    });
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
    fn errors_in_command_terms_point_at_the_offending_text() {
        let out = drive(":trace FRONT(ZORP)\nx := FRONT(ZORP)\n:trace\n:quit\n");
        assert!(
            out.contains(
                "  --> line 1, column 14\n   | :trace FRONT(ZORP)\n   |              ^^^^\n"
            ),
            "{out}"
        );
        assert!(
            out.contains("  --> line 1, column 12\n   | x := FRONT(ZORP)\n   |            ^^^^\n"),
            "{out}"
        );
        // A missing term is reported just past the end of the line.
        assert!(
            out.contains("  --> line 1, column 7\n   | :trace\n   |       ^\n"),
            "{out}"
        );
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
        let out =
            drive(":deadline 0s\nFRONT(ADD(NEW, A))\n:deadline off\nFRONT(ADD(NEW, A))\n:quit\n");
        assert!(out.contains("per-line deadline set to 0s"), "{out}");
        assert!(out.contains("interrupted (deadline exceeded)"), "{out}");
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
