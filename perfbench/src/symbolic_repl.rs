//! `symbolic_repl`: symbolic interpretation of the Symboltable spec in
//! the shape of a REPL session (TB-1).
//!
//! Each seeded compiler-like trace runs on one long-lived session,
//! opened with `parse_session` as the REPL does. A write (ENTERBLOCK,
//! ADD, LEAVEBLOCK) interns the new state and normalizes it; a read
//! (RETRIEVE, IS_INBLOCK?) interns an observer of the current state and
//! normalizes it. Every read answer is checked against the real
//! `SymbolTable` running the same trace.

use std::hint::black_box;

use adt_bench::workloads::{symtab_trace, Stream, SymOp};
use adt_core::{OpId, Session, Term};
use adt_dsl::parse_session;
use adt_rewrite::Rewriter;
use adt_structures::{sources, AttrList, Ident, SymbolTable};

use crate::rec::Recorder;
use crate::Workload;

/// Traces built in set-up, all of them run in every round, and
/// operations per trace. Every round does the same work, so rounds can
/// be compared with each other.
const TRACES: usize = 64;
const TRACE_LEN: usize = 512;
/// Repetitions of the direct run in a traced round, so one timing
/// covers enough work to read.
const DIRECT_REPS: usize = 20;

const IDENTS: [&str; 3] = ["ID_X", "ID_Y", "ID_Z"];
const ATTRS: [&str; 3] = ["ATTR_1", "ATTR_2", "ATTR_3"];

#[derive(Debug, Clone, Copy)]
enum Step {
    Enter,
    Leave,
    Add(usize, usize),
    Retrieve(usize),
    InBlock(usize),
}

/// What a read must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Attr(usize),
    Undeclared,
    Bool(bool),
}

struct Trace {
    steps: Vec<Step>,
    /// The oracle's answer for each read, in trace order.
    answers: Vec<Answer>,
}

/// A `symtab_trace` of `TRACE_LEN` operations over the three sample
/// identifiers, with its mix of about 50% ADD, 30% RETRIEVE, 10%
/// ENTERBLOCK and 10% LEAVEBLOCK (never out of the outermost block).
/// The same seeded stream then picks each ADD's attribute and turns one
/// RETRIEVE in three into an IS_INBLOCK? of the same identifier.
fn gen_trace(seed: u64) -> Vec<Step> {
    let mut s = Stream::new(seed);
    symtab_trace(TRACE_LEN, IDENTS.len(), s.next_u64())
        .into_iter()
        .map(|op| match op {
            SymOp::Enter => Step::Enter,
            SymOp::Leave => Step::Leave,
            SymOp::Add(i) => Step::Add(i, s.below(ATTRS.len())),
            SymOp::Retrieve(i) if s.below(3) == 0 => Step::InBlock(i),
            SymOp::Retrieve(i) => Step::Retrieve(i),
        })
        .collect()
}

/// Runs a trace on the real `SymbolTable`, returning every read answer.
fn run_direct(steps: &[Step], idents: &[Ident], attrs: &[AttrList]) -> Vec<Answer> {
    let mut st: SymbolTable = SymbolTable::init();
    let mut answers = Vec::new();
    for step in steps {
        match *step {
            Step::Enter => st.enter_block(),
            Step::Leave => st
                .leave_block()
                .expect("traces never leave the outermost block"),
            Step::Add(i, a) => st.add(idents[i].clone(), attrs[a].clone()),
            Step::Retrieve(i) => answers.push(match st.retrieve(&idents[i]) {
                Ok(list) => {
                    let name = list.get("attr").expect("every declaration carries `attr`");
                    Answer::Attr(ATTRS.iter().position(|a| *a == name).expect("known attr"))
                }
                Err(_) => Answer::Undeclared,
            }),
            Step::InBlock(i) => answers.push(Answer::Bool(st.is_in_block(&idents[i]))),
        }
    }
    answers
}

/// The operations a trace needs, resolved in one session's signature.
struct Ops {
    enter: OpId,
    leave: OpId,
    add: OpId,
    retrieve: OpId,
    in_block: OpId,
    idents: Vec<Term>,
    attrs: Vec<Term>,
}

impl Ops {
    fn resolve(session: &Session) -> Result<Ops, String> {
        let sig = session.sig();
        let op = |n: &str| sig.op_named(n).map_err(|e| e.to_string());
        let constants = |names: &[&str]| -> Result<Vec<Term>, String> {
            names.iter().map(|n| op(n).map(Term::constant)).collect()
        };
        Ok(Ops {
            enter: op("ENTERBLOCK")?,
            leave: op("LEAVEBLOCK")?,
            add: op("ADD")?,
            retrieve: op("RETRIEVE")?,
            in_block: op("IS_INBLOCK?")?,
            idents: constants(&IDENTS)?,
            attrs: constants(&ATTRS)?,
        })
    }

    /// Reads an observer's normal form back as an answer.
    fn answer(&self, session: &Session, nf: &Term) -> Option<Answer> {
        if nf.is_error() {
            return Some(Answer::Undeclared);
        }
        if *nf == session.sig().tt() {
            return Some(Answer::Bool(true));
        }
        if *nf == session.sig().ff() {
            return Some(Answer::Bool(false));
        }
        self.attrs.iter().position(|a| a == nf).map(Answer::Attr)
    }
}

pub struct SymbolicRepl {
    traces: Vec<Trace>,
    idents: Vec<Ident>,
    attrs: Vec<AttrList>,
}

impl SymbolicRepl {
    /// Runs one trace on a fresh session. Stops at the first failed op:
    /// the state after it is unknown.
    fn run_trace(&self, trace: &Trace, rec: &mut Recorder) {
        let opened = rec
            .span("dsl.parse", || parse_session(sources::SYMBOLTABLE))
            .map_err(|d| d.render(sources::SYMBOLTABLE))
            .and_then(|session| Ops::resolve(&session).map(|ops| (session, ops)));
        let (session, ops) = match opened {
            Ok(pair) => pair,
            Err(e) => {
                rec.attempted += 1;
                rec.fail(format!("symboltable session: {e}"));
                return;
            }
        };
        let rw = Rewriter::for_session(&session);
        let mut state = session.sig().apply("INIT", vec![]).expect("INIT exists");
        let mut answers = trace.answers.iter();
        for &step in &trace.steps {
            rec.count("ops", 1);
            let (head, args, layer) = match step {
                Step::Enter => (ops.enter, vec![state], "rewrite.write"),
                Step::Leave => (ops.leave, vec![state], "rewrite.write"),
                Step::Add(i, a) => (
                    ops.add,
                    vec![state, ops.idents[i].clone(), ops.attrs[a].clone()],
                    "rewrite.write",
                ),
                Step::Retrieve(i) => (
                    ops.retrieve,
                    vec![state, ops.idents[i].clone()],
                    "rewrite.read",
                ),
                Step::InBlock(i) => (
                    ops.in_block,
                    vec![state, ops.idents[i].clone()],
                    "rewrite.read",
                ),
            };
            let term = Term::App(head, args);
            let nf = rec.op(|rec| {
                let id = rec.span("core.intern", || session.intern(&term));
                let nf = rec
                    .span(layer, || rw.normalize_id(&session, id))
                    .map_err(|e| format!("{step:?}: {e}"))?;
                Ok(rec.span("core.term", || session.term(nf)))
            });
            let Some(nf) = nf else { return };
            if layer == "rewrite.write" {
                if nf.is_error() {
                    rec.fail(format!("{step:?}: the new state normalized to error"));
                    return;
                }
                state = nf;
            } else {
                // A read leaves the state as it was: take it back out of
                // the observer term instead of copying it in.
                let Term::App(_, mut args) = term else {
                    unreachable!("observers are applications")
                };
                state = args.swap_remove(0);
                let want = *answers.next().expect("one oracle answer per read");
                let got = ops.answer(&session, &nf);
                rec.expect(got == Some(want), || {
                    format!("{step:?}: symbolic {got:?}, direct {want:?}")
                });
            }
        }
        if rec.tracing() {
            let s = session.stats();
            rec.count("core.arena_terms", s.interned_terms as u64);
            rec.count("core.arena_bytes", s.arena_bytes as u64);
            rec.count("core.memo_hits", s.memo_hits);
            rec.count("core.memo_lookups", s.memo_hits + s.memo_misses);
            rec.count("core.nf_hits", s.nf_cache_hits);
            rec.count("core.nf_lookups", s.nf_cache_hits + s.normalizations);
            rec.count("rewrite.steps", s.rewrite_steps);
            rec.span("structures.direct", || {
                for _ in 0..DIRECT_REPS {
                    black_box(run_direct(
                        black_box(&trace.steps),
                        &self.idents,
                        &self.attrs,
                    ));
                }
            });
            rec.count(
                "structures.direct_ops",
                (DIRECT_REPS * trace.steps.len()) as u64,
            );
        }
    }
}

impl Workload for SymbolicRepl {
    const NAME: &'static str = "symbolic_repl";
    const TAIL_Q: f64 = 0.99;

    fn setup(seed: u64, _jobs: usize) -> Self {
        let idents: Vec<Ident> = IDENTS.iter().map(|n| Ident::new(*n)).collect();
        let attrs: Vec<AttrList> = ATTRS
            .iter()
            .map(|a| AttrList::new().with("attr", a))
            .collect();
        let mut seeds = Stream::new(seed);
        let traces = (0..TRACES)
            .map(|_| {
                let steps = gen_trace(seeds.next_u64());
                let answers = run_direct(&steps, &idents, &attrs);
                Trace { steps, answers }
            })
            .collect();
        SymbolicRepl {
            traces,
            idents,
            attrs,
        }
    }

    fn round(&mut self, _index: u64, rec: &mut Recorder) {
        for (i, trace) in self.traces.iter().enumerate() {
            if i > 0 {
                rec.checkpoint();
            }
            self.run_trace(trace, rec);
        }
    }
}
