//! A deliberately simple tree-walking evaluator, kept as a
//! differential-testing oracle for the arena-backed engine.
//!
//! This is the engine `adt-rewrite` shipped before terms were
//! hash-consed (see `engine.rs`): it clones and walks [`Term`] trees
//! directly, with no memoization, no tracing, and no interning — slow,
//! but so straightforward that its verdicts are easy to trust. The
//! cross-engine equivalence suite normalizes every ground probe with
//! both engines and demands byte-identical normal forms; any
//! divergence is a bug in the fast path. Step counts may legitimately
//! differ in one direction only: hash-consing gives duplicated ground
//! subterms a single identity, so the arena engine normalizes each
//! shared redex once per run where this oracle re-derives every
//! occurrence — the fast path's count is never *higher*.

use adt_core::{match_pattern, Ite, Term};

use crate::engine::{EvalState, Normalization, Rewriter};
use crate::Result;

fn lookup(asms: &[(Term, bool)], cond: &Term) -> Option<bool> {
    asms.iter().rev().find(|(t, _)| t == cond).map(|&(_, b)| b)
}

impl Rewriter<'_> {
    /// Normalizes a term with the reference (tree-walking) evaluator,
    /// reporting the normal form and step count.
    ///
    /// The normal form is identical to [`Rewriter::normalize_full`]'s;
    /// step accounting differs only where the arena engine shares a
    /// duplicated ground subterm that this evaluator re-derives, so
    /// the reference count is an upper bound on the fast path's.
    /// Memoization is never consulted, so repeated calls do the full
    /// work every time. Intended for tests; the hot path is
    /// `normalize`.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn normalize_reference(&self, term: &Term) -> Result<Normalization> {
        let mut st = EvalState::new(&self.budget(), self.supervisor().clone(), None);
        let nf = self.reference_eval(term.clone(), &mut st, &Vec::new())?;
        Ok(Normalization {
            term: nf,
            steps: st.steps,
        })
    }

    /// [`Rewriter::normalize_under`] with the reference (tree-walking)
    /// evaluator: the same contextual-assumption semantics, executed
    /// without arenas or caches. The cross-engine equivalence suite uses
    /// this to pin the fast path's assumption handling.
    ///
    /// # Errors
    ///
    /// As for [`Rewriter::normalize`].
    pub fn normalize_under_reference(&self, term: &Term, asms: &[(Term, bool)]) -> Result<Term> {
        let mut st = EvalState::new(&self.budget(), self.supervisor().clone(), None);
        self.reference_eval(term.clone(), &mut st, &asms.to_vec())
    }

    fn reference_eval(
        &self,
        term: Term,
        st: &mut EvalState,
        asms: &Vec<(Term, bool)>,
    ) -> Result<Term> {
        let budget = self.budget();
        st.enter(&budget)?;
        let result = self.reference_eval_loop(term, st, asms);
        st.exit();
        result
    }

    fn reference_eval_loop(
        &self,
        term: Term,
        st: &mut EvalState,
        asms: &Vec<(Term, bool)>,
    ) -> Result<Term> {
        let budget = self.budget();
        let mut current = term;
        loop {
            match current {
                Term::Var(_) | Term::Error(_) => return Ok(current),
                Term::Ite(ite) => {
                    let Ite {
                        cond,
                        then_branch,
                        else_branch,
                    } = *ite;
                    let cond = self.reference_eval(cond, st, asms)?;
                    let sig = self.spec().sig();
                    let decided = if cond == sig.tt() {
                        Some(true)
                    } else if cond == sig.ff() {
                        Some(false)
                    } else {
                        lookup(asms, &cond)
                    };
                    if let Some(value) = decided {
                        st.tick(&budget)?;
                        current = if value { then_branch } else { else_branch };
                        continue;
                    }
                    if cond.is_error() {
                        st.tick(&budget)?;
                        let sort = then_branch.sort(self.spec().sig())?;
                        return Ok(Term::Error(sort));
                    }
                    if let Term::Ite(inner) = cond {
                        st.tick(&budget)?;
                        let Ite {
                            cond: c0,
                            then_branch: a,
                            else_branch: b,
                        } = *inner;
                        current = Term::ite(
                            c0,
                            Term::ite(a, then_branch.clone(), else_branch.clone()),
                            Term::ite(b, then_branch, else_branch),
                        );
                        continue;
                    }
                    let mut then_asms = asms.clone();
                    then_asms.push((cond.clone(), true));
                    let t = self.reference_eval(then_branch, st, &then_asms)?;
                    let mut else_asms = asms.clone();
                    else_asms.push((cond.clone(), false));
                    let e = self.reference_eval(else_branch, st, &else_asms)?;
                    if t == e {
                        st.tick(&budget)?;
                        return Ok(t);
                    }
                    let sig = self.spec().sig();
                    if t == sig.tt() && e == sig.ff() {
                        st.tick(&budget)?;
                        return Ok(cond);
                    }
                    return Ok(Term::ite(cond, t, e));
                }
                Term::App(op, args) => {
                    let mut new_args = Vec::with_capacity(args.len());
                    for a in args {
                        new_args.push(self.reference_eval(a, st, asms)?);
                    }
                    if new_args.iter().any(Term::is_error) {
                        st.tick(&budget)?;
                        return Ok(Term::Error(self.spec().sig().try_op(op)?.result()));
                    }
                    let stuck_arg = new_args.iter().enumerate().find_map(|(idx, a)| match a {
                        Term::Ite(inner) => Some((idx, inner.clone())),
                        _ => None,
                    });
                    if let Some((idx, inner)) = stuck_arg {
                        st.tick(&budget)?;
                        let mut then_args = new_args.clone();
                        then_args[idx] = inner.then_branch.clone();
                        let mut else_args = new_args;
                        else_args[idx] = inner.else_branch.clone();
                        current = Term::ite(
                            inner.cond.clone(),
                            Term::App(op, then_args),
                            Term::App(op, else_args),
                        );
                        continue;
                    }
                    let subject = Term::App(op, new_args);
                    let mut fired = None;
                    for rule in self.rules().for_head(op) {
                        if let Some(subst) = match_pattern(rule.lhs(), &subject) {
                            fired = Some((rule, subst));
                            break;
                        }
                    }
                    match fired {
                        Some((rule, subst)) => {
                            st.tick(&budget)?;
                            current = subst.apply(rule.rhs());
                        }
                        None => return Ok(subject),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use adt_core::{SpecBuilder, Term};

    use crate::Rewriter;

    fn flip_spec() -> adt_core::Spec {
        let mut b = SpecBuilder::new("Flip");
        let s = b.sort("S");
        let a = b.ctor("A", [], s);
        let bb = b.ctor("B", [], s);
        let flip = b.op("FLIP", [s], s);
        b.axiom("f1", b.app(flip, [b.app(a, [])]), b.app(bb, []));
        b.axiom("f2", b.app(flip, [b.app(bb, [])]), b.app(a, []));
        b.build().unwrap()
    }

    #[test]
    fn reference_engine_matches_the_arena_engine() {
        let spec = flip_spec();
        let rw = Rewriter::new(&spec);
        let sig = spec.sig();
        let mut t = sig.apply("A", vec![]).unwrap();
        for _ in 0..5 {
            t = sig.apply("FLIP", vec![t]).unwrap();
        }
        let fast = rw.normalize_full(&t).unwrap();
        let slow = rw.normalize_reference(&t).unwrap();
        assert_eq!(fast.term, slow.term);
        assert_eq!(fast.steps, slow.steps);
    }

    #[test]
    fn reference_engine_respects_fuel() {
        let mut b = SpecBuilder::new("Loop");
        let s = b.sort("S");
        let _c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let x = b.var("x", s);
        b.axiom("loop", b.app(f, [Term::Var(x)]), b.app(f, [Term::Var(x)]));
        let spec = b.build().unwrap();
        let rw = Rewriter::new(&spec).with_fuel(50);
        let t = spec
            .sig()
            .apply("F", vec![spec.sig().apply("C", vec![]).unwrap()])
            .unwrap();
        let err = rw.normalize_reference(&t).unwrap_err();
        let spent = err.exhaustion().expect("step exhaustion");
        assert_eq!(spent.steps, 50);
    }
}
