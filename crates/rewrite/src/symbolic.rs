//! Symbolic interpretation of a specification.
//!
//! "Given suitable restrictions on the form that axiomatizations may take,
//! a system in which implementations and algebraic specifications of
//! abstract types are interchangeable can be constructed. In the absence of
//! an implementation, the operations of the algebra may be interpreted
//! symbolically." (paper, §5.)
//!
//! A [`SymbolicSession`] is that system: a little machine whose program
//! variables hold *normalized terms* of the algebra. Programs like the
//! paper's bounded-queue example
//!
//! ```text
//! x := EMPTY_Q
//! x := ADD_Q(x, A)
//! x := REMOVE_Q(x)
//! ```
//!
//! run directly against the axioms, no implementation required — the
//! "significant loss in efficiency" relative to a real implementation is
//! measured by the `symbolic_vs_direct` benchmark.

use std::collections::HashMap;

use adt_core::{Spec, Term};

use crate::engine::Rewriter;
use crate::error::RewriteError;
use crate::Result;

/// An argument to a symbolic operation call: either a reference to a
/// program variable of the session, or a literal term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymArg {
    /// The current value of the named program variable.
    Ref(String),
    /// A literal term.
    Lit(Term),
}

impl From<&str> for SymArg {
    fn from(name: &str) -> Self {
        SymArg::Ref(name.to_owned())
    }
}

impl From<Term> for SymArg {
    fn from(t: Term) -> Self {
        SymArg::Lit(t)
    }
}

/// A symbolic interpreter for one specification.
///
/// ```
/// use adt_core::{SpecBuilder, Term};
/// use adt_rewrite::SymbolicSession;
///
/// let mut b = SpecBuilder::new("Counter");
/// let s = b.sort("S");
/// let zero = b.ctor("ZERO", [], s);
/// let succ = b.ctor("SUCC", [s], s);
/// let pred = b.op("PRED", [s], s);
/// let x = b.var("x", s);
/// b.axiom("p1", b.app(pred, [b.app(zero, [])]), Term::Error(s));
/// b.axiom("p2", b.app(pred, [b.app(succ, [Term::Var(x)])]), Term::Var(x));
/// let spec = b.build()?;
///
/// let mut session = SymbolicSession::new(&spec);
/// session.assign("x", "ZERO", [])?;
/// session.assign("x", "SUCC", ["x".into()])?;
/// session.assign("x", "PRED", ["x".into()])?;
/// assert_eq!(session.get("x").unwrap(), &spec.sig().apply("ZERO", vec![])?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SymbolicSession<'a> {
    rw: Rewriter<'a>,
    env: HashMap<String, Term>,
}

impl<'a> SymbolicSession<'a> {
    /// Starts a session over `spec` with the default fuel limit.
    pub fn new(spec: &'a Spec) -> Self {
        SymbolicSession {
            rw: Rewriter::new(spec),
            env: HashMap::new(),
        }
    }

    /// The underlying rewriter.
    pub fn rewriter(&self) -> &Rewriter<'a> {
        &self.rw
    }

    /// The current value of a program variable.
    pub fn get(&self, name: &str) -> Option<&Term> {
        self.env.get(name)
    }

    /// Binds a program variable to a term (normalized first).
    ///
    /// # Errors
    ///
    /// Returns any normalization error.
    pub fn set(&mut self, name: &str, term: Term) -> Result<&Term> {
        let nf = self.rw.normalize(&term)?;
        Ok(self
            .env
            .entry(name.to_owned())
            .and_modify(|t| *t = nf.clone())
            .or_insert(nf))
    }

    fn resolve(&self, arg: SymArg) -> Result<Term> {
        match arg {
            SymArg::Lit(t) => Ok(t),
            SymArg::Ref(name) => {
                self.env
                    .get(&name)
                    .cloned()
                    .ok_or_else(|| RewriteError::Session {
                        detail: format!("program variable `{name}` is unbound"),
                    })
            }
        }
    }

    /// Applies an operation of the specification to the given arguments
    /// and returns the normalized result without binding it.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown operations, unbound variable
    /// references, ill-sorted applications, or normalization failure.
    pub fn call(&self, op: &str, args: impl IntoIterator<Item = SymArg>) -> Result<Term> {
        let resolved: Vec<Term> = args
            .into_iter()
            .map(|a| self.resolve(a))
            .collect::<Result<_>>()?;
        let term = self.rw.spec().sig().apply(op, resolved)?;
        self.rw.normalize(&term)
    }

    /// `var := op(args…)` — applies an operation and binds the normalized
    /// result to a program variable, as in the paper's program segments.
    ///
    /// # Errors
    ///
    /// As for [`SymbolicSession::call`].
    pub fn assign(
        &mut self,
        var: &str,
        op: &str,
        args: impl IntoIterator<Item = SymArg>,
    ) -> Result<&Term> {
        let value = self.call(op, args)?;
        Ok(self
            .env
            .entry(var.to_owned())
            .and_modify(|t| *t = value.clone())
            .or_insert(value))
    }

    /// Normalizes an arbitrary term in this session's specification.
    ///
    /// # Errors
    ///
    /// Returns any normalization error.
    pub fn eval(&self, term: &Term) -> Result<Term> {
        self.rw.normalize(term)
    }

    /// The names of all bound program variables, sorted.
    pub fn bound_vars(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.env.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::SpecBuilder;

    fn queue_spec() -> Spec {
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        let new = b.ctor("NEW", [], queue);
        let add = b.ctor("ADD", [queue, item], queue);
        let remove = b.op("REMOVE", [queue], queue);
        let front = b.op("FRONT", [queue], item);
        let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
        b.ctor("A", [], item);
        b.ctor("B", [], item);
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

    #[test]
    fn program_segment_runs_against_axioms() {
        let spec = queue_spec();
        let mut s = SymbolicSession::new(&spec);
        let a = spec.sig().apply("A", vec![]).unwrap();
        let b = spec.sig().apply("B", vec![]).unwrap();

        s.assign("x", "NEW", []).unwrap();
        s.assign("x", "ADD", ["x".into(), a.clone().into()])
            .unwrap();
        s.assign("x", "ADD", ["x".into(), b.clone().into()])
            .unwrap();
        s.assign("x", "REMOVE", ["x".into()]).unwrap();

        // After NEW, ADD A, ADD B, REMOVE: the queue holds just B.
        let expected = spec
            .sig()
            .apply("ADD", vec![spec.sig().apply("NEW", vec![]).unwrap(), b])
            .unwrap();
        assert_eq!(s.get("x").unwrap(), &expected);

        let front = s.call("FRONT", ["x".into()]).unwrap();
        assert_eq!(front, spec.sig().apply("B", vec![]).unwrap());
        let _ = a;
    }

    #[test]
    fn unbound_variable_reference_errors() {
        let spec = queue_spec();
        let s = SymbolicSession::new(&spec);
        let err = s.call("REMOVE", ["nope".into()]).unwrap_err();
        assert!(err.to_string().contains("`nope`"));
    }

    #[test]
    fn unknown_operation_errors() {
        let spec = queue_spec();
        let mut s = SymbolicSession::new(&spec);
        s.assign("x", "NEW", []).unwrap();
        let err = s.call("POP", ["x".into()]).unwrap_err();
        assert!(err.to_string().contains("POP"));
    }

    #[test]
    fn ill_sorted_call_errors() {
        let spec = queue_spec();
        let mut s = SymbolicSession::new(&spec);
        s.assign("x", "NEW", []).unwrap();
        // ADD(x, x): second argument must be an Item.
        let err = s.call("ADD", ["x".into(), "x".into()]).unwrap_err();
        assert!(matches!(err, RewriteError::IllSorted { .. }));
    }

    #[test]
    fn error_values_flow_through_programs() {
        let spec = queue_spec();
        let mut s = SymbolicSession::new(&spec);
        s.assign("x", "NEW", []).unwrap();
        s.assign("x", "REMOVE", ["x".into()]).unwrap(); // REMOVE(NEW) = error
        let queue = spec.sig().find_sort("Queue").unwrap();
        assert_eq!(s.get("x").unwrap(), &Term::Error(queue));
        // Further operations stay error.
        let a = spec.sig().apply("A", vec![]).unwrap();
        s.assign("x", "ADD", ["x".into(), a.into()]).unwrap();
        assert_eq!(s.get("x").unwrap(), &Term::Error(queue));
    }

    #[test]
    fn set_and_bound_vars() {
        let spec = queue_spec();
        let mut s = SymbolicSession::new(&spec);
        let new = spec.sig().apply("NEW", vec![]).unwrap();
        s.set("y", new.clone()).unwrap();
        s.set("x", new).unwrap();
        assert_eq!(s.bound_vars(), vec!["x", "y"]);
        assert!(s.get("z").is_none());
    }
}
