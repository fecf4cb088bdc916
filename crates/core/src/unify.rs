//! Syntactic unification (two-way), used for critical-pair computation.
//!
//! Unlike [matching](crate::match_pattern), unification may instantiate
//! variables of *both* terms. The result is a most general unifier (mgu)
//! in triangular-solved form with an occurs check, so the returned
//! substitution is idempotent and finite.

use crate::ids::VarId;
use crate::subst::Subst;
use crate::term::Term;

/// A most general unifier of two terms.
///
/// Applying [`Unifier::subst`] to either input yields the same term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unifier {
    /// The unifying substitution.
    pub subst: Subst,
}

/// Computes the most general unifier of `a` and `b`, if any.
///
/// Performs the occurs check, so cyclic "solutions" like `q = ADD(q, i)`
/// are rejected rather than looping.
///
/// ```
/// use adt_core::{unify, Signature, Term};
///
/// let mut sig = Signature::new();
/// let q = sig.add_sort("Queue").unwrap();
/// let i = sig.add_sort("Item").unwrap();
/// let add = sig.add_ctor("ADD", vec![q, i], q).unwrap();
/// let new = sig.add_ctor("NEW", vec![], q).unwrap();
/// let a = sig.add_ctor("A", vec![], i).unwrap();
/// let qv = sig.add_var("q", q).unwrap();
/// let iv = sig.add_var("i", i).unwrap();
///
/// let lhs = Term::App(add, vec![Term::Var(qv), Term::constant(a)]);
/// let rhs = Term::App(add, vec![Term::constant(new), Term::Var(iv)]);
/// let u = unify(&lhs, &rhs).expect("unifiable");
/// assert_eq!(u.subst.apply(&lhs), u.subst.apply(&rhs));
/// ```
pub fn unify(a: &Term, b: &Term) -> Option<Unifier> {
    let mut bindings = Bindings::new();
    if !unify_into(a, b, &mut bindings) {
        return None;
    }
    let mut subst = Subst::new();
    for (var, term) in bindings {
        subst.bind(var, term.clone());
    }
    Some(Unifier { subst })
}

/// The unifier under construction, in triangular form. Every bound term
/// is a subterm of one of the two inputs, so bindings borrow them: only
/// a successful unification clones anything, once per binding.
type Bindings<'t> = Vec<(VarId, &'t Term)>;

fn lookup<'t>(var: VarId, bindings: &Bindings<'t>) -> Option<&'t Term> {
    bindings.iter().find(|(v, _)| *v == var).map(|&(_, t)| t)
}

/// Walks variable chains until a non-variable or an unbound variable.
fn resolve<'t>(mut term: &'t Term, bindings: &Bindings<'t>) -> &'t Term {
    while let Term::Var(v) = term {
        match lookup(*v, bindings) {
            Some(t) => term = t,
            None => break,
        }
    }
    term
}

fn occurs(var: VarId, term: &Term, bindings: &Bindings<'_>) -> bool {
    match term {
        Term::Var(v) => *v == var || lookup(*v, bindings).is_some_and(|t| occurs(var, t, bindings)),
        Term::Error(_) => false,
        Term::App(_, args) => args.iter().any(|a| occurs(var, a, bindings)),
        Term::Ite(ite) => {
            occurs(var, &ite.cond, bindings)
                || occurs(var, &ite.then_branch, bindings)
                || occurs(var, &ite.else_branch, bindings)
        }
    }
}

fn unify_into<'t>(a: &'t Term, b: &'t Term, bindings: &mut Bindings<'t>) -> bool {
    let a = resolve(a, bindings);
    let b = resolve(b, bindings);
    match (a, b) {
        (Term::Var(v1), Term::Var(v2)) if v1 == v2 => true,
        (Term::Var(v), other) | (other, Term::Var(v)) => {
            if occurs(*v, other, bindings) {
                false
            } else {
                bindings.push((*v, other));
                true
            }
        }
        (Term::Error(s1), Term::Error(s2)) => s1 == s2,
        (Term::App(op1, args1), Term::App(op2, args2)) => {
            op1 == op2
                && args1.len() == args2.len()
                && args1
                    .iter()
                    .zip(args2)
                    .all(|(x, y)| unify_into(x, y, bindings))
        }
        (Term::Ite(x), Term::Ite(y)) => {
            unify_into(&x.cond, &y.cond, bindings)
                && unify_into(&x.then_branch, &y.then_branch, bindings)
                && unify_into(&x.else_branch, &y.else_branch, bindings)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    struct Fixture {
        sig: Signature,
        q: VarId,
        q1: VarId,
        i: VarId,
        i1: VarId,
    }

    fn fixture() -> Fixture {
        let mut sig = Signature::new();
        let queue = sig.add_sort("Queue").unwrap();
        let item = sig.add_sort("Item").unwrap();
        sig.add_ctor("NEW", vec![], queue).unwrap();
        sig.add_ctor("ADD", vec![queue, item], queue).unwrap();
        sig.add_ctor("A", vec![], item).unwrap();
        sig.add_ctor("B", vec![], item).unwrap();
        let q = sig.add_var("q", queue).unwrap();
        let q1 = sig.add_var("q1", queue).unwrap();
        let i = sig.add_var("i", item).unwrap();
        let i1 = sig.add_var("i1", item).unwrap();
        Fixture { sig, q, q1, i, i1 }
    }

    #[test]
    fn unifies_both_directions() {
        let f = fixture();
        let new = f.sig.apply("NEW", vec![]).unwrap();
        let a = f.sig.apply("A", vec![]).unwrap();
        let lhs = f.sig.apply("ADD", vec![Term::Var(f.q), a.clone()]).unwrap();
        let rhs = f
            .sig
            .apply("ADD", vec![new.clone(), Term::Var(f.i)])
            .unwrap();
        let u = unify(&lhs, &rhs).unwrap();
        assert_eq!(u.subst.apply(&lhs), u.subst.apply(&rhs));
        assert_eq!(u.subst.get(f.q), Some(&new));
        assert_eq!(u.subst.get(f.i), Some(&a));
    }

    #[test]
    fn occurs_check_rejects_cyclic() {
        let f = fixture();
        // q =? ADD(q, i) must fail.
        let add = f
            .sig
            .apply("ADD", vec![Term::Var(f.q), Term::Var(f.i)])
            .unwrap();
        assert!(unify(&Term::Var(f.q), &add).is_none());
        assert!(unify(&add, &Term::Var(f.q)).is_none());
    }

    #[test]
    fn variable_to_variable_unification() {
        let f = fixture();
        let u = unify(&Term::Var(f.q), &Term::Var(f.q1)).unwrap();
        assert_eq!(
            u.subst.apply(&Term::Var(f.q)),
            u.subst.apply(&Term::Var(f.q1))
        );
        // Self-unification is the identity.
        let u = unify(&Term::Var(f.q), &Term::Var(f.q)).unwrap();
        assert!(u.subst.is_empty());
    }

    #[test]
    fn clash_fails() {
        let f = fixture();
        let a = f.sig.apply("A", vec![]).unwrap();
        let b = f.sig.apply("B", vec![]).unwrap();
        assert!(unify(&a, &b).is_none());
        let new = f.sig.apply("NEW", vec![]).unwrap();
        let add = f.sig.apply("ADD", vec![new.clone(), a.clone()]).unwrap();
        assert!(unify(&new, &add).is_none());
    }

    #[test]
    fn chained_variables_resolve() {
        let f = fixture();
        let a = f.sig.apply("A", vec![]).unwrap();
        // Unify ADD(q, i) with ADD(q1, i1), then q1 with NEW via a second pair:
        let lhs = f
            .sig
            .apply("ADD", vec![Term::Var(f.q), Term::Var(f.i)])
            .unwrap();
        let rhs = f
            .sig
            .apply("ADD", vec![Term::Var(f.q1), Term::Var(f.i1)])
            .unwrap();
        let u = unify(&lhs, &rhs).unwrap();
        let lhs2 = u.subst.apply(&lhs);
        let rhs2 = u.subst.apply(&rhs);
        assert_eq!(lhs2, rhs2);
        // Now a ground instance of the common term still unifies with it.
        let new = f.sig.apply("NEW", vec![]).unwrap();
        let ground = f.sig.apply("ADD", vec![new, a]).unwrap();
        let u2 = unify(&lhs2, &ground).unwrap();
        assert_eq!(u2.subst.apply(&lhs2), ground);
    }

    #[test]
    fn unifier_substitution_is_idempotent_on_result() {
        let f = fixture();
        let new = f.sig.apply("NEW", vec![]).unwrap();
        let lhs = f
            .sig
            .apply("ADD", vec![Term::Var(f.q), Term::Var(f.i)])
            .unwrap();
        let rhs = f.sig.apply("ADD", vec![new, Term::Var(f.i1)]).unwrap();
        let u = unify(&lhs, &rhs).unwrap();
        let once = u.subst.apply(&lhs);
        let twice = u.subst.apply(&once);
        assert_eq!(once, twice);
    }
}
