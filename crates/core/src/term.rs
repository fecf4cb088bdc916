//! First-order terms over a signature.
//!
//! Terms are the words of the algebra: typed variables, operator
//! applications, the distinguished strict `error` value (one per sort), and
//! the built-in polymorphic conditional `if-then-else` that the paper's
//! axioms use on their right-hand sides.

use crate::error::CoreError;
use crate::ids::{OpId, SortId, VarId};
use crate::signature::Signature;
use crate::Result;

/// The three-way conditional `if cond then then_branch else else_branch`.
///
/// The paper treats `if-then-else` as an ambient, polymorphic construct
/// rather than an operation of any one type, so we model it as a term
/// former. Its sort is the common sort of the two branches; the condition
/// must be of sort `Bool`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ite {
    /// The boolean condition.
    pub cond: Term,
    /// Value of the conditional when the condition is `true`.
    pub then_branch: Term,
    /// Value of the conditional when the condition is `false`.
    pub else_branch: Term,
}

/// A first-order term: variable, application, conditional, or `error`.
///
/// `error` is the paper's distinguished value "with the property that the
/// value of any operation applied to an argument list containing error is
/// error" (§3). Strict propagation is enforced by the rewrite engine in
/// `adt-rewrite`; at the term level `error` is simply a typed constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A typed free variable declared in the signature.
    Var(VarId),
    /// Application of an operation to argument terms (possibly zero).
    App(OpId, Vec<Term>),
    /// The built-in conditional.
    Ite(Box<Ite>),
    /// The distinguished `error` value of the given sort.
    Error(SortId),
}

/// A path from the root of a term to one of its subterms.
///
/// Each step selects an argument: for `App`, the argument index; for `Ite`,
/// `0` = condition, `1` = then-branch, `2` = else-branch. The empty
/// position denotes the term itself. Positions let rewrite traces report
/// *where* a rule fired.
pub type Position = Vec<u32>;

impl Term {
    /// Builds an `if-then-else` term.
    pub fn ite(cond: Term, then_branch: Term, else_branch: Term) -> Term {
        Term::Ite(Box::new(Ite {
            cond,
            then_branch,
            else_branch,
        }))
    }

    /// Builds a nullary application (a constant).
    pub fn constant(op: OpId) -> Term {
        Term::App(op, Vec::new())
    }

    /// Computes the sort of this term and checks it is well-sorted
    /// throughout: every application matches its operation's declared
    /// domain, every conditional has a `Bool` condition and branches of a
    /// common sort.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] or [`CoreError::SortMismatch`]
    /// describing the first violation found (leftmost-innermost).
    pub fn sort(&self, sig: &Signature) -> Result<SortId> {
        match self {
            Term::Var(v) => Ok(sig.var(*v).sort()),
            Term::Error(s) => Ok(*s),
            Term::App(op, args) => sig.check_app(*op, args.iter().map(|a| a.sort(sig))),
            Term::Ite(ite) => {
                let cond_sort = ite.cond.sort(sig)?;
                if cond_sort != sig.bool_sort() {
                    return Err(CoreError::SortMismatch {
                        context: "condition of if-then-else".into(),
                        expected: "Bool".into(),
                        found: sig.sort(cond_sort).name().into(),
                    });
                }
                let then_sort = ite.then_branch.sort(sig)?;
                let else_sort = ite.else_branch.sort(sig)?;
                if then_sort != else_sort {
                    return Err(CoreError::SortMismatch {
                        context: "else-branch of if-then-else".into(),
                        expected: sig.sort(then_sort).name().into(),
                        found: sig.sort(else_sort).name().into(),
                    });
                }
                Ok(then_sort)
            }
        }
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Error(_) => true,
            Term::App(_, args) => args.iter().all(Term::is_ground),
            Term::Ite(ite) => {
                ite.cond.is_ground() && ite.then_branch.is_ground() && ite.else_branch.is_ground()
            }
        }
    }

    /// Whether the term is the distinguished `error` value.
    pub fn is_error(&self) -> bool {
        matches!(self, Term::Error(_))
    }

    /// Whether the term is built purely from constructor applications (and
    /// `error`) — i.e. is a canonical value of the algebra.
    pub fn is_constructor_term(&self, sig: &Signature) -> bool {
        match self {
            Term::Var(_) | Term::Ite(_) => false,
            Term::Error(_) => true,
            Term::App(op, args) => {
                sig.op(*op).is_constructor() && args.iter().all(|a| a.is_constructor_term(sig))
            }
        }
    }

    /// Collects the distinct variables of the term in first-occurrence order.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Error(_) => {}
            Term::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Term::Ite(ite) => {
                ite.cond.collect_vars(out);
                ite.then_branch.collect_vars(out);
                ite.else_branch.collect_vars(out);
            }
        }
    }

    /// Number of nodes in the term.
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_) | Term::Error(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            Term::Ite(ite) => 1 + ite.cond.size() + ite.then_branch.size() + ite.else_branch.size(),
        }
    }

    /// Height of the term (a constant has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) | Term::Error(_) => 1,
            Term::App(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
            Term::Ite(ite) => {
                1 + ite
                    .cond
                    .depth()
                    .max(ite.then_branch.depth())
                    .max(ite.else_branch.depth())
            }
        }
    }

    /// The immediate children of the term, in positional order.
    pub fn children(&self) -> Vec<&Term> {
        match self {
            Term::Var(_) | Term::Error(_) => Vec::new(),
            Term::App(_, args) => args.iter().collect(),
            Term::Ite(ite) => vec![&ite.cond, &ite.then_branch, &ite.else_branch],
        }
    }

    /// The subterm at `pos`, if the position is valid.
    pub fn at(&self, pos: &[u32]) -> Option<&Term> {
        let mut cur = self;
        for &step in pos {
            cur = match cur {
                Term::App(_, args) => args.get(step as usize)?,
                Term::Ite(ite) => match step {
                    0 => &ite.cond,
                    1 => &ite.then_branch,
                    2 => &ite.else_branch,
                    _ => return None,
                },
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Returns a copy of the term with the subterm at `pos` replaced by
    /// `replacement`, or `None` if the position is invalid.
    pub fn replace_at(&self, pos: &[u32], replacement: Term) -> Option<Term> {
        if pos.is_empty() {
            return Some(replacement);
        }
        let step = pos[0] as usize;
        let rest = &pos[1..];
        match self {
            Term::App(op, args) => {
                let child = args.get(step)?.replace_at(rest, replacement)?;
                let mut new_args = args.clone();
                new_args[step] = child;
                Some(Term::App(*op, new_args))
            }
            Term::Ite(ite) => {
                let mut new = (**ite).clone();
                match step {
                    0 => new.cond = ite.cond.replace_at(rest, replacement)?,
                    1 => new.then_branch = ite.then_branch.replace_at(rest, replacement)?,
                    2 => new.else_branch = ite.else_branch.replace_at(rest, replacement)?,
                    _ => return None,
                }
                Some(Term::Ite(Box::new(new)))
            }
            _ => None,
        }
    }

    /// Iterates over all (position, subterm) pairs in pre-order.
    pub fn subterms(&self) -> Vec<(Position, &Term)> {
        let mut out = Vec::new();
        self.collect_subterms(Vec::new(), &mut out);
        out
    }

    fn collect_subterms<'a>(&'a self, pos: Position, out: &mut Vec<(Position, &'a Term)>) {
        out.push((pos.clone(), self));
        for (i, child) in self.children().into_iter().enumerate() {
            let mut child_pos = pos.clone();
            child_pos.push(i as u32);
            child.collect_subterms(child_pos, out);
        }
    }

    /// Whether `self` contains `needle` as a (possibly improper) subterm.
    pub fn contains(&self, needle: &Term) -> bool {
        if self == needle {
            return true;
        }
        self.children().into_iter().any(|c| c.contains(needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_with_queue() -> Signature {
        let mut sig = Signature::new();
        let queue = sig.add_sort("Queue").unwrap();
        let item = sig.add_sort("Item").unwrap();
        sig.add_ctor("NEW", vec![], queue).unwrap();
        sig.add_ctor("ADD", vec![queue, item], queue).unwrap();
        sig.add_op("FRONT", vec![queue], item).unwrap();
        sig.add_op("IS_EMPTY?", vec![queue], sig.bool_sort())
            .unwrap();
        sig.add_var("q", queue).unwrap();
        sig.add_var("i", item).unwrap();
        sig
    }

    fn t(sig: &Signature, src_op: &str, args: Vec<Term>) -> Term {
        sig.apply(src_op, args).unwrap()
    }

    #[test]
    fn sorts_of_terms() {
        let sig = sig_with_queue();
        let queue = sig.find_sort("Queue").unwrap();
        let item = sig.find_sort("Item").unwrap();
        let new = t(&sig, "NEW", vec![]);
        assert_eq!(new.sort(&sig).unwrap(), queue);
        let front = t(&sig, "FRONT", vec![new.clone()]);
        assert_eq!(front.sort(&sig).unwrap(), item);
        assert_eq!(Term::Error(item).sort(&sig).unwrap(), item);
        let q = Term::Var(sig.find_var("q").unwrap());
        assert_eq!(q.sort(&sig).unwrap(), queue);
    }

    #[test]
    fn ite_sort_checking() {
        let sig = sig_with_queue();
        let new = t(&sig, "NEW", vec![]);
        let i = Term::Var(sig.find_var("i").unwrap());
        let cond = t(&sig, "IS_EMPTY?", vec![new.clone()]);
        let good = Term::ite(cond.clone(), i.clone(), Term::Error(i.sort(&sig).unwrap()));
        assert_eq!(good.sort(&sig).unwrap(), sig.find_sort("Item").unwrap());

        // Non-bool condition.
        let bad_cond = Term::ite(new.clone(), i.clone(), i.clone());
        assert!(matches!(
            bad_cond.sort(&sig),
            Err(CoreError::SortMismatch { .. })
        ));

        // Mismatched branches.
        let bad_branches = Term::ite(cond, i, new);
        assert!(matches!(
            bad_branches.sort(&sig),
            Err(CoreError::SortMismatch { .. })
        ));
    }

    #[test]
    fn ill_sorted_application_is_detected_deep() {
        let sig = sig_with_queue();
        // ADD(NEW, NEW) — second argument should be Item.
        let new = sig.find_op("NEW").unwrap();
        let add = sig.find_op("ADD").unwrap();
        let bad = Term::App(add, vec![Term::constant(new), Term::constant(new)]);
        let err = bad.sort(&sig).unwrap_err();
        assert!(matches!(err, CoreError::SortMismatch { .. }));
        // Wrong arity deep inside.
        let bad_arity = Term::App(add, vec![Term::constant(new)]);
        assert!(matches!(
            bad_arity.sort(&sig),
            Err(CoreError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn groundness_and_constructor_terms() {
        let sig = sig_with_queue();
        let q = Term::Var(sig.find_var("q").unwrap());
        let i = Term::Var(sig.find_var("i").unwrap());
        let new = t(&sig, "NEW", vec![]);
        assert!(new.is_ground());
        assert!(new.is_constructor_term(&sig));
        let add_var = t(&sig, "ADD", vec![q.clone(), i.clone()]);
        assert!(!add_var.is_ground());
        assert!(!add_var.is_constructor_term(&sig));
        let front = t(&sig, "FRONT", vec![new.clone()]);
        assert!(front.is_ground());
        assert!(!front.is_constructor_term(&sig));
        let item = sig.find_sort("Item").unwrap();
        assert!(Term::Error(item).is_constructor_term(&sig));
    }

    #[test]
    fn vars_in_first_occurrence_order_without_duplicates() {
        let sig = sig_with_queue();
        let q = sig.find_var("q").unwrap();
        let i = sig.find_var("i").unwrap();
        let term = t(
            &sig,
            "ADD",
            vec![
                t(&sig, "ADD", vec![Term::Var(q), Term::Var(i)]),
                Term::Var(i),
            ],
        );
        assert_eq!(term.vars(), vec![q, i]);
    }

    #[test]
    fn size_depth_children() {
        let sig = sig_with_queue();
        let new = t(&sig, "NEW", vec![]);
        assert_eq!(new.size(), 1);
        assert_eq!(new.depth(), 1);
        let i = Term::Var(sig.find_var("i").unwrap());
        let add = t(&sig, "ADD", vec![new.clone(), i.clone()]);
        assert_eq!(add.size(), 3);
        assert_eq!(add.depth(), 2);
        assert_eq!(add.children().len(), 2);
        let ite = Term::ite(sig.tt(), i.clone(), i);
        assert_eq!(ite.size(), 4);
        assert_eq!(ite.children().len(), 3);
    }

    #[test]
    fn positions_navigate_and_replace() {
        let sig = sig_with_queue();
        let new = t(&sig, "NEW", vec![]);
        let i = Term::Var(sig.find_var("i").unwrap());
        let add = t(&sig, "ADD", vec![new.clone(), i.clone()]);
        assert_eq!(add.at(&[]), Some(&add));
        assert_eq!(add.at(&[0]), Some(&new));
        assert_eq!(add.at(&[1]), Some(&i));
        assert_eq!(add.at(&[2]), None);
        assert_eq!(add.at(&[0, 0]), None);

        let q = Term::Var(sig.find_var("q").unwrap());
        let replaced = add.replace_at(&[0], q.clone()).unwrap();
        assert_eq!(replaced.at(&[0]), Some(&q));
        assert_eq!(replaced.at(&[1]), Some(&i));
        assert!(add.replace_at(&[5], q).is_none());
    }

    #[test]
    fn subterms_enumerates_preorder() {
        let sig = sig_with_queue();
        let new = t(&sig, "NEW", vec![]);
        let i = Term::Var(sig.find_var("i").unwrap());
        let add = t(&sig, "ADD", vec![new.clone(), i.clone()]);
        let subs = add.subterms();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].0, Vec::<u32>::new());
        assert_eq!(subs[1], (vec![0], &new));
        assert_eq!(subs[2], (vec![1], &i));
        assert!(add.contains(&new));
        assert!(add.contains(&add));
        assert!(!new.contains(&add));
    }
}
