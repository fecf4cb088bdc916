//! Signatures: the *syntactic specification* of an abstract data type.
//!
//! A [`Signature`] owns the interned tables of sorts, operations and typed
//! variables. It corresponds exactly to what the paper calls the syntactic
//! specification: "the names, domains, and ranges of the operations
//! associated with the type" (§2), extended with the built-in sort `Bool`
//! (carrying `true` and `false`) that the paper's axioms use freely.

use std::collections::HashMap;

use crate::error::CoreError;
use crate::ids::{OpId, SortId, VarId};
use crate::term::Term;
use crate::Result;

/// Metadata for one sort (one carrier of the heterogeneous algebra).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortInfo {
    name: String,
    builtin: bool,
}

impl SortInfo {
    /// The sort's name, e.g. `"Queue"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this sort is built in (currently only `Bool`).
    pub fn is_builtin(&self) -> bool {
        self.builtin
    }
}

/// Metadata for one operation: its name, domain, range, and whether it is a
/// *constructor* — one of the operations in terms of which every value of
/// the type can be generated (e.g. `NEW` and `ADD` for Queue, but not
/// `REMOVE`, even though `REMOVE` also ranges over Queue).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpInfo {
    name: String,
    args: Vec<SortId>,
    result: SortId,
    constructor: bool,
    builtin: bool,
}

impl OpInfo {
    /// The operation's name, e.g. `"ADD"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sorts of the operation's arguments (its domain), in order.
    pub fn args(&self) -> &[SortId] {
        &self.args
    }

    /// The operation's arity (number of arguments).
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The operation's result sort (its range).
    pub fn result(&self) -> SortId {
        self.result
    }

    /// Whether the operation is designated a constructor of its result sort.
    pub fn is_constructor(&self) -> bool {
        self.constructor
    }

    /// Whether the operation is built in (`true` / `false`).
    pub fn is_builtin(&self) -> bool {
        self.builtin
    }
}

/// Metadata for one typed free variable, usable in axioms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    name: String,
    sort: SortId,
}

impl VarInfo {
    /// The variable's name, e.g. `"q"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variable's sort.
    pub fn sort(&self) -> SortId {
        self.sort
    }
}

/// The syntactic specification of one or more abstract types: interned
/// sorts, operations and variables, plus the built-in booleans.
///
/// A fresh signature always contains the sort `Bool` with nullary
/// constructors `true` and `false`; the paper's axioms rely on them (and on
/// `if-then-else`, which is a term former, see [`Term::Ite`]).
///
/// ```
/// use adt_core::Signature;
///
/// let mut sig = Signature::new();
/// let queue = sig.add_sort("Queue").unwrap();
/// let item = sig.add_sort("Item").unwrap();
/// let add = sig.add_ctor("ADD", vec![queue, item], queue).unwrap();
/// assert_eq!(sig.op(add).name(), "ADD");
/// assert_eq!(sig.op(add).arity(), 2);
/// assert!(sig.op(sig.true_op()).is_builtin());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    sorts: Vec<SortInfo>,
    sort_by_name: HashMap<String, SortId>,
    ops: Vec<OpInfo>,
    op_by_name: HashMap<String, OpId>,
    /// `ctors[sort.index()]` lists the constructors of `sort` in
    /// declaration order (shorter than `sorts` when the last sorts have
    /// none yet).
    ctors: Vec<Vec<OpId>>,
    vars: Vec<VarInfo>,
    var_by_name: HashMap<String, VarId>,
    bool_sort: SortId,
    true_op: OpId,
    false_op: OpId,
}

impl Default for Signature {
    fn default() -> Self {
        Self::new()
    }
}

impl Signature {
    /// Creates a signature containing only the built-ins: sort `Bool` with
    /// constructors `true` and `false`.
    pub fn new() -> Self {
        let mut sig = Signature {
            sorts: Vec::new(),
            sort_by_name: HashMap::new(),
            ops: Vec::new(),
            op_by_name: HashMap::new(),
            ctors: Vec::new(),
            vars: Vec::new(),
            var_by_name: HashMap::new(),
            bool_sort: SortId(0),
            true_op: OpId(0),
            false_op: OpId(1),
        };
        let bool_sort = sig
            .add_sort_impl("Bool", true)
            .expect("fresh signature cannot contain Bool");
        sig.bool_sort = bool_sort;
        sig.true_op = sig
            .add_op_impl("true", Vec::new(), bool_sort, true, true)
            .expect("fresh signature cannot contain true");
        sig.false_op = sig
            .add_op_impl("false", Vec::new(), bool_sort, true, true)
            .expect("fresh signature cannot contain false");
        sig
    }

    fn add_sort_impl(&mut self, name: &str, builtin: bool) -> Result<SortId> {
        if self.sort_by_name.contains_key(name) {
            return Err(CoreError::DuplicateSort { name: name.into() });
        }
        let id = SortId(crate::ids::checked_index(self.sorts.len(), "sort")?);
        self.sorts.push(SortInfo {
            name: name.into(),
            builtin,
        });
        self.sort_by_name.insert(name.into(), id);
        Ok(id)
    }

    fn add_op_impl(
        &mut self,
        name: &str,
        args: Vec<SortId>,
        result: SortId,
        constructor: bool,
        builtin: bool,
    ) -> Result<OpId> {
        if self.op_by_name.contains_key(name) {
            return Err(CoreError::DuplicateOp { name: name.into() });
        }
        let id = OpId(crate::ids::checked_index(self.ops.len(), "operation")?);
        if constructor {
            if self.ctors.len() <= result.index() {
                self.ctors.resize_with(result.index() + 1, Vec::new);
            }
            self.ctors[result.index()].push(id);
        }
        self.ops.push(OpInfo {
            name: name.into(),
            args,
            result,
            constructor,
            builtin,
        });
        self.op_by_name.insert(name.into(), id);
        Ok(id)
    }

    /// Declares a new sort.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateSort`] if the name is already taken
    /// (including by the built-in `Bool`).
    pub fn add_sort(&mut self, name: &str) -> Result<SortId> {
        self.add_sort_impl(name, false)
    }

    /// Declares a new non-constructor operation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateOp`] if the name is already taken.
    pub fn add_op(&mut self, name: &str, args: Vec<SortId>, result: SortId) -> Result<OpId> {
        self.add_op_impl(name, args, result, false, false)
    }

    /// Declares a new constructor operation (one of the generators of its
    /// result sort).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateOp`] if the name is already taken.
    pub fn add_ctor(&mut self, name: &str, args: Vec<SortId>, result: SortId) -> Result<OpId> {
        self.add_op_impl(name, args, result, true, false)
    }

    /// Declares a new typed free variable for use in axioms.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateVar`] if the name is already taken.
    pub fn add_var(&mut self, name: &str, sort: SortId) -> Result<VarId> {
        if self.var_by_name.contains_key(name) {
            return Err(CoreError::DuplicateVar { name: name.into() });
        }
        let id = VarId(crate::ids::checked_index(self.vars.len(), "variable")?);
        self.vars.push(VarInfo {
            name: name.into(),
            sort,
        });
        self.var_by_name.insert(name.into(), id);
        Ok(id)
    }

    /// Looks up sort metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this signature.
    pub fn sort(&self, id: SortId) -> &SortInfo {
        &self.sorts[id.index()]
    }

    /// Looks up operation metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this signature.
    pub fn op(&self, id: OpId) -> &OpInfo {
        &self.ops[id.index()]
    }

    /// Looks up variable metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this signature.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// Fallible operation lookup, for engine code that must stay total
    /// even when handed a term from a different specification.
    pub fn try_op(&self, id: OpId) -> Result<&OpInfo, crate::EngineError> {
        self.ops
            .get(id.index())
            .ok_or(crate::EngineError::DanglingId {
                kind: "operation",
                index: id.index(),
            })
    }

    /// Resolves a sort by name.
    pub fn find_sort(&self, name: &str) -> Option<SortId> {
        self.sort_by_name.get(name).copied()
    }

    /// Resolves an operation by name.
    pub fn find_op(&self, name: &str) -> Option<OpId> {
        self.op_by_name.get(name).copied()
    }

    /// Resolves a variable by name.
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.var_by_name.get(name).copied()
    }

    /// Resolves an operation by name, or produces a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unknown`] if no such operation exists.
    pub fn op_named(&self, name: &str) -> Result<OpId> {
        self.find_op(name).ok_or_else(|| CoreError::Unknown {
            kind: "operation",
            name: name.into(),
        })
    }

    /// Iterates over all sort ids in declaration order.
    pub fn sort_ids(&self) -> impl Iterator<Item = SortId> + '_ {
        (0..self.sorts.len()).map(SortId::from_index)
    }

    /// Iterates over all operation ids in declaration order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(OpId::from_index)
    }

    /// Iterates over all variable ids in declaration order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len()).map(VarId::from_index)
    }

    /// All designated constructors of `sort`, in declaration order.
    pub fn constructors_of(&self, sort: SortId) -> impl Iterator<Item = OpId> + Clone + '_ {
        self.ctors
            .get(sort.index())
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .copied()
    }

    /// The built-in `Bool` sort.
    pub fn bool_sort(&self) -> SortId {
        self.bool_sort
    }

    /// The built-in nullary operation `true`.
    pub fn true_op(&self) -> OpId {
        self.true_op
    }

    /// The built-in nullary operation `false`.
    pub fn false_op(&self) -> OpId {
        self.false_op
    }

    /// The term `true`.
    pub fn tt(&self) -> Term {
        Term::App(self.true_op, Vec::new())
    }

    /// The term `false`.
    pub fn ff(&self) -> Term {
        Term::App(self.false_op, Vec::new())
    }

    /// Builds a well-sorted application of the operation named `name`.
    ///
    /// This is the checked, name-based convenience used by tests and
    /// examples; hot paths construct [`Term::App`] directly.
    ///
    /// # Errors
    ///
    /// Returns an error if the operation is unknown, the arity is wrong, or
    /// an argument has the wrong sort.
    pub fn apply(&self, name: &str, args: Vec<Term>) -> Result<Term> {
        let op = self.op_named(name)?;
        self.check_app(op, args.iter().map(|a| a.sort(self)))?;
        Ok(Term::App(op, args))
    }

    /// Checks an application of `op` whose arguments have the given
    /// sorts, and returns its result sort. The sorts are drawn in order,
    /// so an argument's own error surfaces at its position.
    /// [`Signature::apply`], [`Term::sort`] and `Session::app` all check
    /// applications here, so they report the same errors.
    pub(crate) fn check_app(
        &self,
        op: OpId,
        arg_sorts: impl ExactSizeIterator<Item = Result<SortId>>,
    ) -> Result<SortId> {
        let info = self.op(op);
        if info.arity() != arg_sorts.len() {
            return Err(CoreError::ArityMismatch {
                op: info.name().into(),
                expected: info.arity(),
                found: arg_sorts.len(),
            });
        }
        for (i, (found, &expected)) in arg_sorts.zip(info.args()).enumerate() {
            let found = found?;
            if found != expected {
                return Err(CoreError::SortMismatch {
                    context: format!("argument {} of {}", i + 1, info.name()),
                    expected: self.sort(expected).name().into(),
                    found: self.sort(found).name().into(),
                });
            }
        }
        Ok(info.result())
    }

    /// Number of declared sorts (including built-ins).
    pub fn sort_count(&self) -> usize {
        self.sorts.len()
    }

    /// Number of declared operations (including built-ins).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// A copy of the signature extended by `declare`, which can only add
    /// fresh variables and constants (see [`Fresh`]), plus what `declare`
    /// returned. Every term that sort-checks against `self` still does
    /// against the copy, with the same sort.
    pub fn extend<R>(&self, declare: impl FnOnce(&mut Fresh<'_>) -> R) -> (Signature, R) {
        let mut sig = self.clone();
        let out = declare(&mut Fresh { sig: &mut sig });
        (sig, out)
    }
}

/// The handle [`Signature::extend`] and [`crate::Spec::extend`] give their
/// closure. It declares new variables and constants under the first name
/// from a list of candidates that is still free, and nothing else: no
/// existing sort, operation or variable changes, so an extension keeps
/// every axiom valid.
#[derive(Debug)]
pub struct Fresh<'a> {
    sig: &'a mut Signature,
}

impl Fresh<'_> {
    /// The signature extended so far.
    pub fn sig(&self) -> &Signature {
        self.sig
    }

    /// Declares a variable of `sort` under the first name in `candidates`
    /// that no variable has yet.
    ///
    /// # Panics
    ///
    /// Panics if every candidate is taken; callers pass an unbounded list.
    pub fn var(&mut self, sort: SortId, candidates: impl IntoIterator<Item = String>) -> VarId {
        let name = first_free(candidates, |n| self.sig.var_by_name.contains_key(n));
        self.sig.add_var(&name, sort).expect("the name is free")
    }

    /// Declares a constant (a nullary constructor) of `sort` under the
    /// first name in `candidates` that no operation has yet.
    ///
    /// # Panics
    ///
    /// Panics if every candidate is taken; callers pass an unbounded list.
    pub fn constant(&mut self, sort: SortId, candidates: impl IntoIterator<Item = String>) -> OpId {
        let name = first_free(candidates, |n| self.sig.op_by_name.contains_key(n));
        self.sig
            .add_ctor(&name, Vec::new(), sort)
            .expect("the name is free")
    }
}

/// The first candidate that is not `taken`.
fn first_free(
    candidates: impl IntoIterator<Item = String>,
    taken: impl Fn(&str) -> bool,
) -> String {
    candidates
        .into_iter()
        .find(|name| !taken(name))
        .expect("every candidate name is taken")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_sig() -> (Signature, SortId, SortId) {
        let mut sig = Signature::new();
        let queue = sig.add_sort("Queue").unwrap();
        let item = sig.add_sort("Item").unwrap();
        sig.add_ctor("NEW", vec![], queue).unwrap();
        sig.add_ctor("ADD", vec![queue, item], queue).unwrap();
        sig.add_op("FRONT", vec![queue], item).unwrap();
        sig.add_op("REMOVE", vec![queue], queue).unwrap();
        sig.add_op("IS_EMPTY?", vec![queue], sig.bool_sort())
            .unwrap();
        (sig, queue, item)
    }

    #[test]
    fn builtins_exist_in_fresh_signature() {
        let sig = Signature::new();
        assert_eq!(sig.sort(sig.bool_sort()).name(), "Bool");
        assert!(sig.sort(sig.bool_sort()).is_builtin());
        assert_eq!(sig.op(sig.true_op()).name(), "true");
        assert_eq!(sig.op(sig.false_op()).name(), "false");
        assert!(sig.op(sig.true_op()).is_constructor());
        assert_eq!(sig.op(sig.true_op()).result(), sig.bool_sort());
    }

    #[test]
    fn duplicate_declarations_are_rejected() {
        let mut sig = Signature::new();
        sig.add_sort("Queue").unwrap();
        assert_eq!(
            sig.add_sort("Queue"),
            Err(CoreError::DuplicateSort {
                name: "Queue".into()
            })
        );
        assert!(sig.add_sort("Bool").is_err());
        let q = sig.find_sort("Queue").unwrap();
        sig.add_op("FRONT", vec![q], q).unwrap();
        assert!(sig.add_op("FRONT", vec![q], q).is_err());
        assert!(sig.add_ctor("true", vec![], q).is_err());
        sig.add_var("q", q).unwrap();
        assert!(sig.add_var("q", q).is_err());
    }

    #[test]
    fn lookup_by_name_and_id_agree() {
        let (sig, queue, _) = queue_sig();
        let add = sig.find_op("ADD").unwrap();
        assert_eq!(sig.op(add).name(), "ADD");
        assert_eq!(sig.op(add).args(), &[queue, sig.find_sort("Item").unwrap()]);
        assert_eq!(sig.op(add).result(), queue);
        assert!(sig.find_op("POP").is_none());
        assert!(matches!(
            sig.op_named("POP"),
            Err(CoreError::Unknown {
                kind: "operation",
                ..
            })
        ));
    }

    #[test]
    fn constructor_classification() {
        let (sig, queue, _) = queue_sig();
        let ctors: Vec<_> = sig
            .constructors_of(queue)
            .map(|op| sig.op(op).name().to_owned())
            .collect();
        // REMOVE ranges over Queue but is not a constructor.
        assert_eq!(ctors, vec!["NEW", "ADD"]);
        let bools: Vec<_> = sig.constructors_of(sig.bool_sort()).collect();
        assert_eq!(bools, vec![sig.true_op(), sig.false_op()]);
    }

    #[test]
    fn apply_checks_arity_and_sorts() {
        let (sig, _, _) = queue_sig();
        let new = sig.apply("NEW", vec![]).unwrap();
        let added = sig.apply("ADD", vec![new.clone(), sig.tt()]);
        // Item != Bool
        assert!(matches!(added, Err(CoreError::SortMismatch { .. })));
        assert!(matches!(
            sig.apply("NEW", vec![sig.tt()]),
            Err(CoreError::ArityMismatch { .. })
        ));
        let front = sig.apply("FRONT", vec![new]).unwrap();
        assert_eq!(front.sort(&sig).unwrap(), sig.find_sort("Item").unwrap());
    }

    #[test]
    fn counts_track_declarations() {
        let (sig, _, _) = queue_sig();
        assert_eq!(sig.sort_count(), 3); // Bool, Queue, Item
        assert_eq!(sig.op_count(), 7); // true, false + 5 queue ops
        assert_eq!(sig.var_count(), 0);
    }
}
