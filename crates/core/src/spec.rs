//! Complete algebraic specifications and their builder.

use crate::axiom::Axiom;
use crate::error::CoreError;
use crate::ids::{OpId, SortId, VarId};
use crate::signature::{Fresh, Signature};
use crate::term::Term;
use crate::Result;

/// A complete algebraic specification: a signature, a set of axioms, the
/// *sorts of interest* it defines, and its parameter sorts.
///
/// This is the paper's central object (§2): "An algebraic specification of
/// an abstract type consists of two pairs: a syntactic specification and a
/// set of relations." A single `Spec` may define several types at once
/// (e.g. the Symboltable representation level, which speaks of Stack,
/// Array and the primed operations together) — the paper's "adding another
/// level to the specification".
///
/// Parameter sorts (such as `Item` in Queue-of-Items) make the
/// specification "a type schema rather than a single type" (§3). For
/// executable checking, parameter sorts are typically instantiated with a
/// few constant constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    name: String,
    sig: Signature,
    axioms: Vec<Axiom>,
    tois: Vec<SortId>,
    params: Vec<SortId>,
}

impl Spec {
    /// The specification's name, e.g. `"Queue"` or `"Symboltable"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The syntactic specification.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    /// All axioms, in declaration order.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// The axiom with the given label, if any.
    pub fn axiom_labelled(&self, label: &str) -> Option<&Axiom> {
        self.axioms.iter().find(|a| a.label() == label)
    }

    /// All axioms whose left-hand side is headed by `op`.
    pub fn axioms_for(&self, op: OpId) -> impl Iterator<Item = &Axiom> {
        self.axioms.iter().filter(move |a| a.head_op() == Some(op))
    }

    /// Indices into [`Spec::axioms`] bucketed by the head operation of the
    /// left-hand side: one bucket per operation of the signature, indexed
    /// by [`OpId::index`], each in declaration order.
    ///
    /// Two left-hand sides can only unify when their heads agree, so code
    /// that compares axioms pairwise walks one bucket instead of every
    /// pair.
    pub fn axiom_indices_by_head(&self) -> Vec<Vec<usize>> {
        let mut buckets = vec![Vec::new(); self.sig.op_count()];
        for (i, ax) in self.axioms.iter().enumerate() {
            if let Some(op) = ax.head_op() {
                buckets[op.index()].push(i);
            }
        }
        buckets
    }

    /// The sorts of interest — the sorts this specification defines.
    pub fn tois(&self) -> &[SortId] {
        &self.tois
    }

    /// The parameter sorts — sorts the specification is generic over.
    pub fn params(&self) -> &[SortId] {
        &self.params
    }

    /// Whether `sort` is one of the sorts of interest.
    pub fn is_toi(&self, sort: SortId) -> bool {
        self.tois.contains(&sort)
    }

    /// Whether `sort` is a parameter sort.
    pub fn is_param(&self, sort: SortId) -> bool {
        self.params.contains(&sort)
    }

    /// The *derived* (non-constructor, non-builtin) operations, i.e. those
    /// whose meaning the axioms must pin down on every constructor case for
    /// the specification to be sufficiently complete.
    pub fn derived_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.sig.op_ids().filter(move |&op| {
            let info = self.sig.op(op);
            !info.is_constructor() && !info.is_builtin()
        })
    }

    /// Re-validates every axiom against the signature.
    ///
    /// Specifications produced by [`SpecBuilder::build`] are always valid;
    /// this is exposed for specs assembled by other front ends (e.g. the
    /// DSL lowering).
    ///
    /// # Errors
    ///
    /// Returns the first axiom or structural error found.
    pub fn validate(&self) -> Result<()> {
        for toi in &self.tois {
            if self.sig.sort(*toi).is_builtin() {
                return Err(CoreError::InvalidSpec {
                    reason: format!(
                        "built-in sort `{}` cannot be a sort of interest",
                        self.sig.sort(*toi).name()
                    ),
                });
            }
            if self.sig.constructors_of(*toi).next().is_none() {
                return Err(CoreError::InvalidSpec {
                    reason: format!(
                        "sort of interest `{}` has no constructors; values of the type \
                         cannot be generated",
                        self.sig.sort(*toi).name()
                    ),
                });
            }
        }
        for (toi, param) in self
            .tois
            .iter()
            .flat_map(|t| self.params.iter().map(move |p| (*t, *p)))
        {
            if toi == param {
                return Err(CoreError::InvalidSpec {
                    reason: format!(
                        "sort `{}` is both a sort of interest and a parameter",
                        self.sig.sort(toi).name()
                    ),
                });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for ax in &self.axioms {
            ax.validate(&self.sig)?;
            if !seen.insert(ax.label().to_owned()) {
                return Err(CoreError::InvalidSpec {
                    reason: format!("duplicate axiom label `{}`", ax.label()),
                });
            }
        }
        Ok(())
    }

    /// Assembles a specification from parts, validating it.
    ///
    /// # Errors
    ///
    /// Returns any error [`Spec::validate`] would report.
    pub fn from_parts(
        name: impl Into<String>,
        sig: Signature,
        axioms: Vec<Axiom>,
        tois: Vec<SortId>,
        params: Vec<SortId>,
    ) -> Result<Spec> {
        let spec = Spec {
            name: name.into(),
            sig,
            axioms,
            tois,
            params,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A copy of the specification whose signature `declare` extends with
    /// fresh variables and constants (see [`Signature::extend`]), plus
    /// what `declare` returned.
    ///
    /// The copy is not re-validated: adding declarations cannot make an
    /// axiom ill-sorted, duplicate a label or take a constructor from a
    /// sort of interest. Axioms are validated where they enter a spec —
    /// [`SpecBuilder::build`] and the other callers of
    /// [`Spec::from_parts`].
    pub fn extend<R>(&self, declare: impl FnOnce(&mut Fresh<'_>) -> R) -> (Spec, R) {
        let (sig, out) = self.sig.extend(declare);
        let spec = Spec {
            name: self.name.clone(),
            sig,
            axioms: self.axioms.clone(),
            tois: self.tois.clone(),
            params: self.params.clone(),
        };
        (spec, out)
    }
}

/// Incremental builder for [`Spec`].
///
/// Declaration methods (`sort`, `op`, `ctor`, `var`, …) panic on duplicate
/// names — a duplicate is a bug in the program constructing the spec, not a
/// runtime condition. All *semantic* validation (sort checking of axioms,
/// generator existence, …) is deferred to [`SpecBuilder::build`], which
/// returns a `Result`.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug, Clone)]
pub struct SpecBuilder {
    name: String,
    sig: Signature,
    axioms: Vec<Axiom>,
    tois: Vec<SortId>,
    params: Vec<SortId>,
}

impl SpecBuilder {
    /// Starts a specification with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SpecBuilder {
            name: name.into(),
            sig: Signature::new(),
            axioms: Vec::new(),
            tois: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Declares a sort of interest.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn sort(&mut self, name: &str) -> SortId {
        let id = self
            .sig
            .add_sort(name)
            .unwrap_or_else(|e| panic!("SpecBuilder::sort: {e}"));
        self.tois.push(id);
        id
    }

    /// Declares a parameter sort (e.g. `Item`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn param_sort(&mut self, name: &str) -> SortId {
        let id = self
            .sig
            .add_sort(name)
            .unwrap_or_else(|e| panic!("SpecBuilder::param_sort: {e}"));
        self.params.push(id);
        id
    }

    /// Declares an auxiliary sort that is neither a sort of interest nor a
    /// parameter (rarely needed; used by representation-level specs for
    /// "carrier" sorts whose constructors are supplied elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn aux_sort(&mut self, name: &str) -> SortId {
        self.sig
            .add_sort(name)
            .unwrap_or_else(|e| panic!("SpecBuilder::aux_sort: {e}"))
    }

    /// Declares a non-constructor operation.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn op(
        &mut self,
        name: &str,
        args: impl IntoIterator<Item = SortId>,
        result: SortId,
    ) -> OpId {
        self.sig
            .add_op(name, args.into_iter().collect(), result)
            .unwrap_or_else(|e| panic!("SpecBuilder::op: {e}"))
    }

    /// Declares a constructor operation.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn ctor(
        &mut self,
        name: &str,
        args: impl IntoIterator<Item = SortId>,
        result: SortId,
    ) -> OpId {
        self.sig
            .add_ctor(name, args.into_iter().collect(), result)
            .unwrap_or_else(|e| panic!("SpecBuilder::ctor: {e}"))
    }

    /// Declares a typed variable.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn var(&mut self, name: &str, sort: SortId) -> VarId {
        self.sig
            .add_var(name, sort)
            .unwrap_or_else(|e| panic!("SpecBuilder::var: {e}"))
    }

    /// Builds an application term. No checking happens here; ill-sorted
    /// terms are reported by [`SpecBuilder::build`].
    pub fn app(&self, op: OpId, args: impl IntoIterator<Item = Term>) -> Term {
        Term::App(op, args.into_iter().collect())
    }

    /// The term `true`.
    pub fn tt(&self) -> Term {
        self.sig.tt()
    }

    /// The term `false`.
    pub fn ff(&self) -> Term {
        self.sig.ff()
    }

    /// The built-in `Bool` sort.
    pub fn bool_sort(&self) -> SortId {
        self.sig.bool_sort()
    }

    /// Adds an axiom `lhs = rhs`.
    pub fn axiom(&mut self, label: impl Into<String>, lhs: Term, rhs: Term) -> &mut Self {
        self.axioms.push(Axiom::new(label, lhs, rhs));
        self
    }

    /// Read access to the signature under construction (for term building
    /// helpers such as [`Signature::apply`]).
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    /// Finalizes and validates the specification.
    ///
    /// # Errors
    ///
    /// Returns any error [`Spec::validate`] would report: ill-sorted or
    /// ill-formed axioms, duplicate labels, a sort of interest without
    /// constructors, etc.
    pub fn build(self) -> Result<Spec> {
        Spec::from_parts(self.name, self.sig, self.axioms, self.tois, self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_builder() -> SpecBuilder {
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        let new = b.ctor("NEW", [], queue);
        let add = b.ctor("ADD", [queue, item], queue);
        let front = b.op("FRONT", [queue], item);
        let is_empty = b.op("IS_EMPTY?", [queue], b.bool_sort());
        let q = b.var("q", queue);
        let i = b.var("i", item);
        let tt = b.tt();
        b.axiom("q1", b.app(is_empty, [b.app(new, [])]), tt);
        let lhs = b.app(front, [b.app(add, [Term::Var(q), Term::Var(i)])]);
        let rhs = Term::ite(
            b.app(is_empty, [Term::Var(q)]),
            Term::Var(i),
            b.app(front, [Term::Var(q)]),
        );
        b.axiom("q4", lhs, rhs);
        b
    }

    #[test]
    fn builds_and_validates_queue_fragment() {
        let spec = queue_builder().build().unwrap();
        assert_eq!(spec.name(), "Queue");
        assert_eq!(spec.axioms().len(), 2);
        assert_eq!(spec.tois().len(), 1);
        assert_eq!(spec.params().len(), 1);
        let queue = spec.sig().find_sort("Queue").unwrap();
        assert!(spec.is_toi(queue));
        assert!(!spec.is_param(queue));
        let item = spec.sig().find_sort("Item").unwrap();
        assert!(spec.is_param(item));
        assert!(spec.axiom_labelled("q1").is_some());
        assert!(spec.axiom_labelled("zzz").is_none());
    }

    #[test]
    fn derived_ops_excludes_constructors_and_builtins() {
        let spec = queue_builder().build().unwrap();
        let derived: Vec<_> = spec
            .derived_ops()
            .map(|op| spec.sig().op(op).name().to_owned())
            .collect();
        assert_eq!(derived, vec!["FRONT", "IS_EMPTY?"]);
    }

    #[test]
    fn axioms_for_groups_by_head() {
        let spec = queue_builder().build().unwrap();
        let front = spec.sig().find_op("FRONT").unwrap();
        let labels: Vec<_> = spec.axioms_for(front).map(|a| a.label()).collect();
        assert_eq!(labels, vec!["q4"]);
    }

    #[test]
    fn axiom_indices_are_bucketed_by_head_in_declaration_order() {
        let mut b = queue_builder();
        let queue = b.sig().find_sort("Queue").unwrap();
        let is_empty = b.sig().find_op("IS_EMPTY?").unwrap();
        let add = b.sig().find_op("ADD").unwrap();
        let q = b.var("q2", queue);
        let i = b.var("i2", b.sig().find_sort("Item").unwrap());
        let ff = b.ff();
        let lhs = b.app(is_empty, [b.app(add, [Term::Var(q), Term::Var(i)])]);
        b.axiom("q2", lhs, ff);
        let spec = b.build().unwrap();
        let buckets = spec.axiom_indices_by_head();
        assert_eq!(buckets.len(), spec.sig().op_count());
        let front = spec.sig().find_op("FRONT").unwrap();
        assert_eq!(buckets[is_empty.index()], [0, 2]);
        assert_eq!(buckets[front.index()], [1]);
        assert!(buckets[add.index()].is_empty());
    }

    #[test]
    fn toi_without_constructors_is_rejected() {
        let mut b = SpecBuilder::new("Bad");
        let s = b.sort("S");
        b.op("F", [s], s);
        let err = b.build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec { .. }));
        assert!(err.to_string().contains("no constructors"));
    }

    #[test]
    fn duplicate_axiom_labels_are_rejected() {
        let mut b = SpecBuilder::new("Bad");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let f = b.op("F", [s], s);
        let v = b.var("x", s);
        b.axiom("a1", b.app(f, [Term::Var(v)]), Term::Var(v));
        b.axiom("a1", b.app(f, [b.app(c, [])]), b.app(c, []));
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("duplicate axiom label"));
    }

    #[test]
    fn ill_sorted_axiom_is_caught_at_build() {
        let mut b = SpecBuilder::new("Bad");
        let s = b.sort("S");
        let c = b.ctor("C", [], s);
        let f = b.op("F", [s], b.bool_sort());
        // F(C) = C : Bool vs S mismatch.
        b.axiom("a1", b.app(f, [b.app(c, [])]), b.app(c, []));
        assert!(matches!(b.build(), Err(CoreError::SortMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "SpecBuilder::sort")]
    fn duplicate_sort_panics() {
        let mut b = SpecBuilder::new("Bad");
        b.sort("S");
        b.sort("S");
    }

    #[test]
    fn overlapping_toi_and_param_is_rejected() {
        // Assemble by hand to bypass the builder's separate lists.
        let mut sig = Signature::new();
        let s = sig.add_sort("S").unwrap();
        sig.add_ctor("C", vec![], s).unwrap();
        let err = Spec::from_parts("Bad", sig, vec![], vec![s], vec![s]).unwrap_err();
        assert!(err.to_string().contains("both a sort of interest"));
    }

    #[test]
    fn builtin_toi_is_rejected() {
        let sig = Signature::new();
        let b = sig.bool_sort();
        let err = Spec::from_parts("Bad", sig, vec![], vec![b], vec![]).unwrap_err();
        assert!(err.to_string().contains("built-in"));
    }
}
