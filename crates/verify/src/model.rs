//! The [`Model`] trait: a Rust implementation of a specification's
//! operations, plus the table-driven [`ModelBuilder`] for assembling one
//! from closures.

use std::collections::HashMap;
use std::sync::Arc;

use adt_core::{OpId, SortId, Spec};

use crate::value::MValue;

/// An implementation ("interpretation", in the paper's words) of the
/// operations of a specification.
///
/// A model is *a representation of a type*: "(i) any interpretation
/// (implementation) of the operations of the type that is a model for the
/// axioms of the specification" (§4). Whether it actually is a model for
/// the axioms is what [`check_axioms`](crate::check_axioms) tests.
///
/// # Purity
///
/// [`Model::apply_op`] must be a function of its arguments: the same
/// operation on equal arguments gives an equal value, and a call changes
/// no state that a later call reads. The axiom checker relies on this: it
/// evaluates each enumerated argument once and shares that value across
/// every instance that binds it. A `Data` value may therefore be seen by
/// many calls at once; an operation that changes a structure must change
/// a copy of it.
pub trait Model {
    /// The specification this model implements.
    fn spec(&self) -> &Spec;

    /// Applies the implementation of `op` to argument values.
    ///
    /// Implementations can assume arguments are non-`error` and of the
    /// declared sorts: the framework propagates `error` strictly before
    /// calling (paper, §3) and generates only well-sorted arguments.
    fn apply_op(&self, op: OpId, args: &[MValue]) -> MValue;

    /// Value equality at a sort.
    ///
    /// The default handles primitive values; models with `Data` values at
    /// observable sorts must override. (For hidden/TOI sorts, equality is
    /// usually *behavioral* and tested through observers or Φ instead.)
    fn values_equal(&self, sort: SortId, a: &MValue, b: &MValue) -> bool {
        let _ = sort;
        a.prim_eq(b).unwrap_or(false)
    }

    /// Applies `op` with the paper's strict error rule.
    fn apply(&self, op: OpId, args: &[MValue]) -> MValue {
        if args.iter().any(MValue::is_error) {
            return MValue::Error;
        }
        self.apply_op(op, args)
    }
}

// `Arc … + Send + Sync` so a built model can be shared by reference
// across the parallel checker's worker threads.
type OpFn = Arc<dyn Fn(&[MValue]) -> MValue + Send + Sync>;
type EqFn = Arc<dyn Fn(&MValue, &MValue) -> bool + Send + Sync>;

/// A [`Model`] assembled from per-operation closures.
///
/// Built with [`ModelBuilder`]; the built-in `true` and `false` are wired
/// automatically.
pub struct TableModel<'a> {
    spec: &'a Spec,
    ops: HashMap<OpId, OpFn>,
    eqs: HashMap<SortId, EqFn>,
}

impl std::fmt::Debug for TableModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableModel")
            .field("spec", &self.spec.name())
            .field("ops", &self.ops.len())
            .field("eqs", &self.eqs.len())
            .finish()
    }
}

impl Model for TableModel<'_> {
    fn spec(&self) -> &Spec {
        self.spec
    }

    fn apply_op(&self, op: OpId, args: &[MValue]) -> MValue {
        match self.ops.get(&op) {
            Some(f) => f(args),
            None => panic!(
                "no implementation registered for operation `{}`",
                self.spec.sig().op(op).name()
            ),
        }
    }

    fn values_equal(&self, sort: SortId, a: &MValue, b: &MValue) -> bool {
        if let Some(eq) = self.eqs.get(&sort) {
            if let Some(prim) = a.prim_eq(b) {
                // Error vs non-error is decided uniformly.
                if a.is_error() || b.is_error() {
                    return prim;
                }
            }
            eq(a, b)
        } else {
            a.prim_eq(b).unwrap_or(false)
        }
    }
}

/// Builder for [`TableModel`].
///
/// ```
/// use adt_core::SpecBuilder;
/// use adt_verify::{Model, ModelBuilder, MValue};
///
/// let mut b = SpecBuilder::new("Nat");
/// let nat = b.sort("Nat");
/// let zero = b.ctor("ZERO", [], nat);
/// let succ = b.ctor("SUCC", [nat], nat);
/// let is_zero = b.op("IS_ZERO?", [nat], b.bool_sort());
/// let spec = b.build()?;
///
/// let model = ModelBuilder::new(&spec)
///     .op("ZERO", |_| MValue::Int(0))
///     .op("SUCC", |args| MValue::Int(args[0].as_int().unwrap() + 1))
///     .op("IS_ZERO?", |args| MValue::Bool(args[0].as_int() == Some(0)))
///     .build()?;
/// let z = model.apply(zero, &[]);
/// let one = model.apply(succ, &[z]);
/// assert_eq!(model.apply(is_zero, &[one]).as_bool(), Some(false));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ModelBuilder<'a> {
    spec: &'a Spec,
    ops: HashMap<OpId, OpFn>,
    eqs: HashMap<SortId, EqFn>,
    missing: Vec<String>,
}

impl std::fmt::Debug for ModelBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelBuilder")
            .field("spec", &self.spec.name())
            .field("ops", &self.ops.len())
            .finish()
    }
}

impl<'a> ModelBuilder<'a> {
    /// Starts a model for `spec` with the booleans pre-wired.
    pub fn new(spec: &'a Spec) -> Self {
        let mut ops: HashMap<OpId, OpFn> = HashMap::new();
        ops.insert(spec.sig().true_op(), Arc::new(|_| MValue::Bool(true)));
        ops.insert(spec.sig().false_op(), Arc::new(|_| MValue::Bool(false)));
        ModelBuilder {
            spec,
            ops,
            eqs: HashMap::new(),
            missing: Vec::new(),
        }
    }

    /// Registers the implementation of the operation named `name`.
    ///
    /// Unknown names are collected and reported by [`ModelBuilder::build`].
    #[must_use]
    pub fn op(
        mut self,
        name: &str,
        f: impl Fn(&[MValue]) -> MValue + Send + Sync + 'static,
    ) -> Self {
        match self.spec.sig().find_op(name) {
            Some(id) => {
                self.ops.insert(id, Arc::new(f));
            }
            None => self.missing.push(format!("unknown operation `{name}`")),
        }
        self
    }

    /// Registers a value-equality predicate for the sort named `name`
    /// (needed when the sort's values are `Data`).
    #[must_use]
    pub fn eq(
        mut self,
        name: &str,
        f: impl Fn(&MValue, &MValue) -> bool + Send + Sync + 'static,
    ) -> Self {
        match self.spec.sig().find_sort(name) {
            Some(id) => {
                self.eqs.insert(id, Arc::new(f));
            }
            None => self.missing.push(format!("unknown sort `{name}`")),
        }
        self
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns a message listing unknown names passed to
    /// [`ModelBuilder::op`]/[`ModelBuilder::eq`] and operations of the
    /// specification left without an implementation.
    pub fn build(self) -> Result<TableModel<'a>, String> {
        let mut problems = self.missing;
        for op in self.spec.sig().op_ids() {
            if !self.ops.contains_key(&op) {
                problems.push(format!(
                    "operation `{}` has no implementation",
                    self.spec.sig().op(op).name()
                ));
            }
        }
        if problems.is_empty() {
            Ok(TableModel {
                spec: self.spec,
                ops: self.ops,
                eqs: self.eqs,
            })
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::SpecBuilder;

    fn nat_spec() -> Spec {
        let mut b = SpecBuilder::new("Nat");
        let nat = b.sort("Nat");
        b.ctor("ZERO", [], nat);
        b.ctor("SUCC", [nat], nat);
        b.op("PRED", [nat], nat);
        b.build().unwrap()
    }

    fn nat_model(spec: &Spec) -> TableModel<'_> {
        ModelBuilder::new(spec)
            .op("ZERO", |_| MValue::Int(0))
            .op("SUCC", |args| MValue::Int(args[0].as_int().unwrap() + 1))
            .op("PRED", |args| match args[0].as_int().unwrap() {
                0 => MValue::Error,
                n => MValue::Int(n - 1),
            })
            .build()
            .unwrap()
    }

    #[test]
    fn closures_implement_operations() {
        let spec = nat_spec();
        let model = nat_model(&spec);
        let zero = spec.sig().find_op("ZERO").unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        let pred = spec.sig().find_op("PRED").unwrap();
        let z = model.apply(zero, &[]);
        let one = model.apply(succ, std::slice::from_ref(&z));
        assert_eq!(model.apply(pred, &[one]).as_int(), Some(0));
        assert!(model.apply(pred, &[z]).is_error());
    }

    #[test]
    fn error_propagates_strictly_without_calling_the_closure() {
        let spec = nat_spec();
        let model = ModelBuilder::new(&spec)
            .op("ZERO", |_| MValue::Int(0))
            .op("SUCC", |_| panic!("must not be called on error"))
            .op("PRED", |_| MValue::Int(0))
            .build()
            .unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        assert!(model.apply(succ, &[MValue::Error]).is_error());
    }

    #[test]
    fn builtin_booleans_are_prewired() {
        let spec = nat_spec();
        let model = nat_model(&spec);
        assert_eq!(model.apply(spec.sig().true_op(), &[]).as_bool(), Some(true));
        assert_eq!(
            model.apply(spec.sig().false_op(), &[]).as_bool(),
            Some(false)
        );
    }

    #[test]
    fn missing_implementation_is_reported() {
        let spec = nat_spec();
        let err = ModelBuilder::new(&spec)
            .op("ZERO", |_| MValue::Int(0))
            .build()
            .unwrap_err();
        assert!(err.contains("`SUCC`"));
        assert!(err.contains("`PRED`"));
    }

    #[test]
    fn unknown_names_are_reported() {
        let spec = nat_spec();
        let err = ModelBuilder::new(&spec)
            .op("ZORO", |_| MValue::Int(0))
            .eq("Gnat", |_, _| true)
            .build()
            .unwrap_err();
        assert!(err.contains("`ZORO`"));
        assert!(err.contains("`Gnat`"));
    }

    #[test]
    fn custom_equality_is_used_for_data() {
        let spec = nat_spec();
        let model = ModelBuilder::new(&spec)
            .op("ZERO", |_| MValue::data(vec![0u8]))
            .op("SUCC", |args| {
                let mut v = args[0].downcast::<Vec<u8>>().unwrap().clone();
                v.push(0);
                MValue::data(v)
            })
            .op("PRED", |_| MValue::Error)
            .eq("Nat", |a, b| {
                a.downcast::<Vec<u8>>().map(Vec::len) == b.downcast::<Vec<u8>>().map(Vec::len)
            })
            .build()
            .unwrap();
        let nat = spec.sig().find_sort("Nat").unwrap();
        let zero = spec.sig().find_op("ZERO").unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        let a = model.apply(zero, &[]);
        let b = model.apply(succ, std::slice::from_ref(&a));
        assert!(model.values_equal(nat, &a, &a));
        assert!(!model.values_equal(nat, &a, &b));
        // Error compares by the uniform rule even with a custom eq.
        assert!(model.values_equal(nat, &MValue::Error, &MValue::Error));
        assert!(!model.values_equal(nat, &MValue::Error, &a));
    }
}
