//! The rewrite-rule table: axioms read left to right, indexed by head
//! operation.
//!
//! A rule *is* an axiom — the spec's [`Axiom`] is the only rule type —
//! so the table stores axioms, bucketed by the operation at the head of
//! their left-hand side, each bucket in insertion order. The table lives
//! in `adt-core` (rather than the rewrite crate that executes it) so a
//! [`crate::Session`] can own it alongside the signature and the term
//! arena: every engine built for the session borrows that one table
//! instead of building its own.
//!
//! The table has no iteration API on purpose: code that needs every
//! rule in a fixed order walks [`crate::Spec::axioms`], which is
//! declaration order.

use crate::{Axiom, OpId, Spec};

/// Axioms indexed by the head operation of their left-hand sides, so the
/// engine only tries rules that can possibly match.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// One bucket per operation, indexed by [`OpId::index`].
    by_head: Vec<Vec<Axiom>>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// The rule set of a specification: every axiom, in declaration order.
    pub fn from_spec(spec: &Spec) -> Self {
        let mut rs = RuleSet::new();
        for ax in spec.axioms() {
            rs.add(ax.clone());
        }
        rs
    }

    /// Adds a rule (e.g. an induction hypothesis). Rules for the same
    /// head are tried in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the rule's left-hand side is not an application (which
    /// no axiom passing [`Axiom::validate`] has).
    pub fn add(&mut self, rule: Axiom) {
        let Some(head) = rule.head_op() else {
            panic!("rule left-hand side must be an application");
        };
        let index = head.index();
        if self.by_head.len() <= index {
            self.by_head.resize_with(index + 1, Vec::new);
        }
        self.by_head[index].push(rule);
    }

    /// The rules whose left-hand side is headed by `op`, in insertion
    /// order.
    pub fn for_head(&self, op: OpId) -> &[Axiom] {
        self.by_head.get(op.index()).map_or(&[], Vec::as_slice)
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.by_head.iter().map(Vec::len).sum()
    }

    /// Whether the set contains no rules.
    pub fn is_empty(&self) -> bool {
        self.by_head.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpecBuilder, Term};

    fn tiny_spec() -> Spec {
        let mut b = SpecBuilder::new("Tiny");
        let s = b.sort("S");
        let zero = b.ctor("ZERO", [], s);
        let succ = b.ctor("SUCC", [s], s);
        let is_zero = b.op("IS_ZERO?", [s], b.bool_sort());
        let x = b.var("x", s);
        let tt = b.tt();
        let ff = b.ff();
        b.axiom("z1", b.app(is_zero, [b.app(zero, [])]), tt);
        b.axiom("z2", b.app(is_zero, [b.app(succ, [Term::Var(x)])]), ff);
        b.build().unwrap()
    }

    #[test]
    fn compiles_axioms_indexed_by_head() {
        let spec = tiny_spec();
        let rs = RuleSet::from_spec(&spec);
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        let is_zero = spec.sig().find_op("IS_ZERO?").unwrap();
        assert_eq!(rs.for_head(is_zero).len(), 2);
        let zero = spec.sig().find_op("ZERO").unwrap();
        assert_eq!(rs.for_head(zero), &[]);
    }

    #[test]
    fn rules_keep_insertion_order_per_head() {
        let spec = tiny_spec();
        let rs = RuleSet::from_spec(&spec);
        let is_zero = spec.sig().find_op("IS_ZERO?").unwrap();
        let labels: Vec<_> = rs.for_head(is_zero).iter().map(Axiom::label).collect();
        assert_eq!(labels, vec!["z1", "z2"]);
    }

    #[test]
    #[should_panic(expected = "left-hand side must be an application")]
    fn variable_lhs_panics() {
        let spec = tiny_spec();
        let x = spec.sig().find_var("x").unwrap();
        RuleSet::new().add(Axiom::new("bad", Term::Var(x), Term::Var(x)));
    }

    #[test]
    fn manual_rule_addition() {
        let spec = tiny_spec();
        let mut rs = RuleSet::from_spec(&spec);
        let x = spec.sig().find_var("x").unwrap();
        let succ = spec.sig().find_op("SUCC").unwrap();
        // A (nonsensical but well-formed) extra rule: SUCC(x) -> x.
        rs.add(Axiom::new(
            "extra",
            Term::App(succ, vec![Term::Var(x)]),
            Term::Var(x),
        ));
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.for_head(succ).len(), 1);
    }
}
