//! Ground-term generation: the argument supply for bounded verification.
//!
//! Bounded model checking of axioms needs ground constructor terms of
//! every sort, enumerated exhaustively up to a depth. Deeper arguments
//! are sampled at random by [`adt_check::random_ctor_term`], the seeded
//! sampler the consistency probes use.

use std::collections::HashMap;

use adt_core::{Signature, SortId, Term};

/// Enumerates all ground constructor terms of `sort` with depth ≤
/// `max_depth`, capped at `cap` terms (breadth-first by depth, so shallow
/// terms are preferred when the cap bites).
pub fn enumerate_ctor_terms(
    sig: &Signature,
    sort: SortId,
    max_depth: usize,
    cap: usize,
) -> Vec<Term> {
    let mut memo: HashMap<(SortId, usize), Vec<Term>> = HashMap::new();
    let result = enumerate_rec(sig, sort, max_depth, cap, &mut memo);
    result.into_iter().take(cap).collect()
}

fn enumerate_rec(
    sig: &Signature,
    sort: SortId,
    depth: usize,
    cap: usize,
    memo: &mut HashMap<(SortId, usize), Vec<Term>>,
) -> Vec<Term> {
    if depth == 0 {
        return Vec::new();
    }
    if let Some(hit) = memo.get(&(sort, depth)) {
        return hit.clone();
    }
    let mut out: Vec<Term> = Vec::new();
    for ctor in sig.constructors_of(sort) {
        let info = sig.op(ctor);
        if info.arity() == 0 {
            out.push(Term::App(ctor, Vec::new()));
            continue;
        }
        // Cartesian product of argument enumerations at depth-1.
        let arg_choices: Vec<Vec<Term>> = info
            .args()
            .iter()
            .map(|&s| enumerate_rec(sig, s, depth - 1, cap, memo))
            .collect();
        if arg_choices.iter().any(Vec::is_empty) {
            continue;
        }
        let mut indices = vec![0usize; arg_choices.len()];
        'product: loop {
            if out.len() >= cap {
                break 'product;
            }
            let args: Vec<Term> = indices
                .iter()
                .zip(&arg_choices)
                .map(|(&i, choices)| choices[i].clone())
                .collect();
            out.push(Term::App(ctor, args));
            // Advance the odometer.
            let mut k = indices.len();
            loop {
                if k == 0 {
                    break 'product;
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < arg_choices[k].len() {
                    break;
                }
                indices[k] = 0;
            }
        }
        if out.len() >= cap {
            break;
        }
    }
    // Prefer shallow terms: enumeration above interleaves by constructor;
    // sort by size for stability.
    out.sort_by_key(Term::size);
    out.truncate(cap);
    memo.insert((sort, depth), out.clone());
    out
}

/// Enumerates ground terms *rooted at any operation* (constructors and
/// derived alike) whose arguments are constructor terms — the terms whose
/// meaning the axioms must pin down.
pub fn enumerate_terms(sig: &Signature, max_arg_depth: usize, cap_per_op: usize) -> Vec<Term> {
    let mut out = Vec::new();
    for op in sig.op_ids() {
        let info = sig.op(op);
        if info.is_builtin() {
            continue;
        }
        let arg_choices: Vec<Vec<Term>> = info
            .args()
            .iter()
            .map(|&s| enumerate_ctor_terms(sig, s, max_arg_depth, cap_per_op))
            .collect();
        if arg_choices.iter().any(Vec::is_empty) {
            if info.arity() == 0 {
                out.push(Term::App(op, Vec::new()));
            }
            continue;
        }
        let mut count = 0;
        let mut indices = vec![0usize; arg_choices.len()];
        'product: loop {
            if count >= cap_per_op {
                break;
            }
            let args: Vec<Term> = indices
                .iter()
                .zip(&arg_choices)
                .map(|(&i, choices)| choices[i].clone())
                .collect();
            out.push(Term::App(op, args));
            count += 1;
            let mut k = indices.len();
            loop {
                if k == 0 {
                    break 'product;
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < arg_choices[k].len() {
                    break;
                }
                indices[k] = 0;
            }
        }
    }
    out
}

/// A per-sort pool of enumerated ground constructor terms, shared by the
/// checking passes.
#[derive(Debug, Clone)]
pub struct TermPool {
    by_sort: HashMap<SortId, Vec<Term>>,
}

impl TermPool {
    /// Enumerates a pool for every sort of the signature.
    pub fn build(sig: &Signature, max_depth: usize, cap_per_sort: usize) -> Self {
        let by_sort = sig
            .sort_ids()
            .map(|s| (s, enumerate_ctor_terms(sig, s, max_depth, cap_per_sort)))
            .collect();
        TermPool { by_sort }
    }

    /// The enumerated terms of `sort` (empty if uninhabited).
    pub fn terms(&self, sort: SortId) -> &[Term] {
        self.by_sort.get(&sort).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether every listed sort is inhabited.
    pub fn inhabits_all(&self, sorts: impl IntoIterator<Item = SortId>) -> bool {
        sorts.into_iter().all(|s| !self.terms(s).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adt_core::{Spec, SpecBuilder};

    fn queue_spec() -> Spec {
        let mut b = SpecBuilder::new("Queue");
        let queue = b.sort("Queue");
        let item = b.param_sort("Item");
        b.ctor("NEW", [], queue);
        b.ctor("ADD", [queue, item], queue);
        b.ctor("A", [], item);
        b.ctor("B", [], item);
        b.op("FRONT", [queue], item);
        b.build().unwrap()
    }

    #[test]
    fn enumeration_counts_match_the_combinatorics() {
        let spec = queue_spec();
        let queue = spec.sig().find_sort("Queue").unwrap();
        // depth 1: NEW. depth 2: NEW, ADD(NEW, A), ADD(NEW, B).
        let d1 = enumerate_ctor_terms(spec.sig(), queue, 1, 1000);
        assert_eq!(d1.len(), 1);
        let d2 = enumerate_ctor_terms(spec.sig(), queue, 2, 1000);
        assert_eq!(d2.len(), 3);
        // depth 3: 1 + 2*3 = 7.
        let d3 = enumerate_ctor_terms(spec.sig(), queue, 3, 1000);
        assert_eq!(d3.len(), 7);
        for t in &d3 {
            assert!(t.is_constructor_term(spec.sig()));
            assert!(t.depth() <= 3);
        }
    }

    #[test]
    fn cap_prefers_shallow_terms() {
        let spec = queue_spec();
        let queue = spec.sig().find_sort("Queue").unwrap();
        let capped = enumerate_ctor_terms(spec.sig(), queue, 4, 4);
        assert_eq!(capped.len(), 4);
        // NEW must be present (it is the smallest term).
        let new = spec.sig().apply("NEW", vec![]).unwrap();
        assert!(capped.contains(&new));
        assert!(capped.windows(2).all(|w| w[0].size() <= w[1].size()));
    }

    #[test]
    fn uninhabited_sorts_enumerate_empty() {
        let mut b = SpecBuilder::new("S");
        let s = b.sort("S");
        let p = b.param_sort("P");
        b.ctor("MK", [p], s);
        let spec = b.build().unwrap();
        let sid = spec.sig().find_sort("S").unwrap();
        assert!(enumerate_ctor_terms(spec.sig(), sid, 5, 100).is_empty());
    }

    #[test]
    fn term_enumeration_includes_derived_roots() {
        let spec = queue_spec();
        let terms = enumerate_terms(spec.sig(), 2, 100);
        let front = spec.sig().find_op("FRONT").unwrap();
        let fronted = terms
            .iter()
            .filter(|t| matches!(t, Term::App(op, _) if *op == front))
            .count();
        assert_eq!(fronted, 3); // FRONT applied to each depth-2 queue
    }

    #[test]
    fn pool_serves_all_sorts() {
        let spec = queue_spec();
        let pool = TermPool::build(spec.sig(), 3, 50);
        let queue = spec.sig().find_sort("Queue").unwrap();
        let item = spec.sig().find_sort("Item").unwrap();
        assert_eq!(pool.terms(queue).len(), 7);
        assert_eq!(pool.terms(item).len(), 2);
        assert!(pool.inhabits_all([queue, item]));
        // Bool is inhabited by the builtins.
        assert!(pool.inhabits_all([spec.sig().bool_sort()]));
    }
}
