//! The paper's `Array` (a map from Identifier to attributes), in two
//! representations:
//!
//! * [`HashArray`] — the paper's §4 implementation: a fixed table of
//!   buckets, each a chain of entries, with new entries *prepended* so a
//!   re-declaration shadows the old one (exactly the PL/I code's
//!   `new_entry -> next := hash_tab(HASH(indx))`). The chains are
//!   shared: an entry is never changed once it is linked, so a clone
//!   copies only the bucket spine (one pointer per bucket) and the
//!   entries stay shared between the copies. `ASSIGN` on either copy
//!   conses a new head onto its own spine.
//! * [`LinearArray`] — the naive association list, the representation a
//!   designer might freeze prematurely (§5: "The premature choice of a
//!   storage structure … is a common cause of inefficiencies"). The
//!   `array_representations` benchmark measures the cost of that choice.
//!
//! Both implement [`ScopeArray`], the behavioral interface the symbol
//! table is written against — so swapping representations is a one-line
//! change, which is the paper's point.

use std::fmt;
use std::sync::Arc;

use crate::ident::{hash_bucket, Ident};

/// The operations of the paper's `Array` type (axioms 17–20), as a trait
/// so the symbol table can be instantiated with any representation.
///
/// Lookups take the identifier's spelling: an `&Ident` coerces to it.
pub trait ScopeArray<V>: Clone {
    /// The paper's `EMPTY`.
    fn empty() -> Self;

    /// The paper's `ASSIGN`, in place. The algebraic reading (a new
    /// array, the argument unchanged) is a clone followed by `assign`;
    /// what that clone copies is up to the representation
    /// ([`HashArray`] copies only its bucket spine).
    fn assign(&mut self, id: Ident, value: V);

    /// The paper's `READ`, `None` for the specification's `error` case.
    fn read(&self, id: &str) -> Option<&V>;

    /// The paper's `IS_UNDEFINED?`.
    fn is_undefined(&self, id: &str) -> bool {
        self.read(id).is_none()
    }
}

/// One chained entry — the PL/I `entry based` structure. Linked once
/// and never changed, so chains can be shared between arrays.
#[derive(Debug)]
struct Entry<V> {
    id: Ident,
    value: V,
    next: Chain<V>,
}

/// A bucket: the newest entry first.
type Chain<V> = Option<Arc<Entry<V>>>;

/// A fixed-size chained hash table keyed by [`Ident`].
///
/// Cloning copies the bucket spine and shares every entry.
///
/// ```
/// use adt_structures::{HashArray, Ident, ScopeArray};
///
/// let mut arr: HashArray<u32> = HashArray::empty();
/// arr.assign(Ident::new("x"), 1);
/// arr.assign(Ident::new("x"), 2); // shadows the first entry
/// assert_eq!(arr.read(&Ident::new("x")), Some(&2));
/// assert!(arr.is_undefined(&Ident::new("y")));
/// ```
#[derive(Clone)]
pub struct HashArray<V> {
    buckets: Vec<Chain<V>>,
}

/// Default number of buckets (the paper's `n`).
const DEFAULT_BUCKETS: usize = 64;

impl<V> HashArray<V> {
    /// Creates an empty array with `n` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_buckets(n: usize) -> Self {
        assert!(n > 0, "hash table must have at least one bucket");
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, || None);
        HashArray { buckets }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of stored entries, counting shadowed ones (the chains keep
    /// every `ASSIGN`, as the axioms do).
    pub fn entry_count(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| {
                let mut n = 0;
                let mut cur = b.as_deref();
                while let Some(e) = cur {
                    n += 1;
                    cur = e.next.as_deref();
                }
                n
            })
            .sum()
    }

    /// Iterates over the *visible* (unshadowed) bindings in unspecified
    /// order.
    pub fn visible_bindings(&self) -> Vec<(&Ident, &V)> {
        let mut seen: Vec<&Ident> = Vec::new();
        let mut out = Vec::new();
        for b in &self.buckets {
            let mut cur = b.as_deref();
            while let Some(e) = cur {
                if !seen.contains(&&e.id) {
                    seen.push(&e.id);
                    out.push((&e.id, &e.value));
                }
                cur = e.next.as_deref();
            }
        }
        out
    }
}

impl<V: Clone> ScopeArray<V> for HashArray<V> {
    fn empty() -> Self {
        HashArray::with_buckets(DEFAULT_BUCKETS)
    }

    fn assign(&mut self, id: Ident, value: V) {
        let n = self.buckets.len();
        let bucket = id.hash_bucket(n);
        let next = self.buckets[bucket].take();
        self.buckets[bucket] = Some(Arc::new(Entry { id, value, next }));
    }

    fn read(&self, id: &str) -> Option<&V> {
        let bucket = hash_bucket(id, self.buckets.len());
        let mut cur = self.buckets[bucket].as_deref();
        while let Some(e) = cur {
            if *e.id == *id {
                return Some(&e.value);
            }
            cur = e.next.as_deref();
        }
        None
    }
}

impl<V: fmt::Debug> fmt::Debug for HashArray<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for b in &self.buckets {
            let mut cur = b.as_deref();
            while let Some(e) = cur {
                map.entry(&e.id, &e.value);
                cur = e.next.as_deref();
            }
        }
        map.finish()
    }
}

/// The association-list representation: every `ASSIGN` prepends, `READ`
/// scans linearly. Semantically identical to [`HashArray`]; O(entries)
/// lookups.
#[derive(Debug, Clone, Default)]
pub struct LinearArray<V> {
    entries: Vec<(Ident, V)>, // newest first
}

impl<V: Clone> ScopeArray<V> for LinearArray<V> {
    fn empty() -> Self {
        LinearArray {
            entries: Vec::new(),
        }
    }

    fn assign(&mut self, id: Ident, value: V) {
        self.entries.insert(0, (id, value));
    }

    fn read(&self, id: &str) -> Option<&V> {
        self.entries
            .iter()
            .find(|(i, _)| **i == *id)
            .map(|(_, v)| v)
    }
}

impl<V> LinearArray<V> {
    /// Number of stored entries, counting shadowed ones.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn check_array_semantics<A: ScopeArray<u32>>() {
        let mut arr = A::empty();
        assert!(arr.is_undefined(&id("x")));
        assert_eq!(arr.read(&id("x")), None);
        arr.assign(id("x"), 1);
        arr.assign(id("y"), 2);
        assert_eq!(arr.read(&id("x")), Some(&1));
        assert_eq!(arr.read(&id("y")), Some(&2));
        assert!(!arr.is_undefined(&id("x")));
        assert!(arr.is_undefined(&id("z")));
        // Shadowing: later assignment wins (axiom 20's ISSAME? branch).
        arr.assign(id("x"), 3);
        assert_eq!(arr.read(&id("x")), Some(&3));
        // Cloning gives an independent value.
        let snapshot = arr.clone();
        arr.assign(id("x"), 4);
        assert_eq!(snapshot.read(&id("x")), Some(&3));
        assert_eq!(arr.read(&id("x")), Some(&4));
    }

    #[test]
    fn hash_array_satisfies_the_array_semantics() {
        check_array_semantics::<HashArray<u32>>();
    }

    #[test]
    fn linear_array_satisfies_the_array_semantics() {
        check_array_semantics::<LinearArray<u32>>();
    }

    #[test]
    fn chains_keep_shadowed_entries() {
        let mut arr: HashArray<u32> = HashArray::empty();
        arr.assign(id("x"), 1);
        arr.assign(id("x"), 2);
        assert_eq!(arr.entry_count(), 2);
        assert_eq!(arr.read(&id("x")), Some(&2));
        let mut lin: LinearArray<u32> = LinearArray::empty();
        lin.assign(id("x"), 1);
        lin.assign(id("x"), 2);
        assert_eq!(lin.entry_count(), 2);
    }

    #[test]
    fn collisions_are_resolved_by_chaining() {
        // Force collisions with a single bucket.
        let mut arr: HashArray<u32> = HashArray::with_buckets(1);
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            arr.assign(id(name), i as u32);
        }
        assert_eq!(arr.bucket_count(), 1);
        assert_eq!(arr.entry_count(), 4);
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(arr.read(&id(name)), Some(&(i as u32)));
        }
    }

    #[test]
    fn visible_bindings_hide_shadowed_entries() {
        let mut arr: HashArray<u32> = HashArray::empty();
        arr.assign(id("x"), 1);
        arr.assign(id("y"), 2);
        arr.assign(id("x"), 3);
        let mut visible: Vec<(String, u32)> = arr
            .visible_bindings()
            .into_iter()
            .map(|(i, v)| (i.to_string(), *v))
            .collect();
        visible.sort();
        assert_eq!(visible, vec![("x".to_owned(), 3), ("y".to_owned(), 2)]);
    }

    #[test]
    fn representations_agree_on_a_random_workload() {
        let mut hash: HashArray<u32> = HashArray::with_buckets(8);
        let mut linear: LinearArray<u32> = LinearArray::empty();
        let mut state: u64 = 99;
        for step in 0..2_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let name = format!("v{}", state % 50);
            if state.is_multiple_of(3) {
                hash.assign(id(&name), step);
                linear.assign(id(&name), step);
            } else {
                assert_eq!(hash.read(&id(&name)), linear.read(&id(&name)));
                assert_eq!(
                    hash.is_undefined(&id(&name)),
                    linear.is_undefined(&id(&name))
                );
            }
        }
        assert_eq!(hash.entry_count(), linear.entry_count());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = HashArray::<u32>::with_buckets(0);
    }

    #[test]
    fn debug_rendering_contains_entries() {
        let mut arr: HashArray<u32> = HashArray::empty();
        arr.assign(id("x"), 1);
        let s = format!("{arr:?}");
        assert!(s.contains('x'), "{s}");
    }
}
