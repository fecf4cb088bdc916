//! A third representation of the paper's `Array`: an (unbalanced) binary
//! search tree over identifier spellings.
//!
//! With [`ScopeArray`](crate::ScopeArray) as the behavioural boundary,
//! the symbol table can be instantiated with the chained hash table, the
//! association list, or this tree without touching a line of its code —
//! the paper's §5 argument that a representation-free specification lets
//! the storage structure be chosen (and re-chosen) late.

use std::fmt;

use crate::hash_array::ScopeArray;
use crate::ident::Ident;

#[derive(Debug, Clone)]
struct Node<V> {
    id: Ident,
    value: V,
    left: Option<Box<Node<V>>>,
    right: Option<Box<Node<V>>>,
}

/// An unbalanced binary search tree keyed by [`Ident`] ordering.
///
/// Re-assigning an identifier replaces its value in place (the visible
/// last-write-wins behaviour of axioms 18/20; unlike the chained hash
/// array it keeps no shadowed history, which is unobservable anyway).
///
/// ```
/// use adt_structures::{BstArray, Ident, ScopeArray};
///
/// let mut arr: BstArray<u32> = BstArray::empty();
/// arr.assign(Ident::new("m"), 1);
/// arr.assign(Ident::new("a"), 2);
/// arr.assign(Ident::new("z"), 3);
/// arr.assign(Ident::new("a"), 4);
/// assert_eq!(arr.read(&Ident::new("a")), Some(&4));
/// assert_eq!(arr.len(), 3);
/// ```
#[derive(Clone, Default)]
pub struct BstArray<V> {
    root: Option<Box<Node<V>>>,
    len: usize,
}

impl<V> BstArray<V> {
    /// Number of distinct identifiers stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 when empty) — exposed for the benchmark
    /// discussion of unbalanced worst cases.
    pub fn height(&self) -> usize {
        fn h<V>(n: &Option<Box<Node<V>>>) -> usize {
            match n {
                None => 0,
                Some(node) => 1 + h(&node.left).max(h(&node.right)),
            }
        }
        h(&self.root)
    }

    /// In-order (sorted) iteration over the bindings.
    pub fn bindings(&self) -> Vec<(&Ident, &V)> {
        fn walk<'a, V>(n: &'a Option<Box<Node<V>>>, out: &mut Vec<(&'a Ident, &'a V)>) {
            if let Some(node) = n {
                walk(&node.left, out);
                out.push((&node.id, &node.value));
                walk(&node.right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }
}

impl<V: Clone> ScopeArray<V> for BstArray<V> {
    fn empty() -> Self {
        BstArray { root: None, len: 0 }
    }

    fn assign(&mut self, id: Ident, value: V) {
        let mut slot = &mut self.root;
        loop {
            match slot {
                None => {
                    *slot = Some(Box::new(Node {
                        id,
                        value,
                        left: None,
                        right: None,
                    }));
                    self.len += 1;
                    return;
                }
                Some(node) => match id.cmp(&node.id) {
                    std::cmp::Ordering::Equal => {
                        node.value = value;
                        return;
                    }
                    std::cmp::Ordering::Less => slot = &mut node.left,
                    std::cmp::Ordering::Greater => slot = &mut node.right,
                },
            }
        }
    }

    fn read(&self, id: &str) -> Option<&V> {
        let mut cur = self.root.as_deref();
        while let Some(node) = cur {
            cur = match id.cmp(node.id.as_str()) {
                std::cmp::Ordering::Equal => return Some(&node.value),
                std::cmp::Ordering::Less => node.left.as_deref(),
                std::cmp::Ordering::Greater => node.right.as_deref(),
            };
        }
        None
    }
}

impl<V: fmt::Debug> fmt::Debug for BstArray<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        fn walk<V: fmt::Debug>(n: &Option<Box<Node<V>>>, map: &mut fmt::DebugMap<'_, '_>) {
            if let Some(node) = n {
                walk(&node.left, map);
                map.entry(&node.id, &node.value);
                walk(&node.right, map);
            }
        }
        walk(&self.root, &mut map);
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    #[test]
    fn assign_read_replace() {
        let mut arr: BstArray<u32> = BstArray::empty();
        assert!(arr.is_empty());
        assert!(arr.is_undefined(&id("x")));
        arr.assign(id("m"), 1);
        arr.assign(id("a"), 2);
        arr.assign(id("z"), 3);
        assert_eq!(arr.len(), 3);
        assert_eq!(arr.read(&id("a")), Some(&2));
        arr.assign(id("a"), 9);
        assert_eq!(arr.read(&id("a")), Some(&9));
        assert_eq!(arr.len(), 3);
        assert!(arr.is_undefined(&id("q")));
    }

    #[test]
    fn bindings_are_sorted() {
        let mut arr: BstArray<u32> = BstArray::empty();
        for (i, name) in ["m", "c", "x", "a", "t"].iter().enumerate() {
            arr.assign(id(name), i as u32);
        }
        let names: Vec<&str> = arr.bindings().iter().map(|(i, _)| i.as_str()).collect();
        assert_eq!(names, vec!["a", "c", "m", "t", "x"]);
    }

    #[test]
    fn agrees_with_the_hash_array_on_a_random_workload() {
        use crate::hash_array::HashArray;
        let mut bst: BstArray<u32> = BstArray::empty();
        let mut hash: HashArray<u32> = HashArray::empty();
        let mut state: u64 = 5;
        for step in 0..3_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let name = format!("v{}", state % 40);
            if !state.is_multiple_of(3) {
                bst.assign(id(&name), step);
                hash.assign(id(&name), step);
            } else {
                assert_eq!(bst.read(&id(&name)), hash.read(&id(&name)));
            }
        }
    }

    #[test]
    fn degenerate_insertions_grow_height_linearly() {
        let mut arr: BstArray<u32> = BstArray::empty();
        for i in 0..20 {
            arr.assign(id(&format!("v{i:02}")), i);
        }
        // Sorted insertion order → a right spine.
        assert_eq!(arr.height(), 20);
        assert_eq!(arr.len(), 20);
        // Lookups still correct.
        assert_eq!(arr.read(&id("v07")), Some(&7));
    }

    #[test]
    fn clone_is_independent() {
        let mut a: BstArray<u32> = BstArray::empty();
        a.assign(id("x"), 1);
        let snapshot = a.clone();
        a.assign(id("x"), 2);
        assert_eq!(snapshot.read(&id("x")), Some(&1));
        assert_eq!(a.read(&id("x")), Some(&2));
    }
}
