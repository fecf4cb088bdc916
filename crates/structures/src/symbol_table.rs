//! The symbol table of a block-structured language: a stack of scope
//! arrays, the paper's §4 representation made into a real compiler
//! component.

use std::fmt;

use crate::hash_array::{HashArray, ScopeArray};
use crate::ident::{AttrList, Ident};

/// Error returned by scope-structure misuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeError {
    /// `LEAVEBLOCK(INIT) = error`: attempted to leave the outermost block.
    LeaveOutermost,
    /// `RETRIEVE` found no declaration in any visible scope.
    Undeclared,
}

impl fmt::Display for ScopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScopeError::LeaveOutermost => f.write_str("cannot leave the outermost block"),
            ScopeError::Undeclared => {
                f.write_str("identifier is not declared in any visible scope")
            }
        }
    }
}

impl std::error::Error for ScopeError {}

/// A block-structured symbol table, generic over its per-scope array
/// representation (the paper's delayed-representation-choice point).
///
/// The default instantiation uses the paper's chained [`HashArray`]; the
/// `array_representations` benchmark swaps in
/// [`LinearArray`](crate::LinearArray) to measure what the naive choice
/// costs.
///
/// ```
/// use adt_structures::{AttrList, Ident, SymbolTable};
///
/// let mut st: SymbolTable = SymbolTable::init();
/// st.add(Ident::new("x"), AttrList::new().with("type", "integer"));
/// st.enter_block();
/// st.add(Ident::new("x"), AttrList::new().with("type", "real"));
/// assert_eq!(st.retrieve(&Ident::new("x")).unwrap().get("type"), Some("real"));
/// st.leave_block()?;
/// assert_eq!(st.retrieve(&Ident::new("x")).unwrap().get("type"), Some("integer"));
/// # Ok::<(), adt_structures::ScopeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymbolTable<A: ScopeArray<AttrList> = HashArray<AttrList>> {
    blocks: Vec<A>,
}

impl<A: ScopeArray<AttrList>> SymbolTable<A> {
    /// The paper's `INIT`: a table with one (outermost) scope.
    pub fn init() -> Self {
        SymbolTable {
            blocks: vec![A::empty()],
        }
    }

    /// The paper's `ENTERBLOCK`: opens a new local naming scope.
    pub fn enter_block(&mut self) {
        self.blocks.push(A::empty());
    }

    /// The paper's `LEAVEBLOCK`: discards the most recent scope.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::LeaveOutermost`] when only the outermost
    /// scope remains — the specification's `LEAVEBLOCK(INIT) = error`.
    pub fn leave_block(&mut self) -> Result<(), ScopeError> {
        if self.blocks.len() <= 1 {
            return Err(ScopeError::LeaveOutermost);
        }
        self.blocks.pop();
        Ok(())
    }

    /// The paper's `ADD`, *unchecked*: relies on the structural invariant
    /// that at least one scope exists (Assumption 1 made into a type-level
    /// fact — `init` creates a scope and `leave_block` refuses to drop the
    /// last one, so the check inside `add` would be "needless
    /// inefficiency").
    pub fn add(&mut self, id: Ident, attrs: AttrList) {
        debug_assert!(!self.blocks.is_empty(), "Assumption 1 violated");
        let last = self
            .blocks
            .last_mut()
            .expect("at least one scope exists by construction");
        last.assign(id, attrs);
    }

    /// The paper's *defensive* `ADD` variant: "adding to the
    /// implementation of ADD' a check for this condition and having it
    /// execute an ENTERBLOCK' if necessary". Never needed under the
    /// structural invariant; measured by the `defensive_check` benchmark.
    pub fn add_defensive(&mut self, id: Ident, attrs: AttrList) {
        if self.blocks.is_empty() {
            self.enter_block();
        }
        let last = self.blocks.last_mut().expect("just ensured a scope");
        last.assign(id, attrs);
    }

    /// The paper's `IS_INBLOCK?`: has `id` already been declared in the
    /// *current* scope? ("Used to avoid duplicate declarations.")
    pub fn is_in_block(&self, id: &Ident) -> bool {
        self.blocks
            .last()
            .map(|b| !b.is_undefined(id))
            .unwrap_or(false)
    }

    /// The paper's `RETRIEVE`: the attributes associated with `id` in the
    /// most local scope in which it occurs.
    ///
    /// # Errors
    ///
    /// Returns [`ScopeError::Undeclared`] if no visible scope declares
    /// `id` — the specification's `RETRIEVE(INIT, id) = error`.
    pub fn retrieve(&self, id: &Ident) -> Result<&AttrList, ScopeError> {
        for block in self.blocks.iter().rev() {
            if let Some(attrs) = block.read(id) {
                return Ok(attrs);
            }
        }
        Err(ScopeError::Undeclared)
    }

    /// Current block-nesting depth (1 = just the outermost scope).
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// A view of the scope arrays, outermost first (used by Φ and the
    /// observational-equality helper).
    pub fn blocks(&self) -> &[A] {
        &self.blocks
    }

    /// Observational equality over a finite identifier universe: two
    /// tables are indistinguishable if they have the same depth and, at
    /// every nesting level reachable by `LEAVEBLOCK`, agree on
    /// `IS_INBLOCK?` and `RETRIEVE` for every identifier in `universe`.
    ///
    /// This is the right equality for the abstract type: the axioms never
    /// let a client see more than this.
    pub fn observationally_eq(&self, other: &Self, universe: &[Ident]) -> bool {
        if self.blocks.len() != other.blocks.len() {
            return false;
        }
        for level in (1..=self.blocks.len()).rev() {
            let a = &self.blocks[..level];
            let b = &other.blocks[..level];
            for id in universe {
                let read_a = a.iter().rev().find_map(|blk| blk.read(id));
                let read_b = b.iter().rev().find_map(|blk| blk.read(id));
                if read_a != read_b {
                    return false;
                }
                let inblock_a = !a[level - 1].is_undefined(id);
                let inblock_b = !b[level - 1].is_undefined(id);
                if inblock_a != inblock_b {
                    return false;
                }
            }
        }
        true
    }
}

impl<A: ScopeArray<AttrList>> Default for SymbolTable<A> {
    fn default() -> Self {
        SymbolTable::init()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_array::LinearArray;

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    fn attrs(t: &str) -> AttrList {
        AttrList::new().with("type", t)
    }

    #[test]
    fn shadowing_and_unwinding() {
        let mut st: SymbolTable = SymbolTable::init();
        st.add(id("x"), attrs("integer"));
        st.add(id("y"), attrs("boolean"));
        st.enter_block();
        st.add(id("x"), attrs("real"));
        // Inner x shadows outer x; y is inherited.
        assert_eq!(st.retrieve(&id("x")).unwrap().get("type"), Some("real"));
        assert_eq!(st.retrieve(&id("y")).unwrap().get("type"), Some("boolean"));
        st.leave_block().unwrap();
        assert_eq!(st.retrieve(&id("x")).unwrap().get("type"), Some("integer"));
    }

    #[test]
    fn is_in_block_is_scope_local() {
        let mut st: SymbolTable = SymbolTable::init();
        st.add(id("x"), attrs("integer"));
        assert!(st.is_in_block(&id("x")));
        st.enter_block();
        assert!(!st.is_in_block(&id("x"))); // declared, but not *here*
        assert_eq!(st.retrieve(&id("x")).unwrap().get("type"), Some("integer"));
    }

    #[test]
    fn boundary_errors_match_the_axioms() {
        let mut st: SymbolTable = SymbolTable::init();
        assert_eq!(st.leave_block(), Err(ScopeError::LeaveOutermost));
        assert_eq!(st.retrieve(&id("ghost")), Err(ScopeError::Undeclared));
        assert_eq!(
            ScopeError::LeaveOutermost.to_string(),
            "cannot leave the outermost block"
        );
    }

    #[test]
    fn depth_tracks_blocks() {
        let mut st: SymbolTable = SymbolTable::init();
        assert_eq!(st.depth(), 1);
        st.enter_block();
        st.enter_block();
        assert_eq!(st.depth(), 3);
        st.leave_block().unwrap();
        assert_eq!(st.depth(), 2);
    }

    #[test]
    fn defensive_add_agrees_with_add_under_the_invariant() {
        let mut a: SymbolTable = SymbolTable::init();
        let mut b: SymbolTable = SymbolTable::init();
        for i in 0..50 {
            let name = format!("v{i}");
            a.add(id(&name), attrs("integer"));
            b.add_defensive(id(&name), attrs("integer"));
        }
        let universe: Vec<Ident> = (0..50).map(|i| id(&format!("v{i}"))).collect();
        assert!(a.observationally_eq(&b, &universe));
    }

    #[test]
    fn bst_backend_slots_in_without_code_changes() {
        // The §5 payoff of a representation-free specification: the
        // storage structure is a type parameter.
        let mut st: SymbolTable<crate::BstArray<AttrList>> = SymbolTable::init();
        st.add(id("x"), attrs("integer"));
        st.enter_block();
        st.add(id("x"), attrs("real"));
        assert_eq!(st.retrieve(&id("x")).unwrap().get("type"), Some("real"));
        st.leave_block().unwrap();
        assert_eq!(st.retrieve(&id("x")).unwrap().get("type"), Some("integer"));
        assert!(st.is_in_block(&id("x")));
        assert!(!st.is_in_block(&id("y")));
    }

    #[test]
    fn linear_and_hash_backends_agree() {
        let mut h: SymbolTable<HashArray<AttrList>> = SymbolTable::init();
        let mut l: SymbolTable<LinearArray<AttrList>> = SymbolTable::init();
        let script: &[(&str, &str)] = &[
            ("add", "x"),
            ("enter", ""),
            ("add", "y"),
            ("add", "x"),
            ("enter", ""),
            ("add", "z"),
            ("leave", ""),
            ("add", "w"),
        ];
        for (i, (op, name)) in script.iter().enumerate() {
            match *op {
                "add" => {
                    let a = attrs(&format!("t{i}"));
                    h.add(id(name), a.clone());
                    l.add(id(name), a);
                }
                "enter" => {
                    h.enter_block();
                    l.enter_block();
                }
                "leave" => {
                    h.leave_block().unwrap();
                    l.leave_block().unwrap();
                }
                _ => unreachable!(),
            }
        }
        for name in ["x", "y", "z", "w", "missing"] {
            assert_eq!(
                h.retrieve(&id(name)).ok().cloned(),
                l.retrieve(&id(name)).ok().cloned(),
                "disagreement on {name}"
            );
            assert_eq!(h.is_in_block(&id(name)), l.is_in_block(&id(name)));
        }
    }

    #[test]
    fn observational_equality_distinguishes_hidden_history() {
        let universe = [id("x")];
        // Same visible bindings, different shadowed history — equal.
        let mut a: SymbolTable = SymbolTable::init();
        a.add(id("x"), attrs("integer"));
        a.add(id("x"), attrs("real"));
        let mut b: SymbolTable = SymbolTable::init();
        b.add(id("x"), attrs("real"));
        assert!(a.observationally_eq(&b, &universe));
        // Different depth — distinguishable via LEAVEBLOCK.
        let mut c = b.clone();
        c.enter_block();
        assert!(!b.observationally_eq(&c, &universe));
        // Same depth, binding hidden at an outer level — distinguishable.
        let mut d: SymbolTable = SymbolTable::init();
        d.enter_block();
        d.add(id("x"), attrs("real"));
        let mut e: SymbolTable = SymbolTable::init();
        e.add(id("x"), attrs("real"));
        e.enter_block();
        assert!(!d.observationally_eq(&e, &universe));
    }
}
