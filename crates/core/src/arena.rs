//! Hash-consed term storage: [`TermArena`] and [`TermId`].
//!
//! The rewrite engine manipulates many closely-related terms — every
//! normalization step rebuilds a term that shares almost all of its
//! structure with its predecessor, and observers like `FRONT` re-derive
//! the same subterms over and over. Representing terms as trees of owned
//! [`Term`] nodes makes each of those operations a deep clone; this module
//! instead *interns* every distinct node once and hands out copyable
//! [`TermId`]s, so
//!
//! * structurally equal terms always receive the same id — equality is a
//!   single integer compare;
//! * each node's structural hash is computed once at interning time, from
//!   its children's, so deduplicating a new node never walks a subterm;
//! * building a term that shares subterms with existing ones allocates
//!   only the genuinely new nodes.
//!
//! # Invariants
//!
//! [`TermId`]s are **process-local handles**: they index the arena that
//! produced them and are meaningless anywhere else. They must never be
//! serialized, compared across arenas, or stored in any artifact that
//! outlives the arena — anything that crosses an arena boundary does so as
//! a reconstructed [`Term`] ([`TermArena::to_term`]).
//!
//! The arena is append-only and unsynchronized by design. The engine's
//! working state is a [`TermStore`]: an arena plus a dense, id-indexed
//! normal-form table. Each thread has one cold store for `Term`-level
//! normalizations, proofs and the consistency checker's ground probes,
//! which [`TermStore::clear`] empties before every use while keeping its
//! allocations; a `Session` owns exactly one store, behind a mutex, and
//! session-id normalizations evaluate in it in place.
//!
//! A hash-cons hit allocates nothing: an application is looked up by
//! `(op, &[TermId])`, and its argument slice is boxed only when the node
//! is new.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::EngineError;
use crate::ids::{OpId, SortId, VarId};
use crate::signature::Signature;
use crate::term::Term;

/// A [`Hasher`] that passes an already-mixed `u64` key through unchanged.
///
/// The dedup map is keyed by [`mix`]-scrambled structural hashes, which
/// already spread entropy across all 64 bits; running them through the
/// default SipHash would cost more than the table probe it protects.
/// Only usable for `u64` keys — anything else reaches the `unreachable!`.
#[derive(Default)]
struct PassthroughHasher(u64);

impl Hasher for PassthroughHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PassthroughHasher only hashes u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

type PrehashedMap<V> = HashMap<u64, V, BuildHasherDefault<PassthroughHasher>>;

/// A handle to an interned term node inside one [`TermArena`].
///
/// Copyable and order/hashable so it can key dense side tables. Two ids
/// from the *same* arena are equal exactly when the terms they denote are
/// structurally equal; ids from different arenas are unrelated (see the
/// module docs for the invariants).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw index of this id inside its arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One interned term node: the same shape as [`Term`], with child terms
/// replaced by ids into the owning arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// A typed free variable.
    Var(VarId),
    /// Application of an operation to interned arguments.
    App(OpId, Box<[TermId]>),
    /// The built-in conditional: condition, then-branch, else-branch.
    Ite(TermId, TermId, TermId),
    /// The distinguished `error` value of the given sort.
    Error(SortId),
}

/// Mixes one value into a running structural hash. The constants are the
/// usual Fibonacci/xorshift multipliers; what matters is that the function
/// is fixed (no per-process seed), so hashes agree across arenas.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let x = (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    x ^ (x >> 32)
}

const TAG_VAR: u64 = 0x9e37_79b9_7f4a_7c15;
const TAG_APP: u64 = 0xbf58_476d_1ce4_e5b9;
const TAG_ITE: u64 = 0x94d0_49bb_1331_11eb;
const TAG_ERROR: u64 = 0xd6e8_feb8_6659_fd93;

/// An append-only, hash-consing store of term nodes.
///
/// ```
/// use adt_core::{Signature, Term, TermArena};
///
/// let mut sig = Signature::new();
/// let s = sig.add_sort("S")?;
/// let c = sig.add_ctor("C", vec![], s)?;
/// let f = sig.add_op("F", vec![s], s)?;
///
/// let mut arena = TermArena::new();
/// let term = Term::App(f, vec![Term::constant(c)]);
/// let a = arena.intern(&term);
/// let b = arena.intern(&term);
/// assert_eq!(a, b, "equal terms intern to the same id");
/// assert_eq!(arena.to_term(a), term);
/// # Ok::<(), adt_core::CoreError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct TermArena {
    nodes: Vec<TermNode>,
    /// `hashes[id.index()]` is the node's deterministic structural hash
    /// (stable across arenas and processes).
    hashes: Vec<u64>,
    /// Structural hash → the newest node with that hash.
    dedup: PrehashedMap<TermId>,
    /// `older[id.index()]` is the next older node whose hash equals
    /// `id`'s: the collision chain [`TermArena::find`] walks from `dedup`.
    older: Vec<Option<TermId>>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TermArena::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate heap footprint of the arena in bytes: node and hash
    /// storage, argument slices, and the dedup table. Telemetry only —
    /// counts capacities where cheap to read, so it tracks allocations,
    /// not live data.
    pub fn approx_bytes(&self) -> usize {
        let args: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                TermNode::App(_, args) => args.len() * std::mem::size_of::<TermId>(),
                _ => 0,
            })
            .sum();
        self.nodes.capacity() * std::mem::size_of::<TermNode>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + args
            + self.dedup.capacity() * std::mem::size_of::<(u64, TermId)>()
            + self.older.capacity() * std::mem::size_of::<Option<TermId>>()
    }

    /// Removes every node, keeping the allocations for reuse. Ids handed
    /// out before are invalid afterwards: the next node interned is
    /// `t0` again.
    fn clear(&mut self) {
        self.nodes.clear();
        self.hashes.clear();
        self.dedup.clear();
        self.older.clear();
    }

    /// The node an id denotes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different arena (and is out of
    /// range for this one).
    #[inline]
    pub fn node(&self, id: TermId) -> &TermNode {
        &self.nodes[id.index()]
    }

    /// The sort of the denoted term, read off its head symbol (through
    /// `then`-branches). Arguments are not re-checked: interned terms
    /// were sort-checked when built.
    ///
    /// # Errors
    ///
    /// [`EngineError::DanglingId`] if the head operation is not in `sig`.
    pub fn sort_of(&self, sig: &Signature, mut id: TermId) -> Result<SortId, EngineError> {
        loop {
            match self.node(id) {
                TermNode::Var(v) => return Ok(sig.var(*v).sort()),
                TermNode::Error(s) => return Ok(*s),
                TermNode::App(op, _) => return Ok(sig.try_op(*op)?.result()),
                TermNode::Ite(_, t, _) => id = *t,
            }
        }
    }

    /// Whether the denoted term is a ground constructor term or `error`
    /// (a definite value, as [`Term::is_constructor_term`] decides for
    /// trees). Iterative, so deep terms are fine.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different arena, or a head
    /// operation is not in `sig`.
    pub fn is_constructor_term(&self, sig: &Signature, id: TermId) -> bool {
        let mut todo = vec![id];
        while let Some(id) = todo.pop() {
            match self.node(id) {
                TermNode::Var(_) | TermNode::Ite(..) => return false,
                TermNode::Error(_) => {}
                TermNode::App(op, args) => {
                    if !sig.op(*op).is_constructor() {
                        return false;
                    }
                    todo.extend_from_slice(args);
                }
            }
        }
        true
    }

    /// The node with structural hash `hash` that satisfies `is`, if one
    /// was interned.
    fn find(&self, hash: u64, is: impl Fn(&TermNode) -> bool) -> Option<TermId> {
        let mut next = self.dedup.get(&hash).copied();
        while let Some(id) = next {
            if is(&self.nodes[id.index()]) {
                return Some(id);
            }
            next = self.older[id.index()];
        }
        None
    }

    /// Appends a node that [`TermArena::find`] did not find.
    fn push(&mut self, hash: u64, node: TermNode) -> TermId {
        // A 2^32-node arena is hundreds of gigabytes of terms; failing
        // loudly here is strictly better than aliasing two distinct terms.
        let id =
            TermId(u32::try_from(self.nodes.len()).expect("term arena exceeded the u32 id space"));
        self.nodes.push(node);
        self.hashes.push(hash);
        self.older.push(self.dedup.insert(hash, id));
        id
    }

    /// Interns a node that owns no heap data, so building it to compare
    /// costs nothing.
    fn intern_unboxed(&mut self, hash: u64, node: TermNode) -> TermId {
        match self.find(hash, |n| *n == node) {
            Some(id) => id,
            None => self.push(hash, node),
        }
    }

    /// Interns a variable.
    pub fn var(&mut self, v: VarId) -> TermId {
        self.intern_unboxed(mix(TAG_VAR, v.index() as u64), TermNode::Var(v))
    }

    /// Interns an `error` value of the given sort.
    pub fn error(&mut self, s: SortId) -> TermId {
        self.intern_unboxed(mix(TAG_ERROR, s.index() as u64), TermNode::Error(s))
    }

    /// Interns an application of `op` to already-interned arguments. A
    /// hit allocates nothing; only a new node copies `args`.
    pub fn app(&mut self, op: OpId, args: &[TermId]) -> TermId {
        let hash = args.iter().fold(mix(TAG_APP, op.index() as u64), |h, a| {
            mix(h, self.hashes[a.index()])
        });
        let found = self.find(
            hash,
            |n| matches!(n, TermNode::App(f, xs) if *f == op && **xs == *args),
        );
        match found {
            Some(id) => id,
            None => self.push(hash, TermNode::App(op, args.into())),
        }
    }

    /// Interns a conditional over already-interned parts.
    pub fn ite(&mut self, cond: TermId, then_branch: TermId, else_branch: TermId) -> TermId {
        let hash = [cond, then_branch, else_branch]
            .iter()
            .fold(TAG_ITE, |h, id| mix(h, self.hashes[id.index()]));
        self.intern_unboxed(hash, TermNode::Ite(cond, then_branch, else_branch))
    }

    /// Interns a [`Term`], sharing every subterm already present.
    ///
    /// Iterative (explicit stack), so terms nested far beyond the native
    /// call stack intern fine.
    pub fn intern(&mut self, term: &Term) -> TermId {
        enum Frame<'t> {
            Visit(&'t Term),
            Build(&'t Term),
        }
        let mut stack = vec![Frame::Visit(term)];
        let mut done: Vec<TermId> = Vec::new();
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Visit(t) => match t {
                    Term::Var(v) => done.push(self.var(*v)),
                    Term::Error(s) => done.push(self.error(*s)),
                    Term::App(_, args) => {
                        stack.push(Frame::Build(t));
                        for a in args.iter().rev() {
                            stack.push(Frame::Visit(a));
                        }
                    }
                    Term::Ite(ite) => {
                        stack.push(Frame::Build(t));
                        stack.push(Frame::Visit(&ite.else_branch));
                        stack.push(Frame::Visit(&ite.then_branch));
                        stack.push(Frame::Visit(&ite.cond));
                    }
                },
                Frame::Build(t) => match t {
                    Term::App(op, args) => {
                        let start = done.len() - args.len();
                        let id = self.app(*op, &done[start..]);
                        done.truncate(start);
                        done.push(id);
                    }
                    Term::Ite(_) => {
                        let start = done.len() - 3;
                        let id = self.ite(done[start], done[start + 1], done[start + 2]);
                        done.truncate(start);
                        done.push(id);
                    }
                    Term::Var(_) | Term::Error(_) => unreachable!("leaves are never deferred"),
                },
            }
        }
        done.pop().expect("interning produces exactly one root")
    }

    /// Reconstructs the denoted [`Term`]. Iterative, like
    /// [`TermArena::intern`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different arena.
    pub fn to_term(&self, id: TermId) -> Term {
        enum Frame {
            Visit(TermId),
            Build(TermId),
        }
        let mut stack = vec![Frame::Visit(id)];
        let mut done: Vec<Term> = Vec::new();
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Visit(id) => match self.node(id) {
                    TermNode::Var(v) => done.push(Term::Var(*v)),
                    TermNode::Error(s) => done.push(Term::Error(*s)),
                    TermNode::App(_, args) => {
                        stack.push(Frame::Build(id));
                        for &a in args.iter().rev() {
                            stack.push(Frame::Visit(a));
                        }
                    }
                    TermNode::Ite(c, t, e) => {
                        stack.push(Frame::Build(id));
                        stack.push(Frame::Visit(*e));
                        stack.push(Frame::Visit(*t));
                        stack.push(Frame::Visit(*c));
                    }
                },
                Frame::Build(id) => match self.node(id) {
                    TermNode::App(op, args) => {
                        let children = done.split_off(done.len() - args.len());
                        done.push(Term::App(*op, children));
                    }
                    TermNode::Ite(..) => {
                        let e = done.pop().expect("else-branch was built");
                        let t = done.pop().expect("then-branch was built");
                        let c = done.pop().expect("condition was built");
                        done.push(Term::ite(c, t, e));
                    }
                    TermNode::Var(_) | TermNode::Error(_) => {
                        unreachable!("leaves are never deferred")
                    }
                },
            }
        }
        done.pop()
            .expect("reconstruction produces exactly one root")
    }
}

/// The engine's working state: a [`TermArena`] plus a dense,
/// id-indexed normal-form table.
///
/// `cached_nf(id)` is two array reads. The table only ever holds true
/// normal forms: the engine records an entry when a sub-evaluation
/// finishes outside assumption contexts and traces, so an entry holds
/// even if the enclosing run later exhausts its fuel or is interrupted.
/// The arena is append-only, so an entry holds for the store's whole
/// life.
///
/// ```
/// use adt_core::{Signature, Term, TermStore};
///
/// let mut sig = Signature::new();
/// let s = sig.add_sort("S")?;
/// let c = sig.add_ctor("C", vec![], s)?;
/// let f = sig.add_op("F", vec![s], s)?;
///
/// let mut store = TermStore::new();
/// let redex = store.arena_mut().intern(&Term::App(f, vec![Term::constant(c)]));
/// let nf = store.arena_mut().intern(&Term::constant(c));
/// assert_eq!(store.cached_nf(redex), None);
/// store.record_nf(redex, nf);
/// assert_eq!(store.cached_nf(redex), Some(nf));
/// # Ok::<(), adt_core::CoreError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct TermStore {
    arena: TermArena,
    /// `nf[id.index()]` is the normal form of `id`, if one was recorded.
    /// Indexed densely by id (ids are arena offsets), so no hashing.
    nf: Vec<Option<TermId>>,
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TermStore::default()
    }

    /// The terms held by this store.
    #[inline]
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// The terms held by this store, for interning. The arena is
    /// append-only, so no recorded normal form is invalidated.
    #[inline]
    pub fn arena_mut(&mut self) -> &mut TermArena {
        &mut self.arena
    }

    /// The recorded normal form of `id`, if any.
    #[inline]
    pub fn cached_nf(&self, id: TermId) -> Option<TermId> {
        self.nf.get(id.index()).copied().flatten()
    }

    /// Records `nf` as the normal form of `id`. Only an engine running
    /// the rules every other user of this store runs may call this.
    pub fn record_nf(&mut self, id: TermId, nf: TermId) {
        let index = id.index();
        if self.nf.len() <= index {
            self.nf.resize(self.arena.len(), None);
        }
        self.nf[index] = Some(nf);
    }

    /// Forgets every recorded normal form and keeps the terms, so the
    /// next evaluation in this store runs cold.
    pub fn forget_nfs(&mut self) {
        self.nf.clear();
    }

    /// Empties the store, terms and normal forms alike, keeping its
    /// allocations for reuse. Ids from before are invalid afterwards;
    /// interning then hands out the same ids a fresh store would.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.nf.clear();
    }

    /// Approximate heap footprint in bytes: the arena's
    /// ([`TermArena::approx_bytes`]) plus the normal-form table's.
    pub fn approx_bytes(&self) -> usize {
        self.arena.approx_bytes() + self.nf.capacity() * std::mem::size_of::<Option<TermId>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;

    fn sig() -> Signature {
        let mut sig = Signature::new();
        let queue = sig.add_sort("Queue").unwrap();
        let item = sig.add_sort("Item").unwrap();
        sig.add_ctor("NEW", vec![], queue).unwrap();
        sig.add_ctor("ADD", vec![queue, item], queue).unwrap();
        sig.add_ctor("A", vec![], item).unwrap();
        sig.add_op("FRONT", vec![queue], item).unwrap();
        sig.add_op("IS_EMPTY?", vec![queue], sig.bool_sort())
            .unwrap();
        sig.add_var("q", queue).unwrap();
        sig.add_var("i", item).unwrap();
        sig
    }

    fn chain(sig: &Signature, n: usize) -> Term {
        let mut t = sig.apply("NEW", vec![]).unwrap();
        for _ in 0..n {
            let a = sig.apply("A", vec![]).unwrap();
            t = sig.apply("ADD", vec![t, a]).unwrap();
        }
        t
    }

    #[test]
    fn equal_terms_share_one_id() {
        let sig = sig();
        let mut arena = TermArena::new();
        let t = chain(&sig, 3);
        let a = arena.intern(&t);
        let b = arena.intern(&t);
        assert_eq!(a, b);
        // Shared subterms don't re-allocate: interning a 4-chain after a
        // 3-chain adds exactly one node.
        let before = arena.len();
        arena.intern(&chain(&sig, 4));
        assert_eq!(arena.len(), before + 1);
    }

    #[test]
    fn a_cleared_store_hands_out_the_ids_of_a_fresh_one() {
        let sig = sig();
        let qv = Term::Var(sig.find_var("q").unwrap());
        let t = sig.apply("FRONT", vec![chain(&sig, 3)]).unwrap();
        let u = sig.apply("IS_EMPTY?", vec![qv]).unwrap();
        let mut reused = TermStore::new();
        reused.arena_mut().intern(&chain(&sig, 6));
        let old = reused.arena_mut().intern(&u);
        reused.record_nf(old, old);
        reused.clear();
        let mut fresh = TermStore::new();
        for term in [&t, &u, &t] {
            let id = reused.arena_mut().intern(term);
            assert_eq!(id, fresh.arena_mut().intern(term));
            assert_eq!(reused.cached_nf(id), None, "no normal form survives");
        }
        assert_eq!(reused.arena().len(), fresh.arena().len());
    }

    #[test]
    fn nodes_that_share_a_hash_are_all_found() {
        let sig = sig();
        let mut arena = TermArena::new();
        let a = arena.intern(&chain(&sig, 1));
        // Forge a collision: file a second node under `a`'s hash. It
        // becomes the newest entry there; `a` sits behind it.
        let hash = arena.hashes[a.index()];
        let forged = TermNode::Var(VarId::from_index(0));
        let b = arena.push(hash, forged.clone());
        assert_eq!(arena.find(hash, |n| *n == forged), Some(b));
        assert_eq!(arena.intern(&chain(&sig, 1)), a);
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn roundtrip_reconstructs_the_term() {
        let sig = sig();
        let mut arena = TermArena::new();
        let qv = Term::Var(sig.find_var("q").unwrap());
        let iv = Term::Var(sig.find_var("i").unwrap());
        let cond = sig.apply("IS_EMPTY?", vec![qv.clone()]).unwrap();
        let t = Term::ite(cond, iv, sig.apply("FRONT", vec![qv]).unwrap());
        let id = arena.intern(&t);
        assert_eq!(arena.to_term(id), t);
    }

    #[test]
    fn deep_terms_intern_without_native_recursion() {
        // ~100k-deep chain: recursion anywhere in intern/to_term
        // would blow the native stack. The Term itself has a recursive
        // Drop, so the whole test runs on a thread with a large stack.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let sig = sig();
                let depth = 100_000;
                // Built from raw nodes: `Signature::apply` would sort-check
                // each prefix recursively (quadratic, and itself deeper
                // than any stack).
                let add = sig.find_op("ADD").unwrap();
                let a = Term::constant(sig.find_op("A").unwrap());
                let mut t = Term::constant(sig.find_op("NEW").unwrap());
                for _ in 0..depth {
                    t = Term::App(add, vec![t, a.clone()]);
                }
                let mut arena = TermArena::new();
                let id = arena.intern(&t);
                let back = arena.to_term(id);
                assert_eq!(back.depth(), depth + 1);
            })
            .expect("spawns")
            .join()
            .expect("deep interning must not overflow the stack");
    }
}
