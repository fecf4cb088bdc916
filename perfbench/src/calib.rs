//! Machine-speed calibration.
//!
//! Other tenants of a shared host slow this benchmark by up to 2.4x, in
//! phases lasting from seconds to tens of minutes, and no statistic over
//! one run can remove a slowdown that covers the whole run. So the run
//! measures the machine's speed as it goes: at checkpoints between ops
//! it times a fixed reference kernel, and every timing between two
//! checkpoints is scaled by `REFERENCE_NS` over the mean kernel time at
//! those two checkpoints. A timing then reads about as it would on a
//! machine running the kernel in `REFERENCE_NS`. The kernel is std-only
//! code of the benchmark's own, so no change to the program moves it.
//!
//! The kernel is a small hash-consed term rewriter, because the
//! slowdown is not uniform across kinds of code: it barely touches a
//! chain of dependent multiplications, while code that hashes,
//! allocates and chases pointers, as the engine does, slows the most.
//! Short ops follow the kernel less closely than long ones; `NOTES.md`
//! (Machine-speed calibration) gives the measurements.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The reference speed: one kernel run in this many ns. Chosen so that
/// scaled timings match the unscaled ones of the runs on a quiet host
/// recorded in `NOTES.md`; only its ratio to the measured kernel time
/// matters when runs are compared.
pub const REFERENCE_NS: f64 = 650_000.0;

/// Terms built and normalized by one kernel run.
const TERMS: u64 = 260;

/// Kernel runs per checkpoint; the median is kept, so a run that the
/// host preempted does not count.
const RUNS: usize = 3;

/// Times the kernel `RUNS` times and returns the median, in ns.
pub fn measure() -> u64 {
    let mut ns = [0u64; RUNS];
    for slot in &mut ns {
        let t = Instant::now();
        black_box(kernel(TERMS));
        *slot = t.elapsed().as_nanos() as u64;
    }
    ns.sort_unstable();
    ns[RUNS / 2]
}

const ZERO: u8 = 0;
const SUCC: u8 = 1;
const ADD: u8 = 2;
const MUL: u8 = 3;
const EMPTY: u8 = 4;
const PUSH: u8 = 5;
const POP: u8 = 6;
const TOP: u8 = 7;

#[derive(Clone, PartialEq, Eq, Hash)]
struct Node {
    sym: u8,
    args: Vec<u32>,
}

/// Unkeyed SipHash, so every run of the kernel hashes alike.
type Fixed = BuildHasherDefault<DefaultHasher>;

/// Hash-consed terms with a normal-form memo, fresh for every run.
#[derive(Default)]
struct Arena {
    nodes: Vec<Node>,
    ids: HashMap<Node, u32, Fixed>,
    nf: HashMap<u32, u32, Fixed>,
}

impl Arena {
    fn mk(&mut self, sym: u8, args: Vec<u32>) -> u32 {
        let node = Node { sym, args };
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        id
    }

    /// Innermost normalization under Peano `ADD`/`MUL` and stack
    /// `POP`/`TOP` rules.
    fn normalize(&mut self, t: u32) -> u32 {
        if let Some(&n) = self.nf.get(&t) {
            return n;
        }
        let Node { sym, args } = self.nodes[t as usize].clone();
        let args: Vec<u32> = args.into_iter().map(|a| self.normalize(a)).collect();
        let out = self.reduce(sym, &args);
        self.nf.insert(t, out);
        out
    }

    fn reduce(&mut self, sym: u8, a: &[u32]) -> u32 {
        match sym {
            ADD | MUL => {
                let x = self.nodes[a[0] as usize].clone();
                match (sym, x.sym) {
                    (ADD, ZERO) => a[1],
                    (MUL, ZERO) => a[0],
                    (ADD, SUCC) => {
                        let inner = self.mk(ADD, vec![x.args[0], a[1]]);
                        let n = self.normalize(inner);
                        self.mk(SUCC, vec![n])
                    }
                    (MUL, SUCC) => {
                        let m = self.mk(MUL, vec![x.args[0], a[1]]);
                        let s = self.mk(ADD, vec![a[1], m]);
                        self.normalize(s)
                    }
                    _ => self.mk(sym, a.to_vec()),
                }
            }
            POP | TOP => {
                let s = self.nodes[a[0] as usize].clone();
                match (sym, s.sym) {
                    (POP, PUSH) => s.args[0],
                    (TOP, PUSH) => s.args[1],
                    _ => self.mk(sym, a.to_vec()),
                }
            }
            _ => self.mk(sym, a.to_vec()),
        }
    }
}

/// Builds `terms` pseudo-random terms (always the same ones) on a fresh
/// arena and normalizes each; the memo is dropped now and then, so
/// normal forms are recomputed as well as looked up.
fn kernel(terms: u64) -> u64 {
    let mut ar = Arena::default();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut below = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let mut nums = vec![ar.mk(ZERO, vec![])];
    for i in 0..24 {
        let s = ar.mk(SUCC, vec![nums[i]]);
        nums.push(s);
    }
    let mut stack = ar.mk(EMPTY, vec![]);
    let mut sum = 0u64;
    for _ in 0..terms {
        let a = nums[below(12) as usize];
        let b = nums[below(8) as usize];
        let e = match below(4) {
            0 => ar.mk(ADD, vec![a, b]),
            1 => {
                let m = ar.mk(MUL, vec![a, b]);
                ar.mk(ADD, vec![m, a])
            }
            _ => {
                stack = ar.mk(PUSH, vec![stack, a]);
                let p = ar.mk(PUSH, vec![stack, b]);
                let q = ar.mk(POP, vec![p]);
                ar.mk(TOP, vec![q])
            }
        };
        sum = sum.wrapping_add(u64::from(ar.normalize(e)));
        if below(16) == 0 {
            ar.nf.clear();
        }
    }
    sum ^ ar.nodes.len() as u64
}
