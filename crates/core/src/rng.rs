//! A small deterministic pseudo-random number generator.
//!
//! The checking and verification crates sample random ground terms
//! (consistency probes, deep axiom instances). Those samples must be
//! *reproducible* — a failing probe is only useful if the same seed
//! replays it — and the workspace builds with no external dependencies,
//! so the generator lives here rather than coming from a crates.io RNG.
//!
//! The algorithm is splitmix64 (Steele, Lea & Flood, *Fast Splittable
//! Pseudorandom Number Generators*, OOPSLA 2014): one 64-bit state word,
//! full period, and statistically strong enough for workload sampling.
//!
//! [`fnv1a`] is the workspace's one string hash, for keys that must be
//! stable across runs and platforms (fault-plan seeds, checkpoint keys).

/// A deterministic splitmix64 stream.
///
/// ```
/// use adt_core::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let pick = a.below(10);
/// assert!(pick < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly distributed index below `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (there is no valid index to return).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "DetRng::below(0) has no valid result");
        // The modulo bias is ≤ n/2^64 — irrelevant at workload sizes.
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly distributed boolean.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// FNV-1a (64-bit) over the bytes of `text`: a fixed, platform-independent
/// hash for keys that must not change between runs or releases.
///
/// ```
/// assert_eq!(adt_core::fnv1a(""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(adt_core::fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = DetRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let k = rng.below(7);
            assert!(k < 7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached");
    }

    #[test]
    #[should_panic(expected = "no valid result")]
    fn below_zero_panics() {
        DetRng::new(0).below(0);
    }
}
