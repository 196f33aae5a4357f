//! A tiny deterministic PRNG (SplitMix64).
//!
//! Span sampling (§5.2 "random spanning without overlap") must be
//! reproducible from an explicit seed so that every experiment in
//! EXPERIMENTS.md regenerates byte-identically. SplitMix64 is small, fast,
//! passes BigCrush for this use, and avoids pulling `rand` into a leaf
//! substrate crate.

/// SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`. Returns 0 when `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize in `[lo, hi)`; `lo` when the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + self.next_below((hi - lo) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn known_vector() {
        // Reference value from the SplitMix64 reference implementation
        // (seed 1234567).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
        assert_eq!(rng.next_below(0), 0);
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = SplitMix64::new(99);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should move elements for this seed");
    }

    #[test]
    fn range_handles_empty() {
        let mut rng = SplitMix64::new(3);
        assert_eq!(rng.range(5, 5), 5);
        assert_eq!(rng.range(7, 3), 7);
        for _ in 0..100 {
            let x = rng.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }
}
