//! Deterministic keyed pseudo-random generation (xoshiro256**).
//!
//! Everything random in the watermarking pipeline — insertion-point
//! selection weighted by trace frequency (Section 3.2), helper-function
//! stack-frame sizes (Section 4.1), attack fuzzing, Monte-Carlo trials —
//! must be reproducible from a seed so that experiments are deterministic
//! and embed/recognize runs can be replayed. This module implements
//! xoshiro256** seeded through SplitMix64, with the handful of
//! distribution helpers the rest of the system needs.

/// A seedable xoshiro256** generator.
///
/// # Example
///
/// ```
/// use pathmark_crypto::Prng;
///
/// let mut a = Prng::from_seed(42);
/// let mut b = Prng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let roll = a.range(6) + 1;
/// assert!((1..=6).contains(&roll));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    state: [u64; 4],
}

impl Prng {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let state = [next(), next(), next(), next()];
        Prng { state }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// The next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly random value in `0..bound` (Lemire-style rejection).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range bound must be positive");
        // Rejection sampling over the top bits to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// A uniformly random `usize` in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.range(bound as u64) as usize
    }

    /// A Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        // 53 random bits give a uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Fills a byte slice with random data.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples an index according to non-negative weights. Used for the
    /// paper's "random location weighted inversely with respect to its
    /// frequency in the trace" insertion policy.
    ///
    /// Returns `None` if the weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        self.weighted_index_with_total(weights, Prng::weight_total(weights))
    }

    /// The total [`Prng::weighted_index`] draws against: the sum of the
    /// finite positive weights, in order.
    pub fn weight_total(weights: &[f64]) -> f64 {
        weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum()
    }

    /// [`Prng::weighted_index`] with the weights' [`Prng::weight_total`]
    /// already in hand, for drawing from one pool many times: the draw
    /// is the same, bit for bit, as long as `total` is that sum.
    pub fn weighted_index_with_total(&mut self, weights: &[f64], total: f64) -> Option<usize> {
        if total <= 0.0 {
            return None;
        }
        let mut target = ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) * total;
        for (i, &w) in weights.iter().enumerate() {
            if !(w.is_finite() && w > 0.0) {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w.is_finite() && w > 0.0)
    }

    /// Forks an independent generator (e.g. one per embedded piece) while
    /// advancing this one.
    pub fn fork(&mut self) -> Prng {
        Prng::from_seed(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Prng::from_seed(7);
        let mut b = Prng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::from_seed(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_respects_bound() {
        let mut rng = Prng::from_seed(1);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.range(bound) < bound);
            }
        }
    }

    #[test]
    fn range_hits_every_small_value() {
        let mut rng = Prng::from_seed(2);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "range bound must be positive")]
    fn range_zero_panics() {
        Prng::from_seed(1).range(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Prng::from_seed(3);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
        let heads = (0..10_000).filter(|_| rng.chance(0.5)).count();
        assert!((4500..5500).contains(&heads), "biased coin: {heads}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Prng::from_seed(4);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "13 zero bytes is implausible");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Prng::from_seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 50 elements left them sorted");
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut rng = Prng::from_seed(6);
        let weights = [1.0, 0.0, 98.0, 1.0];
        let mut counts = [0usize; 4];
        for _ in 0..5000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight must never be chosen");
        assert!(counts[2] > 4500, "heavy weight undersampled: {counts:?}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut rng = Prng::from_seed(7);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Prng::from_seed(8);
        let mut child = parent.fork();
        // The two streams should diverge immediately.
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }
}
