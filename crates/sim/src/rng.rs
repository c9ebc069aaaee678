//! Seeded random streams for reproducible simulations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random-number stream.
///
/// Every simulation run is driven by one or more `SimRng` streams derived
/// from a single user-visible seed, so a run is exactly reproducible from
/// `(code, seed, parameters)`. Per-entity sub-streams
/// ([`SimRng::substream`]) keep, e.g., site 3's failure process
/// statistically independent of site 4's *and* stable when unrelated
/// parts of the simulation change their draw counts.
pub struct SimRng {
    rng: StdRng,
}

impl SimRng {
    /// A stream seeded from a user-level seed: its sub-stream 0, so
    /// that seeds `s` and `s + 1` share no draw.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimRng::substream(seed, 0)
    }

    /// Derives an independent sub-stream identified by `stream_id`.
    #[must_use]
    pub fn substream(seed: u64, stream_id: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(SimRng::stream_seed(seed, stream_id)),
        }
    }

    /// The seed of sub-stream `stream_id` of `seed`: SplitMix64 over the
    /// pair (seed mixing), which is more than adequate for decorrelating
    /// simulation streams. Use it to hand one independent seed to each
    /// of many runs that derive their own sub-streams, so that seeds
    /// `s` and `s + 1` share no run.
    #[must_use]
    pub fn stream_seed(seed: u64, stream_id: u64) -> u64 {
        let mut z = seed ^ stream_id.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in the half-open interval `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// An exponential variate with the given mean (inverse-transform
    /// sampling).
    ///
    /// # Panics
    ///
    /// Panics when `mean` is not strictly positive.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // 1 - U is in (0, 1], so ln never sees zero.
        -mean * (1.0 - self.uniform()).ln()
    }

    /// A Bernoulli draw: `true` with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    /// Neighbouring user seeds share no draw at any small offset: one
    /// stream is never another one a few draws later.
    #[test]
    fn neighbouring_seeds_do_not_overlap() {
        let draws = |seed| -> std::collections::HashSet<u64> {
            let mut rng = SimRng::new(seed);
            (0..256).map(|_| rng.uniform().to_bits()).collect()
        };
        let all: Vec<_> = (0..16).map(draws).collect();
        for (i, a) in all.iter().enumerate() {
            assert_eq!(a.len(), 256, "seed {i} repeats a draw");
            for (j, b) in all.iter().enumerate().skip(i + 1) {
                assert!(a.is_disjoint(b), "seeds {i} and {j} share draws");
            }
        }
    }

    #[test]
    fn substreams_are_independent_and_stable() {
        let mut s0 = SimRng::substream(7, 0);
        let mut s1 = SimRng::substream(7, 1);
        let a: Vec<u64> = (0..10).map(|_| (s0.uniform() * 1e9) as u64).collect();
        let b: Vec<u64> = (0..10).map(|_| (s1.uniform() * 1e9) as u64).collect();
        assert_ne!(a, b);
        // Re-deriving stream 0 reproduces it exactly.
        let mut again = SimRng::substream(7, 0);
        let c: Vec<u64> = (0..10).map(|_| (again.uniform() * 1e9) as u64).collect();
        assert_eq!(a, c);
    }

    #[test]
    fn neighbouring_seeds_share_no_stream() {
        let streams = |seed| -> std::collections::HashSet<u64> {
            (0..10_000)
                .map(|id| SimRng::stream_seed(seed, id))
                .collect()
        };
        assert_eq!(streams(1).len(), 10_000);
        assert!(streams(1).is_disjoint(&streams(2)));
        assert!(streams(1).is_disjoint(&streams(7)));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.05,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = SimRng::new(4);
        assert!((0..10_000).all(|_| rng.exponential(0.001) >= 0.0));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::new(5);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = SimRng::new(6);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_mean_rejected() {
        SimRng::new(0).exponential(0.0);
    }
}
