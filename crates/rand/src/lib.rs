//! Offline stand-in for the crates.io `rand` crate (0.8 API subset).
//!
//! The build environment has no network access, so the workspace cannot
//! fetch `rand` from a registry. This crate implements exactly the
//! surface the workspace uses — `rngs::StdRng`, [`SeedableRng::seed_from_u64`],
//! [`Rng::gen`] for `f64`, `bool` and the integer types the proptest
//! stand-in draws whole, and [`Rng::gen_range`] over the integer types
//! some caller ranges over — on top of SplitMix64, which passes BigCrush
//! and is more than adequate for the simulator's statistical needs.
//!
//! It is **not** a cryptographic RNG and makes no attempt to be
//! stream-compatible with the real `rand::rngs::StdRng`; determinism is
//! only promised within this workspace.

#![warn(missing_docs)]

pub mod rngs;

use core::ops::Range;

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// RNGs that can be constructed from a small seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from an `RngCore`.
///
/// Stand-in for `rand`'s `Standard` distribution.
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random bits scaled into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),+) => {$(
        impl Standard for $t {
            #[inline]
            #[allow(clippy::cast_possible_truncation)]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )+};
}
impl_standard_int!(u8, u16, u64);

/// Types usable as `gen_range` bounds.
pub trait SampleUniform: Copy {
    /// Draws uniformly from the half-open `range`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// A uniform draw in `[0, n)` by Lemire's widening-multiply method with
/// rejection, so every residue is exactly equally likely.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    let threshold = n.wrapping_neg() % n;
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(n);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            #[inline]
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(
                    range.start < range.end,
                    "cannot sample from empty range"
                );
                let span = (range.end as i128 - range.start as i128) as u64;
                (range.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )+};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i32);

/// Convenience sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// A uniform draw of `T` (full range for integers, `[0, 1)` for
    /// floats).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform draw from the half-open `range`.
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_covers_small_span() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_signed_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn mean_of_f64_is_centered() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = rng.gen_range(3usize..3);
    }
}
