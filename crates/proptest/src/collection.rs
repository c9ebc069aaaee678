//! Collection strategies.

use core::ops::Range;

use rand::Rng;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length specification for [`vec()`]: an exact `usize` or a half-open
/// `Range<usize>`.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            lo: exact,
            hi: exact + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty vec size range");
        SizeRange {
            lo: range.start,
            hi: range.end,
        }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = if self.size.lo + 1 == self.size.hi {
            self.size.lo
        } else {
            rng.gen_range(self.size.lo..self.size.hi)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements are
/// drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
