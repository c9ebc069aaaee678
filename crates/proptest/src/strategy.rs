//! Value-generation strategies.

use core::fmt::Debug;
use core::marker::PhantomData;
use core::ops::Range;

use rand::Rng;

use crate::test_runner::TestRng;

/// A recipe for generating values of one type.
///
/// Unlike real proptest there is no value tree and no shrinking: a
/// strategy is just a deterministic function of the case RNG.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value: Debug;

    /// Draws one value from the case RNG.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms every generated value with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Copy, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (stand-in for real
/// proptest's `Arbitrary`).
pub trait Arbitrary: Sized + Debug {
    /// Draws one value uniformly from the type's whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            #[inline]
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )+};
}
impl_arbitrary_int!(u8, u16, u64);

impl Arbitrary for bool {
    #[inline]
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

/// The strategy returned by [`any`].
#[derive(Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Any<T> {}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over the whole domain of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_strategy_for_range {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}
impl_strategy_for_range!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_for_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_strategy_for_tuple!(A: 0, B: 1);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2);
impl_strategy_for_tuple!(A: 0, B: 1, C: 2, D: 3);

type DynGenerate<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// A weighted choice among strategies with a common value type; built
/// by the [`prop_oneof!`](crate::prop_oneof) macro.
pub struct Union<V> {
    arms: Vec<(u32, DynGenerate<V>)>,
}

impl<V: Debug> Union<V> {
    /// An empty union; generation panics until an arm is added.
    #[must_use]
    pub fn new() -> Self {
        Union { arms: Vec::new() }
    }

    /// Adds an arm with the given relative weight.
    #[must_use]
    pub fn or<S>(mut self, weight: u32, strategy: S) -> Self
    where
        S: Strategy<Value = V> + 'static,
    {
        assert!(weight > 0, "prop_oneof! weights must be positive");
        self.arms
            .push((weight, Box::new(move |rng| strategy.generate(rng))));
        self
    }
}

impl<V: Debug> Default for Union<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let total: u32 = self.arms.iter().map(|(w, _)| w).sum();
        assert!(total > 0, "prop_oneof! needs at least one arm");
        let mut pick = rng.gen_range(0..total);
        for (weight, arm) in &self.arms {
            if pick < *weight {
                return arm(rng);
            }
            pick -= weight;
        }
        unreachable!("weighted pick exceeded total weight")
    }
}
