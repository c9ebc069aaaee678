//! Offline stand-in for the crates.io `proptest` crate (1.x API subset).
//!
//! The build environment has no network access, so the workspace cannot
//! fetch `proptest` from a registry. This crate implements the surface
//! the workspace's property tests use: the [`proptest!`] and weighted
//! [`prop_oneof!`] macros, `prop_assert!`/`prop_assert_eq!`, the
//! [`strategy::Strategy`] trait with `prop_map`, range / tuple /
//! [`strategy::Just`] / [`strategy::any`] strategies,
//! [`collection::vec`], and [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest, deliberately accepted:
//!
//! - **No shrinking.** A failing case reports the generated inputs and
//!   the case seed instead of a minimized counterexample.
//! - **Deterministic seeding.** Case `i` of test `t` is seeded from
//!   `FNV(t)` mixed with `i`, so failures reproduce without a
//!   persistence file. Set `PROPTEST_RNG_SEED` to explore a different
//!   universe of cases.
//! - `ProptestConfig::default()` honours the `PROPTEST_CASES`
//!   environment variable (like real proptest's env-driven config);
//!   `with_cases` is exact.

#![warn(missing_docs)]

pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

/// Defines property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in 0u32..100, b in 0u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// As with real proptest, the `#[test]` attribute is written by the
/// caller and passed through.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::test_runner::run_cases(&__config, stringify!($name), |__rng| {
                $(
                    let $arg =
                        $crate::strategy::Strategy::generate(&($strategy), __rng);
                )+
                let __case_inputs = ::std::format!(
                    ::std::concat!($(::std::stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let __outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(move || $body),
                );
                if let ::std::result::Result::Err(panic) = __outcome {
                    ::std::eprintln!(
                        "proptest: case failed with inputs: {__case_inputs}"
                    );
                    ::std::panic::resume_unwind(panic);
                }
            });
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Chooses between several strategies producing the same value type,
/// weighted (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new()$(.or($weight, $strategy))+
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)+) => { ::std::assert!($($args)+) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)+) => { ::std::assert_eq!($($args)+) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)+) => { ::std::assert_ne!($($args)+) };
}
