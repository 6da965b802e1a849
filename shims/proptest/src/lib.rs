//! In-tree shim for the `proptest` crate (see `shims/README.md`).
//!
//! Provides the subset of proptest used by this workspace: the
//! [`proptest!`] macro, range/tuple/array/collection strategies,
//! [`Strategy::prop_map`], `prop_assert!`/`prop_assert_eq!`, and
//! [`ProptestConfig`]. Each test case draws its inputs from a
//! deterministic per-case RNG; there is no shrinking — a failing case
//! panics directly with the assertion message.

#![warn(missing_docs)]

use std::ops::Range;

#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::SmallRng;
    pub use rand::SeedableRng;

    /// The per-case generator: decorrelated from neighbouring cases by
    /// a SplitMix-style multiply.
    pub fn case_rng(case: u32) -> SmallRng {
        SmallRng::seed_from_u64(
            0x9E37_79B9_7F4A_7C15u64 ^ (case as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
    }
}

/// The RNG type strategies draw from.
pub type TestRng = rand::rngs::SmallRng;

/// Test-runner configuration (only the case count is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter created by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed (cloned) value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::random_range(rng, self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::random_range(rng, self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Anything usable as the size argument of [`vec`].
    pub trait IntoSize {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSize for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSize for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rand::Rng::random_range(rng, self.clone())
        }
    }

    impl IntoSize for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rand::Rng::random_range(rng, self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    /// A vector of values from `element` with a length from `size`
    /// (a fixed `usize` or a range).
    pub fn vec<S: Strategy, Z: IntoSize>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, Z: IntoSize> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Fixed-size array strategies.
pub mod array {
    use super::{Strategy, TestRng};

    macro_rules! uniform {
        ($name:ident, $n:expr) => {
            /// Strategy for `[S::Value; N]` drawing every element from
            /// the same element strategy.
            pub fn $name<S: Strategy>(element: S) -> Uniform<S, $n> {
                Uniform { element }
            }
        };
    }

    /// Strategy returned by the `uniformN` constructors.
    pub struct Uniform<S, const N: usize> {
        element: S,
    }

    impl<S: Strategy, const N: usize> Strategy for Uniform<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            std::array::from_fn(|_| self.element.generate(rng))
        }
    }

    uniform!(uniform2, 2);
    uniform!(uniform3, 3);
    uniform!(uniform4, 4);
    uniform!(uniform5, 5);
    uniform!(uniform6, 6);
    uniform!(uniform8, 8);
}

/// The common imports.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property (panics with the generated
/// case on failure — no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (cfg = $cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::__rt::case_rng(__case);
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// Defines property tests: each `fn name(binding in strategy, ...)`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, 1f64..2.0), v in crate::collection::vec(0u8..4, 2..6)) {
            prop_assert!(a < 10);
            prop_assert!((1.0..2.0).contains(&b));
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 4));
        }

        #[test]
        fn map_and_array(arr in crate::array::uniform6(0.5f64..1.0).prop_map(|a| a.map(|x| x * 2.0))) {
            for x in arr {
                prop_assert!((1.0..2.0).contains(&x));
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..4)
            .map(|c| rand::RngCore::next_u64(&mut crate::__rt::case_rng(c)))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|c| rand::RngCore::next_u64(&mut crate::__rt::case_rng(c)))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }
}
