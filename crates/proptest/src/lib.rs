//! Vendored minimal stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the real crates-io
//! `proptest` cannot be fetched. This crate implements the API subset
//! the workspace's property tests use: the [`proptest!`] macro with an
//! optional `#![proptest_config(...)]` header, range/tuple/`Just`/
//! [`prop_oneof!`]/`prop::collection::vec`/[`any`](arbitrary::any) strategies,
//! `prop_map`, and the `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its generated inputs
//!   (via the panic message of the failed assertion plus the case
//!   seed) but is not minimized;
//! * **derived seeding** — each test's random stream is seeded from
//!   the test's module path and case index, so runs are fully
//!   deterministic and identical across machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod test_runner {
    //! Configuration and the per-case random source.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// The random source handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// Deterministic stream for one (test, case) pair.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the test name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng {
                inner: StdRng::seed_from_u64(h ^ (u64::from(case) << 32 | u64::from(case))),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            use rand::Rng;
            self.inner.gen::<f64>()
        }

        /// Uniform integer in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            use rand::Rng;
            assert!(n > 0);
            self.inner.gen_range(0..n)
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use core::marker::PhantomData;
    use core::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The type of value generated.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    let wide = (rng.next_u64() as u128).wrapping_mul(span);
                    self.start + (wide >> 64) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128) - (lo as u128) + 1;
                    let wide = (rng.next_u64() as u128).wrapping_mul(span);
                    lo + (wide >> 64) as $t
                }
            }
        )*};
    }

    impl_int_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

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
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);

    /// A boxed `prop_oneof!` arm: draws one value from the rng.
    pub type OneOfArm<T> = Box<dyn Fn(&mut TestRng) -> T>;

    /// Uniform choice among boxed alternatives ([`crate::prop_oneof!`]).
    pub struct OneOf<T> {
        arms: Vec<OneOfArm<T>>,
    }

    impl<T> OneOf<T> {
        /// Builds from the macro-collected arms.
        pub fn new(arms: Vec<OneOfArm<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    /// Strategy for any value of a primitive type ([`crate::arbitrary::any`]).
    #[derive(Debug, Clone, Default)]
    pub struct Any<T>(pub(crate) PhantomData<T>);
}

pub mod arbitrary {
    //! The `any::<T>()` entry point for primitive types.

    use super::strategy::{Any, Strategy};
    use super::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for `T`'s full domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use core::ops::Range;

    /// Strategy producing `Vec`s of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    /// Output of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prop {
    //! Namespace mirror so `prop::collection::vec` resolves.

    pub use super::collection;
}

pub mod prelude {
    //! Everything a property test file needs.

    pub use super::arbitrary::any;
    pub use super::prop;
    pub use super::strategy::{Just, Strategy};
    pub use super::test_runner::ProptestConfig;
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a property (panics on failure; no
/// shrinking in this stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        $crate::strategy::OneOf::new(vec![
            $({
                let s = $strat;
                Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                    $crate::strategy::Strategy::generate(&s, rng)
                }) as Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
            }),+
        ])
    }};
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// item runs its body over `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal recursion for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&{ $strat }, &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("t", 0);
        for _ in 0..1000 {
            let v = Strategy::generate(&(5u64..10), &mut rng);
            assert!((5..10).contains(&v));
            let w = Strategy::generate(&(1u32..=4), &mut rng);
            assert!((1..=4).contains(&w));
        }
    }

    #[test]
    fn vec_lengths_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("t2", 0);
        for _ in 0..200 {
            let v = Strategy::generate(&prop::collection::vec(0u64..4, 1..7), &mut rng);
            assert!((1..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 4));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::test_runner::TestRng::for_case("t3", 0);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[Strategy::generate(&s, &mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself works end to end.
        #[test]
        fn macro_roundtrip(x in 0u64..100, v in prop::collection::vec(any::<bool>(), 0..10)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 10);
        }

        #[test]
        fn mapped_strategy(y in (0u64..10).prop_map(|v| v * 2)) {
            prop_assert_eq!(y % 2, 0);
            prop_assert!(y < 20);
        }
    }
}
