//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment for this workspace cannot reach crates.io, so this
//! crate implements the subset of the proptest API the workspace's
//! property tests use: the [`Strategy`](strategy::Strategy) abstraction
//! (ranges, tuples, `prop_map`, collections, `select`, `Just`, `any`,
//! weighted unions), the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] / [`prop_oneof!`] macros, and [`ProptestConfig`].
//!
//! Differences from upstream: generation is purely random with a
//! deterministic per-test seed (derived from the test's module path and
//! name), and failing cases are **not shrunk** — the panic message reports
//! the case number so a failure is reproducible by rerunning the test.

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::Rng as _;

/// The random source handed to strategies.
pub type TestRng = SmallRng;

/// Error type returned by a failing property body (via `prop_assert!`).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with the given message.
    pub fn fail<S: Into<String>>(msg: S) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

#[doc(hidden)]
pub mod reexport {
    pub use rand::SeedableRng;
}

/// FNV-1a hash of a string; used to derive a stable per-test seed.
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::*;

    /// A recipe for generating values of `Self::Value`.
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

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
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
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

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

    /// A weighted choice among boxed strategies (built by [`prop_oneof!`]).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> fmt::Debug for Union<V> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Union({} arms)", self.arms.len())
        }
    }

    impl<V> Union<V> {
        /// Builds a union; weights must not all be zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Self { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.gen_range(0..self.total);
            for (w, s) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return s.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights changed during generation")
        }
    }

    /// Types with a canonical "generate anything" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for usize {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<A>(std::marker::PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// An arbitrary value of type `A` (upstream `any::<A>()`).
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::*;

    /// Length specifications accepted by [`vec()`]: a fixed `usize` or a
    //  half-open `Range<usize>`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use super::strategy::Strategy;
    use super::*;

    /// The strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.gen_range(0..self.0.len())].clone()
        }
    }

    /// Uniformly selects one of `options` (which must be non-empty).
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select over an empty set");
        Select(options)
    }
}

pub mod prelude {
    //! One-stop imports for property tests, mirroring `proptest::prelude`.

    pub use crate::strategy::{any, Any, Arbitrary, BoxedStrategy, Just, Strategy, Union};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig, TestCaseError, TestRng,
    };

    /// The `prop` module alias (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current property case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

/// Weighted (or unweighted) choice among strategies with a common value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests. Each inner `fn name(pat in strategy, ...)` body
/// runs `config.cases` times against freshly generated inputs; a
/// `prop_assert*` failure panics with the case number.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = <$crate::TestRng as $crate::reexport::SeedableRng>::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                let strategies = ($($strat,)+);
                for case in 0..config.cases {
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::generate(&strategies, &mut rng);
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest `{}`: case #{} of {} failed: {}",
                            stringify!($name), case, config.cases, e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_small() -> impl Strategy<Value = u64> {
        prop_oneof![
            3 => 0u64..10,
            1 => (10u64..20).prop_map(|x| x),
            1 => Just(42u64),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(0u64..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6, "len = {}", v.len());
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn fixed_len_vec(v in prop::collection::vec(0u64..5, 3)) {
            prop_assert_eq!(v.len(), 3);
        }

        #[test]
        fn oneof_hits_all_arms(v in prop::collection::vec(arb_small(), 64)) {
            prop_assert!(v.iter().all(|&x| x < 20 || x == 42));
        }

        #[test]
        fn select_and_any(c in prop::sample::select(vec!['a', 'b']), b in any::<bool>()) {
            prop_assert!(c == 'a' || c == 'b');
            let _ = b;
        }

        #[test]
        fn tuples_nest(pair in (0u32..4, prop::collection::vec(0u64..3, 1..4))) {
            prop_assert!(pair.0 < 4);
            prop_assert!(!pair.1.is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use rand::SeedableRng;
        let s = crate::collection::vec(0u64..100, 5);
        let mut r1 = crate::TestRng::seed_from_u64(9);
        let mut r2 = crate::TestRng::seed_from_u64(9);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }

    #[test]
    #[should_panic(expected = "case #")]
    fn failing_property_panics_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x = {x}");
            }
        }
        always_fails();
    }
}
