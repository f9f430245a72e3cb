//! Vendored stand-in for the `proptest` crate.
//!
//! Supports the subset of proptest's DSL this workspace's property
//! tests use: the [`proptest!`] macro (with an optional
//! `#![proptest_config(..)]` header), [`Strategy`] for integer ranges,
//! tuples, `prop::bool::ANY`, `prop::collection::vec`, and
//! `.prop_map(..)`, plus [`prop_assert!`]/[`prop_assert_eq!`].
//!
//! Cases are generated from a deterministic per-test seed (derived from
//! the test name and case index), so failures reproduce across runs.
//! There is **no shrinking**: a failing case reports its inputs via the
//! panic message of the underlying `assert!`, which is enough for the
//! small strategies used here.

pub use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Test-runner configuration (only the `cases` knob is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A generator of random values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for ::std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for ::std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Strategy namespace mirroring `proptest::prop`.
pub mod prop {
    /// Boolean strategies.
    pub mod bool {
        use crate::{SmallRng, Strategy};
        use rand::Rng;

        /// Generates `true`/`false` with equal probability.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// The uniform boolean strategy.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;

            fn generate(&self, rng: &mut SmallRng) -> bool {
                rng.gen::<bool>()
            }
        }
    }

    /// Collection strategies.
    pub mod collection {
        use crate::{SmallRng, Strategy};
        use rand::Rng;

        /// Length bounds for [`vec()`].
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<::std::ops::Range<usize>> for SizeRange {
            fn from(r: ::std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty vec size range");
                Self {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                Self { lo: n, hi: n + 1 }
            }
        }

        /// Strategy producing `Vec`s of `element` values with a length
        /// drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.lo..self.size.hi);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

/// FNV-style hash of the test name, for stable per-test seeds.
#[doc(hidden)]
pub fn seed_for(name: &str, case: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ (u64::from(case)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[doc(hidden)]
pub fn case_rng(name: &str, case: u32) -> SmallRng {
    SmallRng::seed_from_u64(seed_for(name, case))
}

/// Assert inside a property (maps to `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property (maps to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests.
///
/// ```text
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///
///     #[test]
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __proptest_rng = $crate::case_rng(stringify!($name), case);
                $(let $pat = $crate::Strategy::generate(&($strat), &mut __proptest_rng);)+
                $body
            }
        }
    )*};
}
