//! Offline mini property-testing harness exposing the `proptest` API
//! subset this workspace uses: the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] macros, [`Strategy`] over numeric ranges, tuples
//! and [`collection::vec`], [`any`], [`Just`], and
//! [`ProptestConfig::with_cases`].
//!
//! Unlike the real crate there is no shrinking and no persisted
//! regression seeds: cases are generated from a seed derived
//! deterministically from the test name and case index, so every run
//! (local or CI) explores the identical sequence and failures reproduce
//! exactly. See `shims/README.md` for why the workspace vendors shims.

use rand::rngs::SmallRng;

pub mod test_runner;

pub use test_runner::{TestCaseError, TestCaseResult};

/// Runner configuration (`with_cases` subset).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The value type produced.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut SmallRng) -> Self::Value;
}

/// Strategy producing a constant.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut SmallRng) -> T {
        self.0.clone()
    }
}

mod ranges;

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SmallRng) -> $t {
                rand::RngCore::next_u64(rng) as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> bool {
        rand::RngCore::next_u64(rng) & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut SmallRng) -> f64 {
        // Finite, sign-symmetric, wide dynamic range.
        let u = (rand::RngCore::next_u64(rng) >> 11) as f64 / (1u64 << 53) as f64;
        let mag = (u * 600.0 - 300.0).exp2();
        if rand::RngCore::next_u64(rng) & 1 == 1 {
            mag
        } else {
            -mag
        }
    }
}

/// Strategy for any value of `T` (see [`any`]).
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}

pub mod collection {
    //! Collection strategies (`vec` subset).

    use super::{SmallRng, Strategy};

    /// Length range for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            SizeRange {
                lo: r.start,
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with a sampled length.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// `Vec` strategy with lengths drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            use rand::Rng;
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Single-import surface mirroring `proptest::prelude`.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

/// FNV-1a over the test name: the per-test base seed.
#[doc(hidden)]
pub fn seed_of(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

#[doc(hidden)]
pub fn case_rng(name: &str, case: u32) -> SmallRng {
    use rand::SeedableRng;
    SmallRng::seed_from_u64(seed_of(name) ^ ((case as u64) << 32 | 0x5EED))
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(..)]` and any number of
/// `fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng = $crate::case_rng(stringify!($name), case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let ::core::result::Result::Err(e) = outcome {
                    panic!(
                        "property `{}` failed at case {}/{}: {}",
                        stringify!($name), case, config.cases, e
                    );
                }
            }
        }
    )*};
}

/// Fallible assertion: fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({})", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

/// Fallible equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        if !(l == r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($lhs), stringify!($rhs), l, r
            )));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$lhs, &$rhs);
        if !(l == r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
                stringify!($lhs), stringify!($rhs), format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Fallible inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (l, r) = (&$lhs, &$rhs);
        if l == r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($lhs),
                stringify!($rhs),
                l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in -2i64..=2, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2..=2).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn tuples_and_vecs(list in prop::collection::vec((0u32..10, 0u32..10), 0..20)) {
            prop_assert!(list.len() < 20);
            for &(a, b) in &list {
                prop_assert!(a < 10 && b < 10);
            }
        }

        #[test]
        fn any_and_just(seed in any::<u64>(), k in Just(7usize)) {
            prop_assert_eq!(k, 7);
            let _ = seed;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::Strategy;
        let mut a = crate::case_rng("t", 0);
        let mut b = crate::case_rng("t", 0);
        assert_eq!((0u64..100).sample(&mut a), (0u64..100).sample(&mut b));
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failure_reports_case() {
        crate::proptest! {
            #![proptest_config(crate::ProptestConfig::with_cases(1))]
            fn always_fails(x in 0u64..10) {
                crate::prop_assert!(x > 100);
            }
        }
        always_fails();
    }
}
