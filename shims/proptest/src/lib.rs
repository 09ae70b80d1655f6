//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, implementing exactly the API subset this workspace uses:
//!
//! * the [`proptest!`] macro with `name in strategy` bindings;
//! * [`Strategy`] for numeric ranges, tuples, `prop_map`;
//! * `prop::collection::vec`, `prop::bool::ANY`;
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`].
//!
//! Unlike the real crate there is **no shrinking**: a failing case reports
//! its inputs via the panic message instead. Case count defaults to 64 and
//! is overridable through `PROPTEST_CASES`.

/// Deterministic generator state for one test case (xorshift64* stream
/// seeded per case by SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a stream from a seed (zero is remapped internally).
    pub fn new(seed: u64) -> Self {
        // SplitMix64 scramble so consecutive case indices decorrelate.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        TestRng {
            state: if z == 0 { 0x4D59_5DF4_D0F3_3173 } else { z },
        }
    }

    /// Next raw 64-bit sample.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range");
        let span = hi - lo;
        if span == 0 {
            // hi - lo wrapped: the full-domain range [0, u64::MAX) + 1.
            return self.next_u64();
        }
        lo + self.next_u64() % span
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Generates values of `Value` from a [`TestRng`].
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f` (no shrinking to preserve).
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a second strategy from each generated value (no shrinking).
    fn prop_flat_map<O, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        O: Strategy,
        F: Fn(Self::Value) -> O,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred`; panics after 1000 rejections.
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            pred,
            whence,
        }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// Strategy adapter produced by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Strategy, F: Fn(S::Value) -> O> Strategy for FlatMap<S, F> {
    type Value = O::Value;
    fn generate(&self, rng: &mut TestRng) -> O::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy adapter produced by [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter: 1000 consecutive rejections ({})", self.whence);
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 range");
        lo + (hi - lo) * rng.unit_f64()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range");
                rng.range_u64(self.start as u64, self.end as u64) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range");
                match (hi as u64).checked_add(1) {
                    Some(one_past) => rng.range_u64(lo as u64, one_past) as $t,
                    // hi == u64::MAX: rejection-sample the full domain.
                    None => loop {
                        let v = rng.next_u64();
                        if v >= lo as u64 {
                            return v as $t;
                        }
                    },
                }
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.range_u64(0, span) as i128) as $t
            }
        }
    )*};
}

signed_int_strategy!(i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, G);
}

/// Namespaced strategy constructors, mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};

        /// Length specification for [`vec()`]: a fixed size or a range.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi_inclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange {
                    lo: n,
                    hi_inclusive: n,
                }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi_inclusive: r.end - 1,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi_inclusive: *r.end(),
                }
            }
        }

        /// Strategy for `Vec<S::Value>` with length drawn from `size`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len =
                    rng.range_u64(self.size.lo as u64, self.size.hi_inclusive as u64 + 1) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, size)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::{Strategy, TestRng};

        /// Strategy for a fair coin.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        impl Strategy for Any {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.bool()
            }
        }

        /// `prop::bool::ANY`: uniform true/false.
        pub const ANY: Any = Any;
    }
}

/// Outcome of one generated case: rejection (assume failed) or failure.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
    /// An assertion failed; the test panics with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Builds a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Number of cases per property (`PROPTEST_CASES`, default 64).
pub fn case_count() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// The usual imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, Strategy,
        TestCaseError, TestRng,
    };
}

/// Defines property tests: `proptest! { #[test] fn name(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::case_count();
                $(let $arg = $strat;)*
                let mut rejected = 0usize;
                let mut case = 0u64;
                let mut accepted = 0usize;
                while accepted < cases {
                    let mut rng = $crate::TestRng::new(case);
                    case += 1;
                    $(let $arg = $crate::Strategy::generate(&$arg, &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject(_)) => {
                            rejected += 1;
                            assert!(
                                rejected < 1000,
                                "proptest {}: too many prop_assume! rejections",
                                stringify!($name),
                            );
                        }
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest {} failed at case {}: {}",
                                stringify!($name),
                                case - 1,
                                msg,
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert_eq!(left, right)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    }};
}

/// `prop_assert_ne!(left, right)` with optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` (both: `{:?}`)",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// `prop_assume!(cond)`: silently skips the case when false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 1.5f64..2.5, n in 3usize..7, b in prop::bool::ANY) {
            prop_assert!((1.5..2.5).contains(&x));
            prop_assert!((3..7).contains(&n));
            let _coin: bool = b;
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(0.0f64..1.0, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        #[test]
        fn map_and_tuple(pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair < 19);
        }

        #[test]
        fn assume_rejects(n in 0u64..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn inclusive_full_domain(x in 0u64..=u64::MAX) {
            // The full-domain range must not panic on span overflow; fold
            // the value into an assertion that uses it.
            prop_assert_eq!(x.wrapping_add(0), x);
        }
    }

    #[test]
    fn deterministic_per_case() {
        let s = 0.0f64..1.0;
        let a = s.generate(&mut TestRng::new(7));
        let b = s.generate(&mut TestRng::new(7));
        assert_eq!(a, b);
    }
}
