//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the slice of `proptest` its test suites actually use:
//! the [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`] macros, the
//! [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, [`collection::vec`]/[`collection::btree_set`], [`any`], a
//! single-character-class regex strategy for `&str` patterns like
//! `"[ -~]{0,12}"`, and [`ProptestConfig::with_cases`].
//!
//! Differences from upstream: cases are generated from a deterministic
//! per-test seed (derived from the test name) and failures are **not
//! shrunk** — the failing case index and message are reported instead.

use std::collections::BTreeSet;
use std::fmt;

/// Deterministic generator handed to strategies (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name (stable across runs).
    pub fn deterministic(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// Next uniform 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Test-case failure raised by the `prop_assert*` macros.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration. Only `cases` is modelled.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of random values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Boxes the strategy (API-compatibility shim).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
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

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Constant strategy.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = rng.next_u64() as u128 % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = rng.next_u64() as u128 % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
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

/// `&str` patterns are single-character-class regexes like `"[ -~]{0,12}"`
/// (one bracketed class of literals and ranges, with a `{min,max}`
/// repetition). Anything fancier panics — extend as needed.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, min, max) = parse_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported regex strategy `{self}`"));
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

fn parse_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class_src: Vec<char> = rest[..close].chars().collect();
    let rep = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = rep.split_once(',')?;
    let (min, max) = (lo.parse().ok()?, hi.parse().ok()?);

    let mut class = Vec::new();
    let mut i = 0;
    while i < class_src.len() {
        if i + 2 < class_src.len() && class_src[i + 1] == '-' {
            for c in class_src[i]..=class_src[i + 2] {
                class.push(c);
            }
            i += 3;
        } else {
            class.push(class_src[i]);
            i += 1;
        }
    }
    if class.is_empty() || max < min {
        return None;
    }
    Some((class, min, max))
}

/// See [`prop_oneof!`]: draws one of the weighted strategies.
pub struct OneOf<T>(Vec<(u32, BoxedStrategy<T>)>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.0.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.below(total);
        for (w, s) in &self.0 {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("pick < sum of weights")
    }
}

/// Support function for [`prop_oneof!`] — use the macro instead.
pub fn one_of<T>(arms: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
    assert!(
        arms.iter().map(|(w, _)| *w as u64).sum::<u64>() > 0,
        "prop_oneof! needs a positive total weight"
    );
    OneOf(arms)
}

/// Chooses between strategies, optionally weighted:
/// `prop_oneof![a, b]` or `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::one_of(vec![$((
            $weight as u32,
            $crate::Strategy::boxed($strategy),
        )),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::one_of(vec![$((1u32, $crate::Strategy::boxed($strategy))),+])
    };
}

/// `Option` strategies (`prop::option::…`).
pub mod option {
    use super::*;

    /// `None` one draw in four, `Some(element)` otherwise (matching the
    /// [`Arbitrary`] impl for `Option`).
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Types with a canonical strategy, used through [`any`].
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
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

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for f64 {
    /// Uniform over bit patterns — covers NaNs, infinities, ±0.0 and
    /// subnormals, like upstream's full-range float strategy.
    fn arbitrary(rng: &mut TestRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut TestRng) -> Option<T> {
        if rng.next_u64() & 3 == 0 {
            None
        } else {
            Some(T::arbitrary(rng))
        }
    }
}

/// Strategy for [`Arbitrary`] types: `any::<u64>()` etc.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Size specifications accepted by the collection strategies.
pub trait IntoSizeRange {
    /// `(min, max)` inclusive bounds.
    fn bounds(self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(self) -> (usize, usize) {
        (self, self)
    }
}

impl IntoSizeRange for core::ops::Range<usize> {
    fn bounds(self) -> (usize, usize) {
        assert!(self.start < self.end, "empty size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// Collection strategies (`prop::collection::…`).
pub mod collection {
    use super::*;

    /// `Vec` of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet` of between `size.min` and `size.max` distinct elements.
    /// If the element domain is too small to reach the minimum, returns
    /// what it could collect (upstream rejects; we have no rejection).
    pub fn btree_set<S>(element: S, size: impl IntoSizeRange) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        let (min, max) = size.bounds();
        BTreeSetStrategy { element, min, max }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            let mut set = BTreeSet::new();
            let mut attempts = 0;
            while set.len() < target && attempts < 64 * (target + 1) {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Declares property tests:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0u64..10, v in prop::collection::vec(any::<bool>(), 0..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{@munch ($cfg) $($rest)*}
    };
    (@munch ($cfg:expr)) => {};
    (@munch ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(
                ::std::module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let Err(e) = outcome {
                    panic!(
                        "proptest `{}` failed at case {}/{}: {}",
                        stringify!($name), case + 1, config.cases, e
                    );
                }
            }
        }
        $crate::proptest!{@munch ($cfg) $($rest)*}
    };
    ($($rest:tt)*) => {
        $crate::proptest!{@munch ($crate::ProptestConfig::default()) $($rest)*}
    };
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// the process) so the runner can report the case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`: {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` != `{}`\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` != `{}`: {}\n  both: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn class_pattern_parses() {
        let (class, min, max) = super::parse_class_pattern("[ -~]{0,12}").unwrap();
        assert_eq!((min, max), (0, 12));
        assert!(class.contains(&' ') && class.contains(&'~') && class.contains(&'A'));
        assert!(super::parse_class_pattern("plain").is_none());
    }

    #[test]
    fn strategies_respect_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..200 {
            let v = (1usize..=3).generate(&mut rng);
            assert!((1..=3).contains(&v));
            let xs = prop::collection::vec(0i64..5, 2..6).generate(&mut rng);
            assert!((2..=5).contains(&xs.len()));
            assert!(xs.iter().all(|x| (0..5).contains(x)));
            let set = prop::collection::btree_set(0usize..4, 1..=3).generate(&mut rng);
            assert!(!set.is_empty() && set.len() <= 3);
            let s = "[a-c]{1,4}".generate(&mut rng);
            assert!((1..=4).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(x in 0u64..100, pair in (0i64..5, any::<bool>())) {
            prop_assert!(x < 100);
            prop_assert_eq!(pair.0, pair.0);
            prop_assert_ne!(pair.0 - 1, pair.0);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(v in prop::collection::vec(any::<Option<i64>>(), 0..8)) {
            prop_assert!(v.len() < 8);
        }
    }
}
