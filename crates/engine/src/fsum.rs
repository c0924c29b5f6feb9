//! Order-independent float sums: the accumulator behind `SUM` and `AVG`
//! over floats, whose result depends only on the multiset of its inputs.
//!
//! Two plans may feed an aggregate the same rows in different orders, and
//! floating-point addition is not associative, so a running `f64` total
//! can differ in its last bits between them. [`FloatSum`] adds every
//! finite value that is a multiple of 2⁻⁶⁴ below 2³¹ in magnitude — every
//! money amount and every product of two — into an exact `i128` count of
//! 2⁻⁶⁴ units, and keeps the rest (NaN, ±∞, tiny or huge values) aside.
//! The total rounds the exact sum to `f64` once, then folds in the rest
//! in [`f64::total_cmp`] order.
//!
//! [`FloatSum::add_times`] adds a value `m` times at once, for a row that
//! stands for `m` identical answer rows: the exact part takes
//! `units(x) · m`. A value kept aside cannot be repeated that way, so
//! `add_times` refuses it when `m > 1`. A value enters the exact sum only
//! when its unit count is below 2⁹⁵, so 2³² single additions cannot
//! overflow the `i128`; the product and the sum are checked all the same,
//! and an overflow refuses too.

/// Fractional bits of the exact sum: it counts units of 2⁻⁶⁴.
const FRAC_BITS: i32 = 64;

/// A value enters the exact sum when its unit count fits below 2^`UNIT_BITS`.
const UNIT_BITS: u32 = 95;

/// See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct FloatSum {
    /// The exact sum of the values that fit, in units of 2⁻⁶⁴.
    fixed: i128,
    /// Every other value, in arrival order.
    rest: Vec<f64>,
}

impl FloatSum {
    /// Adds `x`: the one-at-a-time reference [`FloatSum::add_times`] is
    /// tested against.
    #[cfg(test)]
    fn add(&mut self, x: f64) {
        match units(x) {
            Some(u) => self.fixed += u,
            None => self.rest.push(x),
        }
    }

    /// Adds `x` `m` times: the state `m` single additions of `x` reach.
    /// False, with nothing added, when one step cannot reach it exactly:
    /// `x` is kept aside and `m > 1`, or the exact sum would overflow.
    pub(crate) fn add_times(&mut self, x: f64, m: u64) -> bool {
        match units(x) {
            // A weight of 1 — every unweighted row — skips the 128-bit
            // multiply.
            Some(u) => match (if m == 1 {
                Some(u)
            } else {
                u.checked_mul(i128::from(m))
            })
            .and_then(|p| self.fixed.checked_add(p))
            {
                Some(sum) => {
                    self.fixed = sum;
                    true
                }
                None => false,
            },
            None if m == 1 => {
                self.rest.push(x);
                true
            }
            None => false,
        }
    }

    /// The sum: the exact part rounded to nearest (ties to even), then
    /// the values kept aside, smallest first by [`f64::total_cmp`].
    pub(crate) fn total(mut self) -> f64 {
        self.rest.sort_unstable_by(f64::total_cmp);
        // `i128 as f64` rounds to nearest, ties to even; scaling by a power
        // of two is exact, since a non-zero sum is at least one unit.
        let exact = self.fixed as f64 * (-FRAC_BITS as f64).exp2();
        self.rest.into_iter().fold(exact, |acc, x| acc + x)
    }
}

/// `x` as a count of 2⁻⁶⁴ units, if it is finite, a whole number of
/// units and below 2^[`UNIT_BITS`] of them.
fn units(x: f64) -> Option<i128> {
    if x == 0.0 {
        return Some(0);
    }
    if !x.is_finite() {
        return None;
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    // |x| = mantissa · 2^exp.
    let (mantissa, exp) = if biased == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, biased - 1075)
    };
    let zeros = mantissa.trailing_zeros();
    let (odd, shift) = (mantissa >> zeros, exp + zeros as i32 + FRAC_BITS);
    if shift < 0 || (64 - odd.leading_zeros()) + shift as u32 > UNIT_BITS {
        return None;
    }
    let u = i128::from(odd) << shift;
    Some(if x < 0.0 { -u } else { u })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum(xs: &[f64]) -> f64 {
        let mut s = FloatSum::default();
        xs.iter().for_each(|&x| s.add(x));
        s.total()
    }

    #[test]
    fn ten_tenths_are_one() {
        assert_eq!(sum(&[0.1; 10]), 1.0);
        assert_ne!([0.1; 10].iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn the_exact_part_is_correctly_rounded() {
        // Half an ulp of 2³⁰, twice: a running sum rounds each half away
        // (a tie, to the even 2³⁰); the exact sum keeps both.
        let (big, half) = (2f64.powi(30), 2f64.powi(-23));
        assert_eq!(big + half + half, big);
        assert_eq!(sum(&[big, half, half]), big + 2.0 * half);
        assert_eq!(sum(&[half, big, half]), big + 2.0 * half);
        assert_eq!(sum(&[-0.25, 0.25, 1e-30]), 1e-30);
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[-0.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn units_cover_money_and_refuse_the_rest() {
        assert_eq!(units(1.0), Some(1 << 64));
        assert_eq!(units(-0.5), Some(-(1 << 63)));
        assert!(units(245_899.221_9).is_some());
        assert!(units(2f64.powi(30) * 1.5).is_some());
        assert!(units(2f64.powi(31)).is_none());
        assert!(units(2f64.powi(-64)).is_some());
        assert!(units(2f64.powi(-65)).is_none());
        assert!(units(f64::from_bits(1)).is_none());
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            assert!(units(x).is_none());
        }
    }

    #[test]
    fn add_times_refuses_what_it_cannot_repeat_exactly() {
        for x in [1e300, -1e300, f64::NAN, f64::INFINITY, 1e-30] {
            let mut s = FloatSum::default();
            assert!(!s.add_times(x, 2), "{x}");
            assert!(!s.add_times(x, u64::MAX), "{x}");
            assert!(s.add_times(x, 1), "{x}");
        }
        // 2³⁰ is 2⁹⁴ units: nearly 2⁶⁴ of them overflow the product, and
        // two products of 2¹²⁶ units overflow the sum.
        let mut s = FloatSum::default();
        assert!(!s.add_times(2f64.powi(30), u64::MAX));
        assert!(s.add_times(2f64.powi(30), 1 << 32));
        assert!(!s.add_times(2f64.powi(30), 1 << 32));
        assert_eq!(s.total(), 2f64.powi(62));
    }

    /// One input of the property test, drawn from classes that stress
    /// each path: NaNs with two payloads and both signs, infinities,
    /// subnormals, values around 1e300, zeros, money, arbitrary bits.
    fn value(seed: u64) -> f64 {
        let pick = seed % 11;
        let rest = seed / 11;
        match pick {
            0 => [f64::NAN, -f64::NAN, f64::from_bits(f64::NAN.to_bits() ^ 1)][(rest % 3) as usize],
            1 => [f64::INFINITY, f64::NEG_INFINITY][(rest % 2) as usize],
            2 => f64::from_bits(rest % (1 << 52)),
            3 => {
                (1.0 + (rest % 1000) as f64 / 997.0)
                    * 1e300
                    * [1.0, -1.0][(rest / 1000 % 2) as usize]
            }
            4 => [0.0, -0.0][(rest % 2) as usize],
            5..=7 => (rest % 2_000_000) as f64 / 100.0 - 10_000.0,
            8 => (rest % 1000) as f64 * 0.01 * ((rest / 1000) % 1000) as f64 * 0.96,
            9 => 1e-20 * (rest % 100) as f64,
            _ => f64::from_bits(rest),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any permutation of the inputs gives the same bits.
        #[test]
        fn the_total_does_not_depend_on_the_order(
            seeds in prop::collection::vec(any::<u64>(), 0..48),
            shuffle in any::<u64>(),
        ) {
            let xs: Vec<f64> = seeds.iter().map(|&s| value(s)).collect();
            let mut ys = xs.clone();
            let mut state = shuffle;
            for i in (1..ys.len()).rev() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ys.swap(i, (state >> 33) as usize % (i + 1));
            }
            ys.reverse();
            prop_assert_eq!(sum(&xs).to_bits(), sum(&ys).to_bits(), "{:?} vs {:?}", xs, ys);
        }

        /// `add_times(x, m)` after any prefix reaches the state of `m`
        /// calls of `add(x)`, bit for bit, and refuses only a value kept
        /// aside with `m > 1`.
        #[test]
        fn add_times_is_repeated_add(
            prefix in prop::collection::vec(any::<u64>(), 0..8),
            seed in any::<u64>(),
            m in 1u64..40,
        ) {
            let mut once = FloatSum::default();
            prefix.iter().for_each(|&s| once.add(value(s)));
            let mut repeated = once.clone();
            let x = value(seed);
            if once.add_times(x, m) {
                (0..m).for_each(|_| repeated.add(x));
                prop_assert_eq!(format!("{once:?}"), format!("{repeated:?}"));
                prop_assert_eq!(once.total().to_bits(), repeated.total().to_bits());
            } else {
                prop_assert!(m > 1 && units(x).is_none(), "{} × {}", x, m);
            }
        }
    }
}
