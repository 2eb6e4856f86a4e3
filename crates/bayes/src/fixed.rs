//! Exact sums of contribution scores: fixed-point integers at scale 2⁻⁶⁰.
//!
//! Eq. 2 sums one contribution score per shared item. Floating-point
//! addition is not associative, so an `f64` fold yields bits that depend on
//! the order in which the items arrive. A [`FixedScore`] rounds each score
//! **once** to the nearest multiple of 2⁻⁶⁰ (ties away from zero) and adds the
//! results as `i128`, which is exact: every order and every grouping of the
//! same scores yields the same bits. That is what lets a shard sum its own
//! items of a pair and ship the partial, and what lets INDEX's
//! contribution-ordered scan reproduce PAIRWISE's item-ordered fold bit for
//! bit.
//!
//! **Error.** One rounding moves a score by at most 2⁻⁶¹, so a sum of `n`
//! scores is within `n·2⁻⁶¹` of the exact real sum of the `f64` scores;
//! [`FixedScore::to_f64`] adds one final rounding (half an ulp of the
//! result).
//!
//! **Saturation.** A score is clamped to `±2³⁴` before rounding: `±∞` becomes
//! `±2³⁴` and NaN becomes 0. Real scores are logarithms of probability
//! ratios, far inside that range, and the posterior of Eq. 2 has long
//! reached 0 or 1 before it. With the clamp, 2³² items sum to at most 2⁶⁶,
//! that is 2¹²⁶ units, so no `u32` item count can overflow the accumulator;
//! sums saturate rather than wrap beyond that.

use std::ops::{Add, AddAssign};

/// Fractional bits of a [`FixedScore`]: one unit is 2⁻⁶⁰.
const FRACTION_BITS: u32 = 60;

/// Largest magnitude a single score is clamped to, as a power of two.
const ITEM_LIMIT_BITS: u32 = 34;

/// 2⁻⁶⁰: scaling by it is exact for every integer a sum can hold.
const UNIT: f64 = 1.0 / 1_152_921_504_606_846_976.0;

/// IEEE-754 binary64 layout: 52 stored fraction bits, exponent bias 1023.
const FRACTION_FIELD_BITS: u32 = 52;
const EXPONENT_MASK: u64 = 0x7ff;
const FRACTION_MASK: u64 = (1 << FRACTION_FIELD_BITS) - 1;

/// A finite `f64` is `mantissa · 2^(field − 1075)`; in units of 2⁻⁶⁰ that is
/// `mantissa · 2^(field − UNIT_FIELD)`.
const UNIT_FIELD: u64 = 1075 - 60;

/// A contribution score (or a sum of them) as an integer multiple of 2⁻⁶⁰.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FixedScore(i128);

impl FixedScore {
    /// The empty sum.
    const ZERO: Self = Self(0);

    /// The clamp applied to one score, `2³⁴`.
    const ITEM_LIMIT: Self = Self(1 << (ITEM_LIMIT_BITS + FRACTION_BITS));

    /// Rounds `score` to the nearest multiple of 2⁻⁶⁰ (ties away from zero),
    /// clamped to `±2³⁴`; NaN maps to 0.
    ///
    /// The conversion reads the IEEE-754 fields and shifts the integer
    /// mantissa, so it is exact up to that one rounding and needs no
    /// floating-point rounding mode.
    #[inline]
    pub(crate) fn from_f64(score: f64) -> Self {
        if score.is_nan() {
            return Self::ZERO;
        }
        let bits = score.to_bits();
        let field = (bits >> FRACTION_FIELD_BITS) & EXPONENT_MASK;
        let fraction = bits & FRACTION_MASK;
        // Subnormals have no implicit leading bit and the exponent of field 1.
        let (mantissa, field) =
            if field == 0 { (fraction, 1) } else { (fraction | 1 << FRACTION_FIELD_BITS, field) };
        let magnitude = if field >= UNIT_FIELD {
            // An integral number of units; ±∞ (field 0x7ff) lands here too.
            // The mantissa is at least 2⁵², so from this shift on the value
            // is at least the clamp.
            let shift = field - UNIT_FIELD;
            if shift >= u64::from(ITEM_LIMIT_BITS + FRACTION_BITS - FRACTION_FIELD_BITS) {
                Self::ITEM_LIMIT.0
            } else {
                i128::from(mantissa) << shift
            }
        } else {
            // `mantissa < 2⁵³`: from a shift of 54 on the value is below half
            // a unit and rounds to 0.
            let shift = UNIT_FIELD - field;
            if shift > u64::from(FRACTION_FIELD_BITS) + 1 {
                0
            } else {
                i128::from((mantissa + (1 << (shift - 1))) >> shift)
            }
        };
        Self(if score.is_sign_negative() { -magnitude } else { magnitude })
    }

    /// The nearest `f64` to this sum: one rounding of the integer, then an
    /// exact scaling by 2⁻⁶⁰.
    #[inline]
    pub(crate) fn to_f64(self) -> f64 {
        // Integer-to-float conversion rounds to nearest, ties to even.
        self.0 as f64 * UNIT
    }

    /// A sum of scores given as its integer number of units.
    #[inline]
    pub(crate) fn from_units(units: i128) -> Self {
        Self(units)
    }

    /// The integer number of 2⁻⁶⁰ units of this score.
    #[inline]
    pub(crate) fn units(self) -> i128 {
        self.0
    }

    /// `count` copies of this score, summed exactly (saturating).
    pub(crate) fn times(self, count: usize) -> Self {
        Self(self.0.saturating_mul(i128::try_from(count).unwrap_or(i128::MAX)))
    }
}

impl Add for FixedScore {
    type Output = Self;

    /// Exact (saturating) addition.
    #[inline]
    fn add(self, other: Self) -> Self {
        Self(self.0.saturating_add(other.0))
    }
}

impl AddAssign for FixedScore {
    #[inline]
    fn add_assign(&mut self, other: Self) {
        *self = *self + other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: i128 = 1 << FRACTION_BITS;

    #[test]
    fn representable_values_round_trip_exactly() {
        for value in [0.0, 1.0, -1.0, 0.5, -1.609_437_912_434_100_3, 3.89, 1e-15, 12_345.678] {
            let fixed = FixedScore::from_f64(value);
            assert!((fixed.to_f64() - value).abs() <= 2f64.powi(-60), "{value}");
        }
        assert_eq!(FixedScore::from_f64(1.0).0, ONE);
        assert_eq!(FixedScore::from_f64(-2.5).0, -5 * ONE / 2);
        assert_eq!(FixedScore::from_f64(1.0).to_f64(), 1.0);
        assert_eq!(FixedScore::from_f64(-0.0), FixedScore::ZERO);
    }

    #[test]
    fn rounds_to_nearest_unit_ties_away_from_zero() {
        let unit = UNIT;
        assert_eq!(FixedScore::from_f64(unit).0, 1);
        assert_eq!(FixedScore::from_f64(unit * 0.5).0, 1);
        assert_eq!(FixedScore::from_f64(-unit * 0.5).0, -1);
        assert_eq!(FixedScore::from_f64(unit * 0.499_999).0, 0);
        assert_eq!(FixedScore::from_f64(unit * 1.5).0, 2);
        assert_eq!(FixedScore::from_f64(unit * 2.5).0, 3);
        assert_eq!(FixedScore::from_f64(f64::MIN_POSITIVE).0, 0);
        assert_eq!(FixedScore::from_f64(5e-324).0, 0);
    }

    /// The documented saturation: ±∞ and huge scores clamp to ±2³⁴, NaN
    /// counts as 0, and sums saturate instead of wrapping.
    #[test]
    fn non_finite_and_huge_scores_saturate() {
        let limit = FixedScore::ITEM_LIMIT;
        assert_eq!(limit.to_f64(), 2f64.powi(34));
        assert_eq!(FixedScore::from_f64(f64::INFINITY), limit);
        assert_eq!(FixedScore::from_f64(f64::NEG_INFINITY).0, -limit.0);
        assert_eq!(FixedScore::from_f64(1e300), limit);
        assert_eq!(FixedScore::from_f64(-1e30).0, -limit.0);
        assert_eq!(FixedScore::from_f64(2f64.powi(34)), limit);
        assert!(FixedScore::from_f64(2f64.powi(33)).0 < limit.0);
        assert_eq!(FixedScore::from_f64(f64::NAN), FixedScore::ZERO);
        // u32::MAX clamped items cannot overflow the accumulator...
        let most = limit.times(usize::try_from(u32::MAX).unwrap_or(usize::MAX));
        assert!(most.0 < i128::MAX / 2);
        // ...and beyond that the sum saturates.
        let huge = FixedScore(i128::MAX - 1);
        assert_eq!((huge + limit).0, i128::MAX);
        assert_eq!(limit.times(usize::MAX).0, i128::MAX);
    }

    #[test]
    fn sums_are_exact_in_any_order() {
        let scores = [0.1, 0.2, 0.3, -1.609_437_912_434_100_3, 3.89, 1e-9, 7.25];
        let forward = scores.iter().fold(FixedScore::ZERO, |s, &x| s + FixedScore::from_f64(x));
        let backward =
            scores.iter().rev().fold(FixedScore::ZERO, |s, &x| s + FixedScore::from_f64(x));
        assert_eq!(forward, backward);
        assert_eq!(FixedScore::from_f64(0.25).times(4), FixedScore::from_f64(1.0));
    }
}
