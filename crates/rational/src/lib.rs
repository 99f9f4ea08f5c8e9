//! Exact rational arithmetic for scheduling times.
//!
//! Every makespan guess, job-piece length and start time produced by the
//! algorithms of Deppert & Jansen (SPAA 2019) is a rational number: the
//! Class-Jumping searches probe values such as `2*P_f / (beta_f + k)`, the
//! continuous knapsack splits one item at a rational fraction, and Batch
//! Wrapping splits jobs at rational gap borders. Floating point would make the
//! accept/reject decisions of the dual approximation tests unreliable, so this
//! crate provides a small, exact, always-reduced rational type over `i128`.
//!
//! The companion instance model bounds all inputs so that `N = sum(s) + sum(t)
//! <= 2^60`; with reduced representations every product formed by the
//! algorithms stays far below `i128::MAX`, and all arithmetic here is checked:
//! an overflow panics instead of silently wrapping.
//!
//! # Two lanes
//!
//! Every operation that reduces, compares or cross-multiplies first checks
//! whether its operands fit in one machine word:
//!
//! * **Word lane.** Numerators that fit in `i64` and denominators that fit in
//!   `u64`/`i64`, such as the times the scheduling algorithms form at the
//!   instance bound above (numerators near `2^61`, small denominators). The
//!   [`gcd`] runs one `u64` Euclid step and then a `u64`
//!   binary gcd, divisions are `u64` divisions, and a cross product is one
//!   64×64→128 multiplication that cannot overflow (`|a·b| <= 2^126`), so it
//!   needs no overflow check.
//! * **Wide lane.** Anything larger takes the checked `i128` code: binary gcd
//!   and division on `i128`, `checked_mul` on every product. Overflow panics
//!   here, and only here — the word lane is taken only where the wide lane
//!   cannot overflow either.
//!
//! Lane choice cannot change a result. A [`Rational`] is canonical — reduced,
//! with a positive denominator — so a value has exactly one representation,
//! and any correct computation of it returns the same `(num, den)` whichever
//! lane ran. The lanes differ in speed only.

mod rational;
mod raw;

pub use rational::{ParseRationalError, Rational};
pub use raw::RawRational;

/// Greatest common divisor of two non-negative `i128` values.
///
/// `gcd(0, x) == x` and `gcd(0, 0) == 0`. Operands below `2^64` take the
/// word lane (a `u64` Euclid step, then a `u64` binary gcd); larger ones a
/// binary gcd on `i128`.
#[must_use]
#[inline]
pub fn gcd(a: i128, b: i128) -> i128 {
    debug_assert!(a >= 0 && b >= 0, "gcd expects non-negative inputs");
    match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a), Ok(b)) => i128::from(gcd_u64(a, b)),
        _ => gcd_wide(a, b),
    }
}

/// Greatest common divisor of two `u64` values: one Euclid step, then a
/// binary gcd.
///
/// The scheduler's typical pair is a large numerator (up to `2^61`) over a
/// small denominator; the Euclid step shrinks the larger operand below the
/// smaller one at once, so the binary loop runs on small operands only.
/// `gcd_u64(0, x) == x` and `gcd_u64(0, 0) == 0`.
#[must_use]
#[inline]
pub(crate) fn gcd_u64(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = if a >= b { (a, b) } else { (b, a) };
    // Unit operands dominate the scheduling hot paths (integer-valued
    // rationals); skip the division for them.
    if b <= 1 {
        return if b == 0 { a } else { 1 };
    }
    a %= b;
    if a == 0 {
        return b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// The wide lane of [`gcd`]: binary gcd on `i128`.
fn gcd_wide(mut a: i128, mut b: i128) -> i128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    if a == 1 || b == 1 {
        return 1;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

#[cfg(test)]
mod gcd_tests {
    use super::gcd;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(1 << 40, 1 << 20), 1 << 20);
    }

    #[test]
    fn gcd_across_the_word_boundary() {
        let word = 1i128 << 64;
        // Both lanes, and one operand on each side of 2^64.
        assert_eq!(gcd(word, 1 << 20), 1 << 20);
        assert_eq!(gcd(1 << 20, word), 1 << 20);
        assert_eq!(gcd(word - 1, word), 1);
        assert_eq!(gcd(word + 2, 6), 6);
        assert_eq!(gcd(3 * word, 3 * (word - 1)), 3);
        assert_eq!(gcd(word, 0), word);
        assert_eq!(gcd(0, word), word);
        assert_eq!(gcd(u64::MAX as i128, 0), u64::MAX as i128);
        assert_eq!(gcd(0, u64::MAX as i128), u64::MAX as i128);
        assert_eq!(gcd(u64::MAX as i128, u64::MAX as i128), u64::MAX as i128);
    }

    #[test]
    fn word_lane_matches_wide_lane() {
        let samples = [
            0u64,
            1,
            2,
            3,
            6,
            35,
            1 << 20,
            (1 << 61) - 1,
            3 << 60,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    i128::from(super::gcd_u64(a, b)),
                    super::gcd_wide(i128::from(a), i128::from(b)),
                    "gcd({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn gcd_divides_both() {
        for a in 1..60i128 {
            for b in 1..60i128 {
                let g = gcd(a, b);
                assert_eq!(a % g, 0);
                assert_eq!(b % g, 0);
            }
        }
    }
}
