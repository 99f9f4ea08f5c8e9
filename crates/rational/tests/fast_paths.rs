//! Property tests pinning the arithmetic fast paths to a naive,
//! always-fully-reduced reference implementation.
//!
//! `Rational` now short-circuits several hot cases (equal denominators,
//! integer operands, cross-reduced multiplication without a final gcd) and
//! `RawRational` defers normalization entirely; these suites assert that
//! every such shortcut agrees with textbook reduced-fraction arithmetic
//! across the JSON wire-format bounds (`|num| <= 2^94`, `den <= 2^32`),
//! including the `i128` headroom edges where cross-multiplication is within
//! a factor of two of overflow, and across the boundary between the word
//! lane (operands that fit in 64 bits) and the wide `i128` lane.

use std::cmp::Ordering;

use bss_rational::{gcd, Rational, RawRational};
use proptest::prelude::*;

/// Textbook Euclid gcd on `u128`, independent of the crate's own lanes.
fn euclid(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Textbook reference: reduce by gcd after every operation, compare by
/// cross-multiplication. Deliberately naive — no fast paths to share bugs
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reference {
    num: i128,
    den: i128,
}

impl Reference {
    fn new(num: i128, den: i128) -> Self {
        assert!(den != 0);
        let (num, den) = if den < 0 { (-num, -den) } else { (num, den) };
        let g = euclid(num.unsigned_abs(), den as u128).max(1) as i128;
        Reference {
            num: num / g,
            den: den / g,
        }
    }

    fn of(r: Rational) -> Self {
        Reference::new(r.numer(), r.denom())
    }

    /// The sum, or `None` where a naive intermediate leaves `i128` (an
    /// `i128::MIN` part counts as leaving it: it has no magnitude there).
    fn checked_add(self, rhs: Reference) -> Option<Reference> {
        let num = self
            .num
            .checked_mul(rhs.den)?
            .checked_add(rhs.num.checked_mul(self.den)?)?;
        Reference::in_range(num, self.den.checked_mul(rhs.den)?)
    }

    /// The product, or `None` where a naive intermediate leaves `i128`.
    fn checked_mul(self, rhs: Reference) -> Option<Reference> {
        Reference::in_range(
            self.num.checked_mul(rhs.num)?,
            self.den.checked_mul(rhs.den)?,
        )
    }

    fn in_range(num: i128, den: i128) -> Option<Reference> {
        (num != i128::MIN && den != i128::MIN).then(|| Reference::new(num, den))
    }

    /// The ordering, or `None` where a cross product leaves `i128`.
    fn checked_cmp(self, rhs: Reference) -> Option<Ordering> {
        Some(
            self.num
                .checked_mul(rhs.den)?
                .cmp(&rhs.num.checked_mul(self.den)?),
        )
    }

    fn add(self, rhs: Reference) -> Reference {
        self.checked_add(rhs).expect("reference overflow")
    }

    fn mul(self, rhs: Reference) -> Reference {
        self.checked_mul(rhs).expect("reference overflow")
    }

    fn cmp(self, rhs: Reference) -> Ordering {
        self.checked_cmp(rhs).expect("reference overflow")
    }

    fn matches(self, r: Rational) -> bool {
        self.num == r.numer() && self.den == r.denom()
    }
}

/// Values safe for reference addition/multiplication without overflowing the
/// naive (un-cross-reduced) intermediates: the system's own emission range.
fn arb_moderate() -> impl Strategy<Value = Rational> {
    ((-(1i128 << 60)..(1i128 << 60)), 1i128..(1i128 << 32)).prop_map(|(n, d)| Rational::new(n, d))
}

/// Values with smooth (`2^a 3^b 5^c 7^d`) denominators, mirroring how the
/// scheduler's intermediate values all share denominators derived from one
/// guess `T`: any lcm over these stays below `2^20`, so long accumulations
/// remain exactly representable.
fn arb_smooth() -> impl Strategy<Value = Rational> {
    (
        (-(1i128 << 60)..(1i128 << 60)),
        0u32..7,
        0u32..5,
        0u32..3,
        0u32..2,
    )
        .prop_map(|(n, a, b, c, d)| {
            let den = (1i128 << a) * 3i128.pow(b) * 5i128.pow(c) * 7i128.pow(d);
            Rational::new(n, den)
        })
}

/// A magnitude at or near the lane boundary: small, just around `2^31`,
/// `2^32`, `2^62`, `2^63` (the edge of `i64`) and `2^64` (the edge of
/// `u64`), or just above `2^64`.
fn arb_edge_magnitude() -> impl Strategy<Value = i128> {
    (0u32..8, -3i128..4, 1i128..1_000).prop_map(|(anchor, offset, small)| match anchor {
        0 => small,
        1 => (1 << 31) + offset,
        2 => (1 << 32) + offset,
        3 => (1 << 62) + offset,
        4 => (1 << 63) + offset,
        5 => (1 << 64) + offset,
        6 => (1 << 64) + small,
        _ => (1 << 65) + offset,
    })
}

/// Values straddling the lane boundary, `i64::MIN` included: numerator and
/// denominator each drawn from [`arb_edge_magnitude`].
fn arb_edge() -> impl Strategy<Value = Rational> {
    (arb_edge_magnitude(), arb_edge_magnitude(), 0u32..3).prop_map(|(n, d, sign)| match sign {
        0 => Rational::new(n, d),
        1 => Rational::new(-n, d),
        _ => Rational::new(i128::from(i64::MIN), d),
    })
}

/// Values spanning the full wire-format bounds; only comparisons are exact
/// up here (cross products stay below `2^126`).
fn arb_wire() -> impl Strategy<Value = Rational> {
    (
        (-Rational::MAX_WIRE_NUM..=Rational::MAX_WIRE_NUM),
        1i128..=Rational::MAX_WIRE_DEN,
    )
        .prop_map(|(n, d)| Rational::new(n, d))
}

proptest! {
    #[test]
    fn add_matches_reference(a in arb_moderate(), b in arb_moderate()) {
        let expected = Reference::of(a).add(Reference::of(b));
        prop_assert!(expected.matches(a + b));
    }

    #[test]
    fn integer_fast_paths_match_reference(a in arb_moderate(), k in -(1i128 << 60)..(1i128 << 60)) {
        // Exercises the den == 1 shortcuts on both sides.
        let int = Rational::from_int(k);
        let expected = Reference::of(a).add(Reference::new(k, 1));
        prop_assert!(expected.matches(a + int));
        prop_assert!(expected.matches(int + a));
        prop_assert!(Reference::of(a).mul(Reference::new(k, 1)).matches(a * int));
    }

    #[test]
    fn mul_matches_reference(
        a in ((-(1i128 << 40)..(1i128 << 40)), 1i128..(1i128 << 20)).prop_map(|(n, d)| Rational::new(n, d)),
        b in ((-(1i128 << 40)..(1i128 << 40)), 1i128..(1i128 << 20)).prop_map(|(n, d)| Rational::new(n, d)),
    ) {
        let expected = Reference::of(a).mul(Reference::of(b));
        prop_assert!(expected.matches(a * b));
    }

    #[test]
    fn cmp_matches_reference_across_wire_bounds(a in arb_wire(), b in arb_wire()) {
        prop_assert_eq!(a.cmp(&b), Reference::of(a).cmp(Reference::of(b)));
        // Antisymmetry through the fast paths.
        prop_assert_eq!(b.cmp(&a), Reference::of(a).cmp(Reference::of(b)).reverse());
    }

    #[test]
    fn equal_denominator_cmp_fast_path(n1 in -(1i128 << 90)..(1i128 << 90), n2 in -(1i128 << 90)..(1i128 << 90), d in 1i128..(1i128 << 31)) {
        let (a, b) = (Rational::new(n1, d), Rational::new(n2, d));
        prop_assert_eq!(a.cmp(&b), Reference::of(a).cmp(Reference::of(b)));
    }

    #[test]
    fn new_matches_reference_at_lane_edges(
        n in arb_edge_magnitude(),
        d in arb_edge_magnitude(),
        negative in 0u32..2,
    ) {
        let n = if negative == 1 { -n } else { n };
        let expected = Reference::new(n, d);
        prop_assert!(expected.matches(Rational::new(n, d)));
        prop_assert!(Reference::new(-n, -d).matches(Rational::new(-n, -d)));
    }

    #[test]
    fn gcd_matches_euclid_at_lane_edges(a in arb_edge_magnitude(), b in arb_edge_magnitude()) {
        let expected = euclid(a as u128, b as u128) as i128;
        prop_assert_eq!(gcd(a, b), expected);
        prop_assert_eq!(gcd(b, a), expected);
        prop_assert_eq!(gcd(a, 0), a);
        prop_assert_eq!(gcd(0, b), b);
    }

    #[test]
    fn arithmetic_matches_reference_at_lane_edges(a in arb_edge(), b in arb_edge()) {
        // Wherever the naive reference stays inside `i128`, the lanes (whose
        // intermediates are never larger) must agree with it exactly.
        let (ra, rb) = (Reference::of(a), Reference::of(b));
        if let Some(expected) = ra.checked_add(rb) {
            prop_assert!(expected.matches(a + b));
        }
        if let Some(expected) = ra.checked_add(Reference::new(-rb.num, rb.den)) {
            prop_assert!(expected.matches(a - b));
        }
        if let Some(expected) = ra.checked_mul(rb) {
            prop_assert!(expected.matches(a * b));
        }
        if let Some(expected) = ra.checked_mul(Reference::new(rb.den, rb.num)) {
            prop_assert!(expected.matches(a / b));
        }
        if let Some(expected) = ra.checked_cmp(rb) {
            prop_assert_eq!(a.cmp(&b), expected);
            prop_assert_eq!(b.cmp(&a), expected.reverse());
        }
        if let Some(den) = ra.den.checked_mul(2) {
            prop_assert!(Reference::new(ra.num, den).matches(a.half()));
        }
    }

    #[test]
    fn integer_plus_fraction_at_lane_edges(a in arb_edge(), k in arb_edge_magnitude(), negative in 0u32..2) {
        let k = if negative == 1 { -k } else { k };
        let int = Rational::from_int(k);
        if let Some(expected) = Reference::of(a).checked_add(Reference::new(k, 1)) {
            prop_assert!(expected.matches(a + int));
            prop_assert!(expected.matches(int + a));
        }
    }

    #[test]
    fn half_matches_division(a in arb_moderate()) {
        prop_assert_eq!(a.half(), a / Rational::from_int(2));
        prop_assert_eq!(a.half() + a.half(), a);
    }

    #[test]
    fn recip_matches_reference(a in arb_moderate()) {
        prop_assume!(!a.is_zero());
        let r = a.recip();
        prop_assert!(r.denom() > 0);
        prop_assert_eq!(a * r, Rational::ONE);
    }

    #[test]
    fn raw_accumulation_matches_reduced_sum(terms in proptest::collection::vec(arb_smooth(), 1..24)) {
        let mut raw = RawRational::ZERO;
        let mut reference = Rational::ZERO;
        for t in &terms {
            raw += *t;
            reference += *t;
        }
        prop_assert_eq!(raw.reduce(), reference);
        prop_assert_eq!(raw.cmp_rational(reference), Ordering::Equal);
        prop_assert_eq!(raw.cmp_rational(reference + Rational::ONE), Ordering::Less);
        prop_assert_eq!(raw.cmp_rational(reference - Rational::ONE), Ordering::Greater);
    }

    #[test]
    fn raw_mixed_add_sub_matches(terms in proptest::collection::vec((arb_smooth(), 0u32..2), 1..24)) {
        let mut raw = RawRational::ZERO;
        let mut reference = Rational::ZERO;
        for (t, subtract) in &terms {
            if *subtract == 1 {
                raw -= *t;
                reference -= *t;
            } else {
                raw += *t;
                reference += *t;
            }
        }
        prop_assert_eq!(raw.reduce(), reference);
    }
}

#[test]
fn lane_boundary_values() {
    let word = 1i128 << 64;
    let min = i128::from(i64::MIN);
    // `i64::MIN` reduces in the word lane (its magnitude is 2^63).
    assert_eq!(Rational::new(min, 4), Rational::new(-(1 << 61), 1));
    assert_eq!(Rational::new(min, 3).denom(), 3);
    assert_eq!(Rational::new(-min, -6), Rational::new(-(1 << 62), 3));
    // Just above 2^64 falls to the wide lane and still reduces.
    assert_eq!(Rational::new(word + 2, 6), Rational::new((word + 2) / 2, 3));
    assert_eq!(Rational::new(6, word + 2), Rational::new(3, (word + 2) / 2));
    assert_eq!(Rational::new(word, word * 3), Rational::new(1, 3));
    // Mixed lanes in one operation.
    let a = Rational::new(min, 7);
    let b = Rational::new(word + 1, 3);
    assert_eq!(a.cmp(&b), Ordering::Less);
    assert_eq!(b.cmp(&a), Ordering::Greater);
    assert_eq!(a + b, Rational::new(3 * min + 7 * (word + 1), 21));
    assert_eq!(a.half() * b, Rational::new(min / 2 * (word + 1), 21));
    assert_eq!(b / a, Rational::new((word + 1) * 7, min * 3));
    assert_eq!(a.half(), Rational::new(min / 2, 7));
}

#[test]
fn cmp_at_i128_headroom_edges() {
    // Cross products here are within a factor of four of i128::MAX; the
    // fast-path comparisons must stay exact.
    let top = Rational::new(Rational::MAX_WIRE_NUM, Rational::MAX_WIRE_DEN);
    let just_below = Rational::new(Rational::MAX_WIRE_NUM - 1, Rational::MAX_WIRE_DEN);
    assert_eq!(top.cmp(&just_below), Ordering::Greater);
    assert_eq!(just_below.cmp(&top), Ordering::Less);
    assert_eq!(top.cmp(&top), Ordering::Equal);

    let neg_top = Rational::new(-Rational::MAX_WIRE_NUM, Rational::MAX_WIRE_DEN);
    assert_eq!(neg_top.cmp(&top), Ordering::Less);
    assert_eq!(neg_top.cmp(&neg_top), Ordering::Equal);

    // Integer vs extreme fraction exercises the den == 1 side of cmp.
    let int = Rational::from_int((1i128 << 62) + 1);
    assert_eq!(int.cmp(&top), Ordering::Greater);
    assert_eq!(top.cmp(&int), Ordering::Less);
}

#[test]
fn raw_normalize_retry_at_headroom_edge() {
    // Repeatedly adding a term with a large prime-ish denominator drives the
    // deferred representation toward the i128 edge and forces the
    // normalize-and-retry path; exactness must survive it.
    let term = Rational::new((1i128 << 61) + 1, (1i128 << 31) - 1);
    let mut raw = RawRational::ZERO;
    let mut reference = Rational::ZERO;
    for _ in 0..12 {
        raw += term;
        reference += term;
        assert_eq!(raw.reduce(), reference);
    }
    assert_eq!(raw.cmp_rational(reference), Ordering::Equal);
}
