//! The arithmetic envelope of the solvers: instances whose setup and job
//! times reach `2^54` must solve without overflow under every variant and
//! algorithm, and their schedules must validate within the reported
//! guarantee.
//!
//! Times near `2^54` with a few machines give guesses, splits and start
//! times whose tick counts on a schedule's grid are far larger than those of
//! everyday instances. Two families:
//!
//! * `bss-gen` instances scaled by a power of two until their largest time
//!   is about `2^54` — the envelope every representation of schedule times
//!   has to keep (the exact-rational one did);
//! * instances with unscaled random times of up to 54 bits, whose
//!   `ε = 2^-40` guesses carry denominators of `2^40` and more.

use batch_setup_scheduling::prelude::*;
use batch_setup_scheduling::schedule::validate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::TwoApprox,
    Algorithm::ThreeHalves,
    Algorithm::EpsilonSearch { eps_log2: 10 },
    Algorithm::EpsilonSearch { eps_log2: 40 },
];

/// A seeded `bss-gen` instance on 3–7 machines, every time multiplied by
/// the power of two that brings the largest to `[2^53, 2^54)`.
fn scaled_instance(seed: u64) -> Instance {
    let m = 3 + (seed % 5) as usize;
    let base = match seed % 4 {
        0 => batch_setup_scheduling::gen::uniform(24, 5, m, seed),
        1 => batch_setup_scheduling::gen::zipf_classes(24, 5, m, seed),
        2 => batch_setup_scheduling::gen::expensive_setups(24, m, seed),
        _ => batch_setup_scheduling::gen::small_batches(24, m, seed),
    };
    let largest = (0..base.num_classes())
        .map(|i| base.setup(i))
        .chain((0..base.num_jobs()).map(|j| base.job(j).time))
        .max()
        .expect("non-empty instance");
    let scale = 1u64 << (54 - (64 - largest.leading_zeros()));
    let mut b = InstanceBuilder::new(m);
    for i in 0..base.num_classes() {
        let jobs: Vec<u64> = base
            .class_jobs(i)
            .iter()
            .map(|&j| base.job(j).time * scale)
            .collect();
        b.add_batch(base.setup(i) * scale, &jobs);
    }
    b.build()
        .expect("24 jobs below 2^54 stay under the load cap")
}

/// Seeded instances on 3–7 machines whose times have a random bit length
/// of 1 to 54, so every class mixes huge times with small ones.
fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let machines = 3 + (seed % 5) as usize;
    let mut b = InstanceBuilder::new(machines);
    let classes = rng.gen_range(2..=6);
    for _ in 0..classes {
        let time = |rng: &mut StdRng| -> u64 {
            let bits = rng.gen_range(1..=54);
            rng.gen_range(1..=1u64 << bits)
        };
        let setup = time(&mut rng);
        let jobs: Vec<u64> = (0..rng.gen_range(1..=5)).map(|_| time(&mut rng)).collect();
        b.add_batch(setup, &jobs);
    }
    b.build()
        .expect("at most 36 times below 2^54 stay under the load cap")
}

/// Solves `inst` under every variant and algorithm: each solve returns
/// `Ok`, its schedule's makespan is the reported one and within the
/// reported guarantee. Returns the solutions for the validation checks.
fn solve_all(seed: u64, inst: &Instance) -> Vec<(String, Variant, Algorithm, Solution)> {
    let mut out = Vec::new();
    for variant in Variant::ALL {
        for algo in ALGORITHMS {
            let label = format!("seed {seed}, {variant}, {algo:?}");
            let sol = solve_with_config(inst, variant, algo, SolveConfig::default())
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(sol.schedule().makespan(), sol.makespan, "{label}");
            assert!(
                within_ratio(sol.makespan, sol.ratio_bound, sol.accepted),
                "{label}: {} > {} * {}",
                sol.makespan,
                sol.ratio_bound,
                sol.accepted
            );
            out.push((label, variant, algo, sol));
        }
    }
    out
}

/// `makespan <= ratio · accepted`, exactly: at these magnitudes the
/// product `ratio · accepted` leaves `i128`, so the check cross-multiplies
/// into wide integers (`u·q·s <= p·r·v` for `u/v`, `p/q`, `r/s`).
fn within_ratio(makespan: Rational, ratio: Rational, accepted: Rational) -> bool {
    let parts = |x: Rational| {
        assert!(x.is_positive());
        (x.numer() as u128, x.denom() as u128)
    };
    let ((u, v), (p, q), (r, s)) = (parts(makespan), parts(ratio), parts(accepted));
    wide_product(&[u, q, s]) <= wide_product(&[p, r, v])
}

/// The product of `factors` as 32-bit limbs, most significant first (so
/// equal-length vectors compare as numbers).
fn wide_product(factors: &[u128]) -> Vec<u32> {
    let mut limbs = vec![0u32; 16];
    limbs[0] = 1; // little-endian while multiplying
    for &f in factors {
        let f_limbs: Vec<u64> = (0..4)
            .map(|k| ((f >> (32 * k)) & 0xffff_ffff) as u64)
            .collect();
        let mut out = [0u64; 16 + 4];
        for (i, &a) in limbs.iter().enumerate() {
            for (j, &b) in f_limbs.iter().enumerate() {
                out[i + j] += u64::from(a) * b;
                // Propagate eagerly so no cell overflows.
                let mut k = i + j;
                while out[k] > 0xffff_ffff {
                    out[k + 1] += out[k] >> 32;
                    out[k] &= 0xffff_ffff;
                    k += 1;
                }
            }
        }
        assert!(
            out[16..].iter().all(|&x| x == 0),
            "product exceeds 512 bits"
        );
        limbs = out[..16].iter().map(|&x| x as u32).collect();
    }
    limbs.reverse();
    limbs
}

#[test]
fn wide_product_orders_like_numbers() {
    let big = 1u128 << 100;
    assert!(wide_product(&[big, big, 3]) < wide_product(&[big, big, 4]));
    assert!(wide_product(&[big + 1, 1, 1]) > wide_product(&[big, 1, 1]));
    assert_eq!(wide_product(&[6, 7, 1]), wide_product(&[42, 1, 1]));
    assert!(within_ratio(
        Rational::new(3, 1),
        Rational::new(3, 2),
        Rational::from(2u64)
    ));
    assert!(!within_ratio(
        Rational::new(31, 10),
        Rational::new(3, 2),
        Rational::from(2u64)
    ));
}

#[test]
fn scaled_instances_solve_and_validate_under_every_variant_and_algorithm() {
    let mut solved = 0;
    for seed in 0..24 {
        let inst = scaled_instance(seed);
        for (label, variant, _, sol) in solve_all(seed, &inst) {
            let violations = validate(sol.schedule(), &inst, variant);
            assert!(violations.is_empty(), "{label}: {violations:?}");
            solved += 1;
        }
    }
    assert_eq!(solved, 288);
}

/// Unscaled 54-bit times: every solve succeeds and meets its guarantee.
/// The validator checks every schedule whose times fit the JSON wire
/// format (`den <= 2^32`, `|num| <= 2^94`); the `ε = 2^-40` splittable
/// schedules of some instances do not — their guesses have denominators
/// past `2^32` — and for those it reports `TimeOverflow`, which this test
/// pins so that a wider validator shows up here.
#[test]
fn random_huge_times_solve_under_every_variant_and_algorithm() {
    let mut validated = 0;
    let mut beyond_wire = 0;
    for seed in 0..24 {
        let inst = random_instance(seed);
        for (label, variant, algo, sol) in solve_all(seed, &inst) {
            let on_wire = sol.schedule().placements().all(|p| {
                [p.start, p.len].iter().all(|v| {
                    v.denom() <= Rational::MAX_WIRE_DEN && v.numer().abs() <= Rational::MAX_WIRE_NUM
                })
            });
            let violations = validate(sol.schedule(), &inst, variant);
            if on_wire {
                assert!(violations.is_empty(), "{label}: {violations:?}");
                validated += 1;
            } else {
                assert_eq!(algo, Algorithm::EpsilonSearch { eps_log2: 40 }, "{label}");
                assert_eq!(violations, vec![Violation::TimeOverflow], "{label}");
                beyond_wire += 1;
            }
        }
    }
    assert_eq!(validated + beyond_wire, 288);
    // One solve (seed 5, ε = 2^-40, splittable) has denominators of 2^41.
    assert!(validated >= 287, "{validated} of 288 validated");
}
