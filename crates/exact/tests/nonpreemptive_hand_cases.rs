//! Hand-computable non-preemptive optima, and the oracle's optimum against
//! the instance lower bounds on the `tiny` family.

use bss_exact::{solve_bss, ExactConfig};
use bss_instance::{Instance, InstanceBuilder, LowerBounds, Variant};
use bss_rational::Rational;

/// The closed non-preemptive optimum, or `None` when the oracle refuses the
/// instance or does not close it.
fn opt(inst: &Instance) -> Option<Rational> {
    solve_bss(inst, Variant::NonPreemptive, &ExactConfig::default())
        .ok()?
        .opt()
}

#[test]
fn single_machine_is_total_load() {
    let mut b = InstanceBuilder::new(1);
    b.add_batch(3, &[4, 5]);
    b.add_batch(2, &[6]);
    let inst = b.build().unwrap();
    assert_eq!(opt(&inst), Some(Rational::from(20u64)));
}

#[test]
fn two_machines_split_classes() {
    // Two identical classes: one per machine.
    let mut b = InstanceBuilder::new(2);
    b.add_batch(2, &[5]);
    b.add_batch(2, &[5]);
    let inst = b.build().unwrap();
    assert_eq!(opt(&inst), Some(Rational::from(7u64)));
}

#[test]
fn setup_sharing_beats_splitting() {
    // One class with two jobs; splitting pays the setup twice.
    let mut b = InstanceBuilder::new(2);
    b.add_batch(10, &[2, 2]);
    let inst = b.build().unwrap();
    // Together: 14 on one machine; split: max(12, 12) = 12.
    assert_eq!(opt(&inst), Some(Rational::from(12u64)));
}

#[test]
fn setup_sharing_wins_when_setups_huge() {
    let mut b = InstanceBuilder::new(2);
    b.add_batch(100, &[2, 2]);
    let inst = b.build().unwrap();
    // Split: 102 each; together: 104. Split still wins (102).
    assert_eq!(opt(&inst), Some(Rational::from(102u64)));
}

#[test]
fn respects_limits() {
    let inst = bss_gen::uniform(100, 10, 4, 0);
    assert_eq!(opt(&inst), None);
}

#[test]
fn opt_at_least_lower_bounds() {
    for seed in 0..40 {
        let inst = bss_gen::tiny(seed);
        let opt = opt(&inst).expect("tiny");
        let lb = LowerBounds::of(&inst);
        assert!(opt >= lb.avg_load, "seed {seed}");
        assert!(opt >= Rational::from(lb.setup_plus_job), "seed {seed}");
        assert!(opt > Rational::from(lb.smax), "seed {seed}");
        assert!(
            opt <= lb.tmin(Variant::NonPreemptive) * 2u64,
            "seed {seed}: 2-approx window"
        );
    }
}
