//! Cross-variant and cross-representation invariants.

use batch_setup_scheduling::prelude::*;

#[test]
fn relaxation_order_of_certified_makespans() {
    // More scheduling freedom never certifies a *larger* optimum: the
    // splittable certificate (a strict lower bound on OPT_split) can never
    // exceed the non-preemptive makespan (an upper bound on OPT_nonp scaled
    // by the ratio), and so on down the relaxation chain.
    for seed in 0..20 {
        let inst = batch_setup_scheduling::gen::uniform(50, 7, 4, seed);
        let split = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
        let pmtn = solve(&inst, Variant::Preemptive, Algorithm::ThreeHalves);
        let nonp = solve(&inst, Variant::NonPreemptive, Algorithm::ThreeHalves);
        // certificate_variant < OPT_variant <= makespan of any feasible
        // schedule of a *more restricted* variant.
        assert!(split.certificate <= pmtn.makespan);
        assert!(split.certificate <= nonp.makespan);
        assert!(pmtn.certificate <= nonp.makespan);
        // A non-preemptive schedule is feasible for the relaxed variants too.
        assert!(validate(nonp.schedule(), &inst, Variant::Preemptive).is_empty());
        assert!(validate(nonp.schedule(), &inst, Variant::Splittable).is_empty());
        // A preemptive schedule is feasible for the splittable variant.
        assert!(validate(pmtn.schedule(), &inst, Variant::Splittable).is_empty());
    }
}

/// The relaxation chain `split <= pmtn <= nonp` on adversarial families:
/// Δ-wide instances (processing times spanning many orders of magnitude),
/// `c ≈ m` contention (as many classes as machines), and all-expensive
/// instances (every class setup above the mean load, so every class sits in
/// `I_exp` at every probed guess). Certified lower bounds of a relaxed
/// variant never exceed upper bounds of a more restricted one, and the
/// restricted schedules remain feasible under the relaxed rules.
#[test]
fn dominance_on_wide_delta_and_contention_families() {
    let families: Vec<(String, Instance)> = (0..6u64)
        .map(|seed| {
            (
                format!("wide_delta seed {seed}"),
                batch_setup_scheduling::gen::wide_delta(70, 9, 4, 1 << 20, seed),
            )
        })
        .chain((0..6u64).map(|seed| {
            // c == m: every machine is contended by exactly one class's
            // worth of setups on average.
            (
                format!("contended seed {seed}"),
                batch_setup_scheduling::gen::contended(60, 6, 6, seed),
            )
        }))
        .chain((0..6u64).map(|seed| {
            // Every class expensive: the dual builders must wrap every
            // class over its β_i machines; the cheap path never fires.
            (
                format!("all_expensive seed {seed}"),
                batch_setup_scheduling::gen::all_expensive(50, 5, 9, seed),
            )
        }))
        .collect();
    for (name, inst) in &families {
        let split = solve(inst, Variant::Splittable, Algorithm::ThreeHalves);
        let pmtn = solve(inst, Variant::Preemptive, Algorithm::ThreeHalves);
        let nonp = solve(inst, Variant::NonPreemptive, Algorithm::ThreeHalves);
        // Dominance: lower bounds of the relaxation chain.
        assert!(split.certificate <= pmtn.makespan, "{name}");
        assert!(split.certificate <= nonp.makespan, "{name}");
        assert!(pmtn.certificate <= nonp.makespan, "{name}");
        // The accepted guesses (each <= OPT of its variant) follow the chain
        // against the upper bounds of more restricted variants.
        assert!(split.accepted <= pmtn.makespan, "{name}");
        assert!(pmtn.accepted <= nonp.makespan, "{name}");
        // Feasibility cascades down the relaxation order.
        assert!(
            validate(nonp.schedule(), inst, Variant::Preemptive).is_empty(),
            "{name}"
        );
        assert!(
            validate(nonp.schedule(), inst, Variant::Splittable).is_empty(),
            "{name}"
        );
        assert!(
            validate(pmtn.schedule(), inst, Variant::Splittable).is_empty(),
            "{name}"
        );
        // The splittable compact output passes the compact-aware validator.
        let compact = split.compact().expect("splittable is compact");
        assert!(
            batch_setup_scheduling::schedule::validate_compact(compact, inst, Variant::Splittable)
                .is_empty(),
            "{name}"
        );
    }
}

#[test]
fn solve_is_deterministic() {
    let inst = batch_setup_scheduling::gen::uniform(80, 9, 5, 3);
    for variant in Variant::ALL {
        let a = solve(&inst, variant, Algorithm::ThreeHalves);
        let b = solve(&inst, variant, Algorithm::ThreeHalves);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.schedule(), b.schedule());
    }
}

#[test]
fn compact_expansion_is_consistent() {
    for seed in 0..10 {
        let inst = batch_setup_scheduling::gen::uniform(60, 8, 24, seed);
        let sol = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
        let compact = sol.compact().expect("splittable");
        let expanded = compact.expand().expect("in range");
        assert_eq!(expanded.makespan(), sol.makespan);
        // The lazy expansion must agree with a manual one, and streaming
        // into a fresh sink must agree with both.
        assert_eq!(&expanded, sol.schedule());
        let mut streamed = Schedule::new(compact.machines());
        compact.expand_into(&mut streamed).expect("in range");
        assert_eq!(streamed, expanded);
        assert_eq!(compact.makespan(), sol.makespan);
        // Per-job assigned time matches between representations.
        for j in 0..inst.num_jobs() {
            assert_eq!(
                compact.job_assigned(j),
                Rational::from(inst.job(j).time),
                "job {j}"
            );
        }
    }
}

#[test]
fn instance_json_roundtrip_preserves_solutions() {
    let inst = batch_setup_scheduling::gen::uniform(40, 6, 3, 11);
    let json = inst.to_json();
    let back = Instance::from_json(&json).expect("roundtrip");
    for variant in Variant::ALL {
        let a = solve(&inst, variant, Algorithm::ThreeHalves);
        let b = solve(&back, variant, Algorithm::ThreeHalves);
        assert_eq!(a.makespan, b.makespan);
    }
}

#[test]
fn setup_count_never_below_class_count() {
    // Every class needs at least one setup (Lemma 1: λ_i >= α_i >= 1).
    for seed in 0..10 {
        let inst = batch_setup_scheduling::gen::uniform(50, 7, 4, seed);
        for variant in Variant::ALL {
            let sol = solve(&inst, variant, Algorithm::ThreeHalves);
            assert!(sol.schedule().num_setups() >= inst.num_classes());
        }
    }
}

#[test]
fn makespan_equals_max_machine_end() {
    let inst = batch_setup_scheduling::gen::uniform(50, 7, 4, 5);
    let sol = solve(&inst, Variant::Preemptive, Algorithm::ThreeHalves);
    let max_end = (0..inst.machines())
        .filter_map(|u| {
            sol.schedule()
                .machine_timeline(u)
                .last()
                .map(batch_setup_scheduling::schedule::Placement::end)
        })
        .max()
        .unwrap();
    assert_eq!(sol.makespan, max_end);
}

#[test]
fn single_job_instances_are_scheduled_optimally() {
    let mut b = InstanceBuilder::new(3);
    b.add_batch(4, &[9]);
    let inst = b.build().unwrap();
    for variant in Variant::ALL {
        let sol = solve(&inst, variant, Algorithm::ThreeHalves);
        // One job: OPT = s + t = 13 for every variant; splitting cannot help
        // a single job either (a piece still needs the setup first).
        assert!(
            sol.makespan <= Rational::from(13u64) * Rational::new(3, 2),
            "{variant}"
        );
        assert!(validate(sol.schedule(), &inst, variant).is_empty());
    }
}
