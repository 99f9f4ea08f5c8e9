//! Properties of the compact-first pipeline: streaming expansion is
//! bit-identical to the old expand-then-absorb path, and the compact-aware
//! validator agrees with the explicit walk — on acceptance and on every
//! `Violation` family.

use batch_setup_scheduling::prelude::*;
use batch_setup_scheduling::schedule::{
    validate_compact, CompactSchedule, ConfigItem, MachineConfig, PlacementSink,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn r(v: i128) -> Rational {
    Rational::from_int(v)
}

/// A solver-produced compact schedule plus its instance.
fn solved_compact(seed: u64) -> (Instance, CompactSchedule) {
    let inst = batch_setup_scheduling::gen::uniform(50, 7, 6, seed);
    let sol = solve(&inst, Variant::Splittable, Algorithm::ThreeHalves);
    let compact = sol.compact().expect("splittable is compact").clone();
    (inst, compact)
}

/// `expand_into` must produce exactly what the historical
/// `base.absorb(cs.expand())` double-copy produced — same placements, same
/// order — for solver outputs and for hand-crafted groups, over a non-empty
/// base schedule.
#[test]
fn expand_into_is_bit_identical_to_expand_then_absorb() {
    for seed in 0..25 {
        let (_, compact) = solved_compact(seed);

        // A non-trivial base: placements that were already in the sink.
        let mut base = Schedule::new(compact.machines());
        base.push_setup(0, r(0), r(1), 0);
        base.push_piece(0, r(1), r(2), 0, 0);

        // Old path: materialize, then copy.
        let mut old = base.clone();
        old.absorb(compact.expand().expect("in range"));

        // New path: stream once.
        let mut new = base.clone();
        compact.expand_into(&mut new).expect("in range");

        assert_eq!(old, new, "seed {seed}");
        // And into a bare placement buffer, matching the schedule's tail.
        let mut buf = Vec::new();
        compact.expand_into(&mut buf).expect("in range");
        assert!(new.placements().skip(base.placements().len()).eq(buf));
    }
}

/// The compact validator accepts exactly when the explicit walk accepts the
/// expansion — across all variants, on solver outputs of both compact-native
/// algorithms, including the all-expensive adversarial family (every class
/// wrapped over its β_i machines; the cheap path never fires).
#[test]
fn validators_agree_on_acceptance() {
    for seed in 0..20 {
        let inst = if seed % 2 == 0 {
            batch_setup_scheduling::gen::uniform(60, 8, 10, seed)
        } else {
            batch_setup_scheduling::gen::all_expensive(60, 4, 10, seed)
        };
        for algo in [Algorithm::ThreeHalves, Algorithm::TwoApprox] {
            let sol = solve(&inst, Variant::Splittable, algo);
            let compact = sol.compact().expect("splittable is compact");
            let expanded = compact.expand().expect("in range");
            for variant in Variant::ALL {
                let compact_ok = validate_compact(compact, &inst, variant).is_empty();
                let explicit_ok = validate(&expanded, &inst, variant).is_empty();
                assert_eq!(compact_ok, explicit_ok, "seed {seed} {algo:?} {variant}");
            }
        }
    }
}

/// Discriminant-level family of a violation, for set comparison.
fn family(v: &Violation) -> &'static str {
    match v {
        Violation::MachineOutOfRange { .. } => "MachineOutOfRange",
        Violation::UnknownJob { .. } => "UnknownJob",
        Violation::UnknownClass { .. } => "UnknownClass",
        Violation::TimeOverflow => "TimeOverflow",
        Violation::NegativeStart { .. } => "NegativeStart",
        Violation::Overlap { .. } => "Overlap",
        Violation::MissingSetup { .. } => "MissingSetup",
        Violation::WrongSetupLength { .. } => "WrongSetupLength",
        Violation::WrongPieceClass { .. } => "WrongPieceClass",
        Violation::WrongJobTotal { .. } => "WrongJobTotal",
        Violation::JobSplit { .. } => "JobSplit",
        Violation::JobParallel { .. } => "JobParallel",
    }
}

fn families(vs: &[Violation]) -> std::collections::BTreeSet<&'static str> {
    vs.iter().map(family).collect()
}

/// Every violation family a mutation injects must be reported by *both*
/// validators (the compact one directly on the groups, the explicit one on
/// the expansion), and neither may report families the other misses.
#[test]
fn validators_agree_on_every_violation_family() {
    let mut rng = StdRng::seed_from_u64(7);
    // Mutations keyed by the family they are guaranteed to inject. Each
    // returns the variant to validate under.
    type Mutation = fn(&Instance, &mut CompactSchedule, &mut StdRng) -> Variant;
    let mutations: &[(&str, Mutation)] = &[
        ("UnknownJob", |_, cs, _| {
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![ConfigItem {
                        start: r(10_000),
                        len: r(1),
                        kind: ItemKind::Piece {
                            job: 99_999,
                            class: 0,
                        },
                    }],
                },
            );
            Variant::Splittable
        }),
        ("UnknownClass", |_, cs, _| {
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![ConfigItem {
                        start: r(10_000),
                        len: r(1),
                        kind: ItemKind::Setup(99_999),
                    }],
                },
            );
            Variant::Splittable
        }),
        ("NegativeStart", |inst, cs, _| {
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![ConfigItem {
                        start: r(-5),
                        len: Rational::from(inst.setup(0)),
                        kind: ItemKind::Setup(0),
                    }],
                },
            );
            Variant::Splittable
        }),
        ("WrongSetupLength", |inst, cs, _| {
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![ConfigItem {
                        start: r(10_000),
                        len: Rational::from(inst.setup(0) + 1),
                        kind: ItemKind::Setup(0),
                    }],
                },
            );
            Variant::Splittable
        }),
        ("WrongPieceClass", |inst, cs, _| {
            let job = 0;
            let wrong = (inst.job(job).class + 1) % inst.num_classes();
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![ConfigItem {
                        start: r(10_000),
                        len: r(1),
                        kind: ItemKind::Piece { job, class: wrong },
                    }],
                },
            );
            Variant::Splittable
        }),
        ("WrongJobTotal", |inst, cs, _| {
            // Extra covered piece of job 0, far in the future: overlap-free,
            // setup-covered, but the job total is now wrong.
            let class = inst.job(0).class;
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![
                        ConfigItem {
                            start: r(10_000),
                            len: Rational::from(inst.setup(class)),
                            kind: ItemKind::Setup(class),
                        },
                        ConfigItem {
                            start: r(10_000) + inst.setup(class),
                            len: r(1),
                            kind: ItemKind::Piece { job: 0, class },
                        },
                    ],
                },
            );
            Variant::Splittable
        }),
        ("Overlap", |_, cs, rng| {
            // Duplicate a random group onto the same machines: every item
            // collides with itself.
            let g = cs
                .groups()
                .nth(rng.gen_range(0..cs.groups().len()))
                .expect("in range")
                .to_group();
            cs.push_group(g.first_machine, g.count, g.config);
            Variant::Splittable
        }),
        ("MissingSetup", |inst, cs, _| {
            // A naked piece on an otherwise empty far machine region… there
            // is none, so reuse machine 0 far in the future: the machine was
            // configured earlier, but for class `c-1` pick a class that
            // differs from machine 0's last configuration by adding a
            // *different-class* naked piece after a foreign setup.
            let class = inst.job(0).class;
            let other = (class + 1) % inst.num_classes();
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![
                        ConfigItem {
                            start: r(20_000),
                            len: Rational::from(inst.setup(other)),
                            kind: ItemKind::Setup(other),
                        },
                        ConfigItem {
                            start: r(20_000) + inst.setup(other),
                            len: r(1),
                            kind: ItemKind::Piece { job: 0, class },
                        },
                    ],
                },
            );
            Variant::Splittable
        }),
        ("MachineOutOfRange", |inst, cs, _| {
            cs.push_group(
                inst.machines(),
                1,
                MachineConfig {
                    items: vec![ConfigItem {
                        start: r(0),
                        len: Rational::from(inst.setup(0)),
                        kind: ItemKind::Setup(0),
                    }],
                },
            );
            Variant::Splittable
        }),
        ("TimeOverflow", |_, cs, _| {
            cs.push_group(
                0,
                1,
                MachineConfig {
                    items: vec![ConfigItem {
                        start: Rational::new(1i128 << 94, 1),
                        len: r(1),
                        kind: ItemKind::Setup(0),
                    }],
                },
            );
            Variant::Splittable
        }),
        ("JobSplit", |_, _, _| Variant::NonPreemptive),
        ("JobParallel", |_, cs, _| {
            // Duplicate a piece-carrying group in place: every duplicated
            // piece runs in the same time window as its original, which the
            // preemptive rule must flag (both validators also report the
            // overlap and the broken totals — family sets still agree).
            let g = cs
                .groups()
                .find(|g| g.items().any(|it| !it.kind.is_setup()))
                .expect("solver output has pieces")
                .to_group();
            cs.push_group(g.first_machine, g.count, g.config);
            Variant::Preemptive
        }),
    ];

    for (name, mutate) in mutations {
        let mut checked = 0;
        for seed in 0..12 {
            let (inst, mut cs) = solved_compact(seed);
            if inst.num_classes() < 2 {
                continue;
            }
            let variant = mutate(&inst, &mut cs, &mut rng);
            if *name == "JobSplit" {
                // Splittable outputs routinely split jobs; the mutation is
                // the *variant*, not the schedule.
                let has_split = {
                    let mut counts = vec![0u32; inst.num_jobs()];
                    for g in cs.groups() {
                        for it in g.items() {
                            if let ItemKind::Piece { job, .. } = it.kind {
                                counts[job] += g.count as u32;
                            }
                        }
                    }
                    counts.iter().any(|&c| c > 1)
                };
                if !has_split {
                    continue;
                }
            }
            let compact_vs = validate_compact(&cs, &inst, variant);
            assert!(
                families(&compact_vs).contains(name),
                "{name} (seed {seed}): compact validator missed it: {compact_vs:?}"
            );
            match cs.expand() {
                Ok(expanded) => {
                    let explicit_vs = validate(&expanded, &inst, variant);
                    assert!(
                        families(&explicit_vs).contains(name),
                        "{name} (seed {seed}): explicit validator missed it: {explicit_vs:?}"
                    );
                    // Family-level agreement in both directions.
                    assert_eq!(
                        families(&compact_vs),
                        families(&explicit_vs),
                        "{name} (seed {seed}): family sets diverge"
                    );
                }
                Err(e) => {
                    // Expansion itself reports the same family (out-of-range
                    // groups cannot be materialized).
                    assert_eq!(family(&e), *name, "{name} (seed {seed})");
                }
            }
            checked += 1;
        }
        assert!(
            checked >= 6,
            "{name}: mutation rarely applicable ({checked})"
        );
    }
}

/// A `PlacementSink` is anything — prove the trait composes by computing
/// stats on the fly without materializing placements.
#[test]
fn custom_sinks_compose() {
    struct LoadCounter {
        total: Rational,
        placements: usize,
    }
    impl PlacementSink for LoadCounter {
        fn place(&mut self, p: Placement) {
            self.total += p.len;
            self.placements += 1;
        }
    }
    let (_, compact) = solved_compact(3);
    let mut counter = LoadCounter {
        total: Rational::ZERO,
        placements: 0,
    };
    compact.expand_into(&mut counter).expect("in range");
    let expanded = compact.expand().expect("in range");
    assert_eq!(counter.placements, expanded.placements().len());
    let expected: Rational = expanded
        .placements()
        .map(|p| p.len)
        .fold(Rational::ZERO, |a, b| a + b);
    assert_eq!(counter.total, expected);
}

mod representation {
    //! The tick-grid storage seen through solver output: over `bss-gen`
    //! families, every variant and algorithm, decoding is exact and every
    //! derived figure agrees with the decoded values.

    use batch_setup_scheduling::prelude::*;
    use proptest::prelude::*;

    fn family(kind: usize, n: usize, m: usize, seed: u64) -> Instance {
        match kind {
            0 => batch_setup_scheduling::gen::uniform(n, (n / 20).max(2), m, seed),
            1 => batch_setup_scheduling::gen::zipf_classes(n, (n / 15).max(2), m, seed),
            2 => batch_setup_scheduling::gen::expensive_setups(n, m, seed),
            3 => batch_setup_scheduling::gen::small_batches(n, m, seed),
            // All-expensive needs fewer classes than machines.
            _ => batch_setup_scheduling::gen::all_expensive(n, (m - 1).clamp(1, 8), m, seed),
        }
    }

    const ALGORITHMS: [Algorithm; 3] = [
        Algorithm::TwoApprox,
        Algorithm::ThreeHalves,
        Algorithm::EpsilonSearch { eps_log2: 10 },
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn solver_schedules_decode_exactly(
            kind in 0usize..5,
            n in 10usize..2000,
            m in 2usize..40,
            seed in 0u64..1000,
        ) {
            let inst = family(kind, n, m, seed);
            for variant in Variant::ALL {
                for algo in ALGORITHMS {
                    let sol = solve(&inst, variant, algo);
                    let s = sol.schedule();
                    // Encode, decode, re-encode: identical bytes, equal
                    // schedules (whatever grid the decoder picked).
                    let json = s.to_json();
                    let back = Schedule::from_json(&json).expect("own output decodes");
                    prop_assert_eq!(&back, s);
                    prop_assert_eq!(back.to_json(), json);
                    // The O(1) makespan is the largest decoded end.
                    let largest = s
                        .placements()
                        .map(|p| p.end())
                        .max()
                        .unwrap_or(Rational::ZERO);
                    prop_assert_eq!(s.makespan(), largest);
                    prop_assert_eq!(sol.makespan, largest);
                    // A compact schedule expands to its decoded group items.
                    if let Some(cs) = sol.compact() {
                        let mut decoded = Vec::new();
                        for g in cs.groups() {
                            for k in 0..g.count {
                                for item in g.items().filter(|it| it.len.is_positive()) {
                                    decoded.push(Placement::new(
                                        g.first_machine + k,
                                        item.start,
                                        item.len,
                                        item.kind,
                                    ));
                                }
                            }
                        }
                        let expanded = cs.expand().expect("solver output is in range");
                        prop_assert!(expanded.placements().eq(decoded));
                        prop_assert_eq!(cs.makespan(), sol.makespan);
                    }
                }
            }
        }
    }
}
