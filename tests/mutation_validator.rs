//! Failure-injection tests: the validators must catch every class of
//! corruption we can inflict on a known-good schedule.
//!
//! This is the safety net under every other test in the repository — if the
//! validators were lenient, the "all algorithms validate" suites would prove
//! nothing.

use batch_setup_scheduling::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn solved(seed: u64) -> (Instance, Schedule, Variant) {
    let variants = Variant::ALL;
    let inst = batch_setup_scheduling::gen::uniform(40, 6, 4, seed);
    let variant = variants[(seed % 3) as usize];
    let sol = solve(&inst, variant, Algorithm::ThreeHalves);
    (inst, sol.into_schedule(), variant)
}

#[test]
fn deleting_a_piece_is_caught() {
    for seed in 0..20 {
        let (inst, mut s, variant) = solved(seed);
        let victim = s
            .placements()
            .find(|p| !p.kind.is_setup())
            .expect("has pieces");
        s.retain(|p| *p != victim);
        assert!(
            validate(&s, &inst, variant)
                .iter()
                .any(|v| matches!(v, Violation::WrongJobTotal { .. })),
            "seed {seed}"
        );
    }
}

#[test]
fn deleting_a_setup_is_caught() {
    for seed in 0..20 {
        let (inst, mut s, variant) = solved(seed);
        let victim = s
            .placements()
            .find(|p| p.kind.is_setup())
            .expect("has setups");
        s.retain(|p| *p != victim);
        // Removing a setup either uncovers a run or (if it was trailing /
        // redundant) changes nothing structurally; the algorithms never emit
        // redundant setups, so a violation must surface.
        assert!(
            !validate(&s, &inst, variant).is_empty(),
            "seed {seed}: removing a setup went unnoticed"
        );
    }
}

#[test]
fn shrinking_a_piece_is_caught() {
    for seed in 0..20 {
        let (inst, mut s, variant) = solved(seed);
        let idx = s
            .placements()
            .position(|p| !p.kind.is_setup() && p.len > Rational::ONE)
            .expect("has a long piece");
        s.edit(idx, |p| p.len -= Rational::new(1, 3));
        assert!(
            validate(&s, &inst, variant)
                .iter()
                .any(|v| matches!(v, Violation::WrongJobTotal { .. })),
            "seed {seed}"
        );
    }
}

#[test]
fn overlapping_shift_is_caught() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut caught = 0;
    for seed in 0..30 {
        let (inst, mut s, variant) = solved(seed);
        // Pick a machine with >= 2 placements and shift a later one down
        // into its predecessor.
        let machine = s
            .placements()
            .nth(rng.gen_range(0..s.placements().len()))
            .expect("in range")
            .machine;
        let tl = s.machine_timeline(machine);
        if tl.len() < 2 {
            continue;
        }
        let victim = tl[1];
        let idx = s.placements().position(|p| p == victim).expect("present");
        s.edit(idx, |p| p.start = tl[0].start); // collide with first item
        let violations = validate(&s, &inst, variant);
        assert!(!violations.is_empty(), "seed {seed}: overlap unnoticed");
        caught += 1;
    }
    assert!(caught >= 20, "mutation rarely applicable: {caught}");
}

#[test]
fn moving_piece_to_unset_machine_is_caught() {
    for seed in 0..20 {
        let (inst, mut s, variant) = solved(seed);
        // Find an empty-ish target machine lacking this class's setup at the
        // piece's time; machine count is 4, schedules rarely use a machine
        // for *every* class, so search for a violating move.
        let mut mutated = false;
        let placements = s.placements().collect::<Vec<_>>();
        for (idx, p) in placements.iter().enumerate() {
            if p.kind.is_setup() {
                continue;
            }
            for target in 0..inst.machines() {
                if target == p.machine {
                    continue;
                }
                let class = p.kind.class();
                let covered = s
                    .machine_timeline(target)
                    .iter()
                    .any(|q| q.kind == ItemKind::Setup(class));
                if !covered {
                    s.edit(idx, |p| p.machine = target);
                    mutated = true;
                    break;
                }
            }
            if mutated {
                break;
            }
        }
        if mutated {
            assert!(
                validate(&s, &inst, variant).iter().any(|v| matches!(
                    v,
                    Violation::MissingSetup { .. } | Violation::Overlap { .. }
                )),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn relabeling_piece_class_is_caught() {
    for seed in 0..20 {
        let (inst, mut s, variant) = solved(seed);
        if inst.num_classes() < 2 {
            continue;
        }
        let idx = s
            .placements()
            .position(|p| !p.kind.is_setup())
            .expect("has pieces");
        let kind = s.placements().nth(idx).map(|p| p.kind);
        if let Some(ItemKind::Piece { job, class }) = kind {
            let other = (class + 1) % inst.num_classes();
            s.edit(idx, |p| p.kind = ItemKind::Piece { job, class: other });
            assert!(
                validate(&s, &inst, variant)
                    .iter()
                    .any(|v| matches!(v, Violation::WrongPieceClass { .. })),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn stretching_a_setup_is_caught() {
    for seed in 0..20 {
        let (inst, mut s, variant) = solved(seed);
        let idx = s
            .placements()
            .position(|p| p.kind.is_setup())
            .expect("has setups");
        s.edit(idx, |p| p.len += Rational::ONE);
        assert!(
            validate(&s, &inst, variant).iter().any(|v| matches!(
                v,
                Violation::WrongSetupLength { .. } | Violation::Overlap { .. }
            )),
            "seed {seed}"
        );
    }
}

#[test]
fn duplicating_a_piece_is_caught() {
    for seed in 0..20 {
        let (inst, mut s, variant) = solved(seed);
        let p = s
            .placements()
            .find(|p| !p.kind.is_setup())
            .expect("has pieces");
        s.push(p); // same place: overlap AND wrong job total
        let violations = validate(&s, &inst, variant);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::WrongJobTotal { .. })),
            "seed {seed}"
        );
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::Overlap { .. })),
            "seed {seed}"
        );
    }
}

#[test]
fn splitting_a_nonpreemptive_job_is_caught() {
    for seed in 0..20 {
        let inst = batch_setup_scheduling::gen::uniform(40, 6, 4, seed);
        let sol = solve(&inst, Variant::NonPreemptive, Algorithm::ThreeHalves);
        let mut s = sol.into_schedule();
        let idx = s
            .placements()
            .position(|p| !p.kind.is_setup() && p.len > Rational::ONE)
            .expect("has a splittable piece");
        let p = s.placements().nth(idx).expect("in range");
        let half = p.len.half();
        s.edit(idx, |q| q.len = half);
        s.push(Placement::new(
            p.machine,
            p.start + half,
            p.len - half,
            p.kind,
        ));
        // Still contiguous and load-conserving — but split in two pieces:
        // only the non-preemptive validator may complain.
        assert!(validate(&s, &inst, Variant::NonPreemptive)
            .iter()
            .any(|v| matches!(v, Violation::JobSplit { .. })));
        assert!(validate(&s, &inst, Variant::Preemptive).is_empty());
        assert!(validate(&s, &inst, Variant::Splittable).is_empty());
    }
}
