//! Heuristic baselines.

use bss_instance::{Instance, LowerBounds, Variant};
use bss_rational::Rational;
use bss_schedule::{to_ticks, Schedule};
use bss_wrap::{batch_items, wrap_into, GapRun, Template};

/// Monma–Potts-style batch wrap-around heuristic for the preemptive variant.
///
/// Wraps the flat batch sequence into one gap `[s_max, s_max + T_min)` per
/// machine, `T_min = max(N/m, max_i(s_i + t^(i)_max))`, splitting jobs at
/// borders with a fresh setup below the next gap (McNaughton-style; this is
/// what the original "wrap-around rule" heuristic resembles). Makespan
/// `<= s_max + T_min < 2·OPT`, matching the flavor of the
/// `2 − 1/(⌊m/2⌋+1)` guarantee the paper improves on.
#[must_use]
pub fn monma_potts(inst: &Instance) -> Schedule {
    let m = inst.machines();
    let t_min = LowerBounds::of(inst).tmin(Variant::Preemptive);
    // The grid 1/D with D = den(T_min) holds every time of the wrap.
    let grid = t_min.denom();
    let smax = to_ticks(inst.smax(), grid);
    let template = Template::new(vec![GapRun {
        first_machine: 0,
        count: m,
        a: smax,
        b: smax + t_min.numer(),
    }]);
    let q = (0..inst.num_classes()).flat_map(|i| {
        batch_items(
            i,
            to_ticks(inst.setup(i), grid),
            inst.class_jobs(i)
                .iter()
                .map(move |&j| (j, to_ticks(inst.job(j).time, grid))),
        )
    });
    // Capacity: m·T_min >= N = L(Q); setups fit below since a = s_max.
    // Jobs never self-parallelize: t_j <= T_min - s_i <= gap height.
    let mut out = Schedule::with_grid(m, grid);
    wrap_into(q, template.runs(), inst.setups(), &mut out)
        .expect("m*T_min >= N guarantees capacity");
    out
}

/// LPT list scheduling of whole batches: classes sorted by `s_i + P(C_i)`
/// descending, each assigned (with one setup) to the least-loaded machine.
/// Non-preemptive feasible; the folk baseline for batch scheduling.
#[must_use]
pub fn lpt_batches(inst: &Instance) -> Schedule {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut order: Vec<usize> = (0..inst.num_classes()).collect();
    order.sort_by_key(|&i| Reverse(inst.setup(i) + inst.class_proc(i)));
    // Min-heap of (load, machine).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..inst.machines()).map(|u| Reverse((0u64, u))).collect();
    let mut s = Schedule::new(inst.machines());
    for i in order {
        let Reverse((load, u)) = heap.pop().expect("m >= 1");
        let mut at = Rational::from(load);
        let setup = Rational::from(inst.setup(i));
        s.push_setup(u, at, setup, i);
        at += setup;
        for &j in inst.class_jobs(i) {
            let len = Rational::from(inst.job(j).time);
            s.push_piece(u, at, len, j, i);
            at += len;
        }
        heap.push(Reverse((load + inst.setup(i) + inst.class_proc(i), u)));
    }
    s
}

/// Next-fit over the flat batch sequence with threshold `2·T_min`
/// (the strategy behind Jansen & Land's `O(n)` 3-approximation): fill the
/// current machine until the threshold is passed, then move on, re-paying a
/// setup when a class straddles machines. Never splits jobs.
#[must_use]
pub fn next_fit_batches(inst: &Instance) -> Schedule {
    let m = inst.machines();
    let threshold = LowerBounds::of(inst).tmin(Variant::NonPreemptive) * 2u64;
    let mut s = Schedule::new(m);
    let mut u = 0usize;
    let mut at = Rational::ZERO;
    for i in 0..inst.num_classes() {
        let setup = Rational::from(inst.setup(i));
        let mut configured = false;
        for &j in inst.class_jobs(i) {
            let len = Rational::from(inst.job(j).time);
            if at >= threshold && u + 1 < m {
                u += 1;
                at = Rational::ZERO;
                configured = false;
            }
            if !configured {
                s.push_setup(u, at, setup, i);
                at += setup;
                configured = true;
            }
            s.push_piece(u, at, len, j, i);
            at += len;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use bss_instance::InstanceBuilder;
    use bss_schedule::validate;

    use super::*;

    fn instances() -> Vec<Instance> {
        let mut v = vec![];
        for seed in 0..15 {
            v.push(bss_gen::uniform(50, 7, 4, seed));
        }
        v.push(bss_gen::expensive_setups(30, 4, 1));
        v.push(bss_gen::single_job_batches(25, 5, 2));
        let mut b = InstanceBuilder::new(1);
        b.add_batch(3, &[5, 5]);
        v.push(b.build().unwrap());
        v
    }

    #[test]
    fn monma_potts_validates_and_is_2_approx() {
        for inst in instances() {
            let s = monma_potts(&inst);
            let v = validate(&s, &inst, Variant::Preemptive);
            assert!(v.is_empty(), "{v:?}");
            let bound =
                LowerBounds::of(&inst).tmin(Variant::Preemptive) + Rational::from(inst.smax());
            assert!(s.makespan() <= bound);
            // The bound itself certifies ratio < 2.
            assert!(bound < LowerBounds::of(&inst).tmin(Variant::Preemptive) * 2u64 + 1u64);
        }
    }

    #[test]
    fn lpt_validates_nonpreemptive() {
        for inst in instances() {
            let s = lpt_batches(&inst);
            let v = validate(&s, &inst, Variant::NonPreemptive);
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn next_fit_validates_nonpreemptive() {
        for inst in instances() {
            let s = next_fit_batches(&inst);
            let v = validate(&s, &inst, Variant::NonPreemptive);
            assert!(v.is_empty(), "{v:?}");
        }
    }

    #[test]
    fn lpt_single_class_uses_one_machine() {
        let mut b = InstanceBuilder::new(4);
        b.add_batch(2, &[3, 3, 3]);
        let inst = b.build().unwrap();
        let s = lpt_batches(&inst);
        assert_eq!(s.makespan(), Rational::from(11u64));
        let used: std::collections::HashSet<usize> = s.placements().map(|p| p.machine).collect();
        assert_eq!(used.len(), 1);
    }

    #[test]
    fn next_fit_respects_machine_limit() {
        let inst = bss_gen::uniform(200, 20, 3, 9);
        let s = next_fit_batches(&inst);
        assert!(s.placements().all(|p| p.machine < 3));
        assert!(validate(&s, &inst, Variant::NonPreemptive).is_empty());
    }
}
