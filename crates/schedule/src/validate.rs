//! Feasibility validation of schedules, explicit and compact.
//!
//! The checks implement the paper's model requirements verbatim:
//!
//! 1. every placement lies on a real machine, starts at time `>= 0`;
//! 2. machines are single-threaded: no two placements on one machine overlap;
//! 3. a setup `s_i` (of full length `s_i`) separates load of class `i` from
//!    anything a machine did before — walking each machine's timeline, every
//!    job piece must be preceded by a setup of its class with no
//!    different-class item in between (idle time is allowed: a machine stays
//!    configured while idle);
//! 4. every job is fully scheduled: its pieces sum to exactly `t_j`;
//! 5. variant rules: non-preemptive jobs are a single piece; preemptive jobs
//!    never overlap themselves across machines; splittable jobs are free.
//!
//! Setups are un-preempted by construction (a placement is contiguous), and
//! check 2 ensures nothing intersects them.
//!
//! Two validators are provided:
//!
//! * [`validate`] walks an explicit [`Schedule`] with a single
//!   `O(P log P)` sort-and-sweep over all `P` placements (two flat index
//!   sorts — by machine and by job — instead of per-machine re-filtering);
//! * [`validate_compact`] checks a [`CompactSchedule`] directly on its
//!   configuration groups in `O((P' + c) log P')` for `P'` *stored* items:
//!   timeline checks run once per machine *region* (a maximal run of
//!   machines covered by the same set of groups — one representative
//!   machine per group and per group boundary), so a group of multiplicity
//!   10⁶ costs the same as multiplicity 1. Job totals count multiplicities
//!   exactly. Use it on solver-native compact output; repaired explicit
//!   schedules go through [`validate`].

use bss_instance::{Instance, Variant};
use bss_rational::Rational;

use crate::{CompactSchedule, ConfigGroup, ItemKind, Schedule};

/// A feasibility violation, with enough context to debug the offending
/// algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Placement on machine `>= m` (or a compact group past the last
    /// machine).
    MachineOutOfRange { machine: usize },
    /// A piece of a job the instance does not have (`job >= n`).
    UnknownJob { job: usize },
    /// A setup of a class the instance does not have (`class >= c`).
    UnknownClass { class: usize },
    /// Times too large for exact arithmetic (only reachable from hand-crafted
    /// schedules; every feasible schedule's times are far below the bounds).
    TimeOverflow,
    /// Placement starting before time 0.
    NegativeStart { machine: usize },
    /// Two placements on one machine intersect.
    Overlap { machine: usize, at: Rational },
    /// A job piece not covered by a setup of its class.
    MissingSetup {
        machine: usize,
        job: usize,
        class: usize,
    },
    /// A setup placement whose length differs from `s_i`.
    WrongSetupLength {
        machine: usize,
        class: usize,
        len: Rational,
    },
    /// A job piece referencing the wrong class.
    WrongPieceClass { job: usize, class: usize },
    /// Job's scheduled time differs from `t_j`.
    WrongJobTotal { job: usize, scheduled: Rational },
    /// Non-preemptive job split into several pieces.
    JobSplit { job: usize, pieces: usize },
    /// Preemptive job running on two machines at once.
    JobParallel { job: usize, at: Rational },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::MachineOutOfRange { machine } => {
                write!(f, "placement on non-existent machine {machine}")
            }
            Violation::UnknownJob { job } => {
                write!(f, "placement references non-existent job {job}")
            }
            Violation::UnknownClass { class } => {
                write!(f, "setup references non-existent class {class}")
            }
            Violation::TimeOverflow => {
                write!(f, "schedule times overflow exact arithmetic")
            }
            Violation::NegativeStart { machine } => {
                write!(f, "placement on machine {machine} starts before time 0")
            }
            Violation::Overlap { machine, at } => {
                write!(f, "overlapping placements on machine {machine} at {at}")
            }
            Violation::MissingSetup {
                machine,
                job,
                class,
            } => write!(
                f,
                "job {job} (class {class}) on machine {machine} runs without its setup"
            ),
            Violation::WrongSetupLength {
                machine,
                class,
                len,
            } => write!(
                f,
                "setup of class {class} on machine {machine} has length {len}"
            ),
            Violation::WrongPieceClass { job, class } => {
                write!(f, "piece of job {job} labeled with wrong class {class}")
            }
            Violation::WrongJobTotal { job, scheduled } => {
                write!(f, "job {job} scheduled for {scheduled} time units")
            }
            Violation::JobSplit { job, pieces } => {
                write!(f, "non-preemptive job {job} split into {pieces} pieces")
            }
            Violation::JobParallel { job, at } => {
                write!(
                    f,
                    "preemptive job {job} runs in parallel with itself at {at}"
                )
            }
        }
    }
}

/// `true` iff `r` is small enough that any pairwise comparison or single
/// addition with another bounded rational stays inside `i128` (matches the
/// JSON wire-format bounds `Rational::MAX_WIRE_NUM`/`MAX_WIRE_DEN`).
fn bounded(r: Rational) -> bool {
    (-Rational::MAX_WIRE_NUM..=Rational::MAX_WIRE_NUM).contains(&r.numer())
        && r.denom() <= Rational::MAX_WIRE_DEN
}

/// `r · count` with the [`bounded`] guard; `None` when the product leaves the
/// exact-arithmetic budget.
fn bounded_mul_count(r: Rational, count: u64) -> Option<Rational> {
    let num = r.numer().checked_mul(count as i128)?;
    if !(-Rational::MAX_WIRE_NUM..=Rational::MAX_WIRE_NUM).contains(&num) {
        return None;
    }
    Some(Rational::new(num, r.denom()))
}

/// Per-job accumulation state shared by both validators.
struct JobLoads {
    sums: Vec<Rational>,
    counts: Vec<u32>,
    overflow: bool,
}

impl JobLoads {
    fn new(jobs: usize) -> Self {
        JobLoads {
            sums: vec![Rational::ZERO; jobs],
            counts: vec![0; jobs],
            overflow: false,
        }
    }

    /// Adds `len` (`count` incidences of it) to `job`'s scheduled time,
    /// flagging overflow instead of panicking.
    fn add(&mut self, job: usize, len: Rational, count: u64) {
        if self.overflow {
            return;
        }
        let Some(total) = bounded_mul_count(len, count) else {
            self.overflow = true;
            return;
        };
        match self.sums[job].checked_add(total).filter(|&s| bounded(s)) {
            Some(sum) => self.sums[job] = sum,
            None => self.overflow = true,
        }
        self.counts[job] = self.counts[job].saturating_add(count.min(u32::MAX as u64) as u32);
    }

    /// Check 4: load conservation per job. Returns `false` (after reporting
    /// [`Violation::TimeOverflow`]) when the sums left exact arithmetic.
    fn check_totals(&self, instance: &Instance, violations: &mut Vec<Violation>) -> bool {
        if self.overflow {
            violations.push(Violation::TimeOverflow);
            return false;
        }
        for (job, &scheduled) in self.sums.iter().enumerate() {
            if scheduled != Rational::from(instance.job(job).time) {
                violations.push(Violation::WrongJobTotal { job, scheduled });
            }
        }
        true
    }
}

/// Walks one machine timeline (items pre-sorted by start): overlap and setup
/// coverage. `machine` is only used for reporting — for compact schedules it
/// is the representative machine of a region.
fn sweep_timeline<'a>(
    machine: usize,
    items: impl Iterator<Item = (Rational, Rational, &'a ItemKind)>,
    violations: &mut Vec<Violation>,
) {
    let mut prev_end = Rational::ZERO;
    let mut first = true;
    let mut configured: Option<usize> = None;
    for (start, len, kind) in items {
        if !first && start < prev_end {
            violations.push(Violation::Overlap { machine, at: start });
        }
        prev_end = prev_end.max(start + len);
        first = false;
        match *kind {
            ItemKind::Setup(class) => configured = Some(class),
            ItemKind::Piece { job, class } => {
                if configured != Some(class) {
                    violations.push(Violation::MissingSetup {
                        machine,
                        job,
                        class,
                    });
                    // Avoid cascading reports for the same run.
                    configured = Some(class);
                }
            }
        }
    }
}

/// Checks full feasibility of `schedule` for `instance` under `variant`.
///
/// Returns all violations found (empty = feasible). Runs in `O(P log P)`
/// for `P` placements: one pass for range/id checks, one index sort by
/// `(machine, start)` for the timeline sweep, one index sort by
/// `(job, start)` for the variant rules — no per-machine or per-job buffers.
#[must_use]
pub fn validate(schedule: &Schedule, instance: &Instance, variant: Variant) -> Vec<Violation> {
    let mut violations = Vec::new();
    let m = instance.machines();
    // The walk below sorts indices into decoded values.
    let placements = schedule.placements().collect::<Vec<_>>();

    // 0. Magnitude guard: all later arithmetic (cross-multiplied comparisons,
    // `start + len`) is exact and panics on i128 overflow, so reject times
    // outside the wire-format bounds up front. Feasible schedules sit many
    // orders of magnitude below the bounds.
    for p in &placements {
        let end_bounded = p.start.checked_add(p.len).is_some_and(bounded);
        if !bounded(p.start) || !bounded(p.len) || !end_bounded {
            return vec![Violation::TimeOverflow];
        }
    }

    // 1. Range and id checks; collect the in-range placements for the sweep
    // and the valid job pieces for the per-job checks.
    let mut order: Vec<u32> = Vec::with_capacity(placements.len());
    let mut pieces: Vec<u32> = Vec::new();
    let mut loads = JobLoads::new(instance.num_jobs());
    for (idx, p) in placements.iter().enumerate() {
        if p.machine >= m {
            violations.push(Violation::MachineOutOfRange { machine: p.machine });
            continue;
        }
        if p.start.is_negative() {
            violations.push(Violation::NegativeStart { machine: p.machine });
        }
        order.push(idx as u32);
        match p.kind {
            ItemKind::Setup(class) => {
                // Deserialized schedules may reference ids the instance does
                // not have; report instead of indexing out of bounds.
                if class >= instance.num_classes() {
                    violations.push(Violation::UnknownClass { class });
                } else if p.len != Rational::from(instance.setup(class)) {
                    violations.push(Violation::WrongSetupLength {
                        machine: p.machine,
                        class,
                        len: p.len,
                    });
                }
            }
            ItemKind::Piece { job, class } => {
                if job >= instance.num_jobs() {
                    violations.push(Violation::UnknownJob { job });
                    continue;
                }
                if instance.job(job).class != class {
                    violations.push(Violation::WrongPieceClass { job, class });
                }
                loads.add(job, p.len, 1);
                pieces.push(idx as u32);
            }
        }
    }

    // 2 + 3. One sort by (machine, start, insertion order), then a linear
    // sweep over machine runs: overlap and setup coverage.
    order.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (&placements[a as usize], &placements[b as usize]);
        (pa.machine, pa.start, a).cmp(&(pb.machine, pb.start, b))
    });
    let mut i = 0;
    while i < order.len() {
        let machine = placements[order[i] as usize].machine;
        let run_end = i + order[i..]
            .iter()
            .position(|&x| placements[x as usize].machine != machine)
            .unwrap_or(order.len() - i);
        sweep_timeline(
            machine,
            order[i..run_end].iter().map(|&x| {
                let p = &placements[x as usize];
                (p.start, p.len, &p.kind)
            }),
            &mut violations,
        );
        i = run_end;
    }

    // 4. Load conservation per job.
    if !loads.check_totals(instance, &mut violations) {
        return violations;
    }

    // 5. Variant rules, on one sort by (job, start).
    match variant {
        Variant::NonPreemptive => {
            for (job, &count) in loads.counts.iter().enumerate() {
                if count > 1 {
                    violations.push(Violation::JobSplit {
                        job,
                        pieces: count as usize,
                    });
                }
            }
        }
        Variant::Preemptive => {
            pieces.sort_unstable_by(|&a, &b| {
                let (pa, pb) = (&placements[a as usize], &placements[b as usize]);
                let (ja, jb) = (job_of(&pa.kind), job_of(&pb.kind));
                (ja, pa.start, a).cmp(&(jb, pb.start, b))
            });
            let mut i = 0;
            while i < pieces.len() {
                let p0 = &placements[pieces[i] as usize];
                let job = job_of(&p0.kind);
                let mut prev_end = p0.end();
                let mut j = i + 1;
                while j < pieces.len() && job_of(&placements[pieces[j] as usize].kind) == job {
                    let p = &placements[pieces[j] as usize];
                    if p.start < prev_end {
                        violations.push(Violation::JobParallel { job, at: p.start });
                        // One report per job, as before.
                        while j < pieces.len()
                            && job_of(&placements[pieces[j] as usize].kind) == job
                        {
                            j += 1;
                        }
                        break;
                    }
                    prev_end = prev_end.max(p.end());
                    j += 1;
                }
                i = j.max(i + 1);
            }
        }
        Variant::Splittable => {}
    }

    violations
}

fn job_of(kind: &ItemKind) -> usize {
    match *kind {
        ItemKind::Piece { job, .. } => job,
        ItemKind::Setup(_) => usize::MAX,
    }
}

/// Checks full feasibility of a [`CompactSchedule`] for `instance` under
/// `variant`, *without expanding it*.
///
/// Timeline checks (overlap, setup coverage) run on one representative
/// machine per *region* — a maximal run of machines covered by the same set
/// of configuration groups (so every group interior and every group boundary
/// is checked exactly once); job totals count group multiplicities exactly.
/// The cost is `O((P' + g) log P')` for `P'` stored items and `g` groups,
/// independent of the machine count and of `total_items`.
///
/// Agreement with the explicit walk: `validate_compact(cs, …)` is empty iff
/// `validate(&cs.expand()?, …)` is empty, and both report the same violation
/// families on malformed input (the compact form reports each family once
/// per group/region where the explicit walk repeats it per machine).
///
/// A job piece in a group of multiplicity `k > 1` denotes `k` parallel
/// pieces: fine for the splittable variant, a [`Violation::JobParallel`] /
/// [`Violation::JobSplit`] under the preemptive / non-preemptive rules —
/// exactly as the expanded schedule would be judged.
#[must_use]
pub fn validate_compact(
    cs: &CompactSchedule,
    instance: &Instance,
    variant: Variant,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let m = instance.machines();
    let groups: Vec<ConfigGroup> = cs.groups().map(|g| g.to_group()).collect();

    // 0. Magnitude guard over stored items (cf. `validate` step 0).
    // Non-positive-length items are skipped throughout: expansion drops
    // them (`Schedule::push` keeps only positive lengths), so judging them
    // here would diverge from the explicit walk on the expansion.
    for g in &groups {
        for item in &g.config.items {
            if !item.len.is_positive() {
                continue;
            }
            let end_bounded = item.start.checked_add(item.len).is_some_and(bounded);
            if !bounded(item.start) || !bounded(item.len) || !end_bounded {
                return vec![Violation::TimeOverflow];
            }
        }
    }

    // 1. Group bounds (the "width invariant": a group must fit the machine
    // range — the compact analogue of the per-placement machine check) plus
    // id/shape checks, once per stored item.
    let mut in_range: Vec<u32> = Vec::with_capacity(groups.len());
    let mut loads = JobLoads::new(instance.num_jobs());
    for (gi, g) in groups.iter().enumerate() {
        if g.first_machine + g.count > m {
            violations.push(Violation::MachineOutOfRange {
                machine: g.first_machine + g.count - 1,
            });
            continue;
        }
        in_range.push(gi as u32);
        for item in &g.config.items {
            if !item.len.is_positive() {
                continue; // dropped by expansion
            }
            if item.start.is_negative() {
                violations.push(Violation::NegativeStart {
                    machine: g.first_machine,
                });
            }
            match item.kind {
                ItemKind::Setup(class) => {
                    if class >= instance.num_classes() {
                        violations.push(Violation::UnknownClass { class });
                    } else if item.len != Rational::from(instance.setup(class)) {
                        violations.push(Violation::WrongSetupLength {
                            machine: g.first_machine,
                            class,
                            len: item.len,
                        });
                    }
                }
                ItemKind::Piece { job, class } => {
                    if job >= instance.num_jobs() {
                        violations.push(Violation::UnknownJob { job });
                        continue;
                    }
                    if instance.job(job).class != class {
                        violations.push(Violation::WrongPieceClass { job, class });
                    }
                    loads.add(job, item.len, g.count as u64);
                }
            }
        }
    }

    // 2 + 3. Region sweep: the machine axis is sliced at every group
    // boundary; inside one region every machine carries the same merged
    // timeline, so one walk per region stands for all of them (one
    // representative machine per group interior and per group boundary).
    let mut events: Vec<(usize, bool, u32)> = Vec::with_capacity(2 * in_range.len());
    for &gi in &in_range {
        let g = &groups[gi as usize];
        events.push((g.first_machine, false, gi)); // group becomes active
        events.push((g.first_machine + g.count, true, gi)); // group ends
    }
    // At equal positions, ends apply before starts (half-open intervals).
    events.sort_unstable_by_key(|&(pos, is_end, gi)| (pos, !is_end, gi));
    let mut active: Vec<u32> = Vec::new();
    let mut merged: Vec<(Rational, u32, u32)> = Vec::new(); // (start, group, item)
    let mut e = 0;
    while e < events.len() {
        let pos = events[e].0;
        while e < events.len() && events[e].0 == pos {
            let (_, is_end, gi) = events[e];
            if is_end {
                active.retain(|&x| x != gi);
            } else {
                active.push(gi);
            }
            e += 1;
        }
        if active.is_empty() || e >= events.len() {
            continue;
        }
        // Region [pos, events[e].0) — all its machines share this timeline.
        merged.clear();
        for &gi in &active {
            for (ii, item) in groups[gi as usize].config.items.iter().enumerate() {
                if item.len.is_positive() {
                    merged.push((item.start, gi, ii as u32));
                }
            }
        }
        // Equal starts tie-break by (group, item) order — the emission order
        // of the expanded schedule.
        merged.sort_unstable();
        sweep_timeline(
            pos,
            merged.iter().map(|&(_, gi, ii)| {
                let item = &groups[gi as usize].config.items[ii as usize];
                (item.start, item.len, &item.kind)
            }),
            &mut violations,
        );
    }

    // 4. Load conservation per job, multiplicities included.
    if !loads.check_totals(instance, &mut violations) {
        return violations;
    }

    // 5. Variant rules on stored items (a multiplicity-k piece is k pieces).
    match variant {
        Variant::NonPreemptive => {
            for (job, &count) in loads.counts.iter().enumerate() {
                if count > 1 {
                    violations.push(Violation::JobSplit {
                        job,
                        pieces: count as usize,
                    });
                }
            }
        }
        Variant::Preemptive => {
            let mut intervals: Vec<(usize, Rational, Rational)> = Vec::new();
            for &gi in &in_range {
                let g = &groups[gi as usize];
                for item in &g.config.items {
                    if let ItemKind::Piece { job, .. } = item.kind {
                        if job >= instance.num_jobs() || !item.len.is_positive() {
                            continue;
                        }
                        if g.count > 1 {
                            // k parallel copies of the same piece.
                            violations.push(Violation::JobParallel {
                                job,
                                at: item.start,
                            });
                            continue;
                        }
                        intervals.push((job, item.start, item.start + item.len));
                    }
                }
            }
            intervals.sort_unstable();
            let mut i = 0;
            while i < intervals.len() {
                let job = intervals[i].0;
                let mut prev_end = intervals[i].2;
                let mut j = i + 1;
                while j < intervals.len() && intervals[j].0 == job {
                    if intervals[j].1 < prev_end {
                        violations.push(Violation::JobParallel {
                            job,
                            at: intervals[j].1,
                        });
                        while j < intervals.len() && intervals[j].0 == job {
                            j += 1;
                        }
                        break;
                    }
                    prev_end = prev_end.max(intervals[j].2);
                    j += 1;
                }
                i = j.max(i + 1);
            }
        }
        Variant::Splittable => {}
    }

    violations
}

#[cfg(test)]
mod tests {
    use bss_instance::InstanceBuilder;

    use crate::{ConfigItem, MachineConfig};

    use super::*;

    /// m=2; class 0: s=2, jobs {3,4}; class 1: s=1, job {2}.
    fn instance() -> Instance {
        let mut b = InstanceBuilder::new(2);
        b.add_batch(2, &[3, 4]);
        b.add_batch(1, &[2]);
        b.build().unwrap()
    }

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    /// A feasible non-preemptive schedule for `instance()`.
    fn good() -> Schedule {
        let mut s = Schedule::new(2);
        s.push_setup(0, r(0), r(2), 0);
        s.push_piece(0, r(2), r(3), 0, 0);
        s.push_piece(0, r(5), r(4), 1, 0);
        s.push_setup(1, r(0), r(1), 1);
        s.push_piece(1, r(1), r(2), 2, 1);
        s
    }

    #[test]
    fn accepts_feasible_schedule() {
        for v in Variant::ALL {
            assert!(validate(&good(), &instance(), v).is_empty(), "{v}");
        }
    }

    #[test]
    fn detects_machine_out_of_range() {
        let mut s = good();
        s.push_setup(5, r(0), r(2), 0);
        assert!(validate(&s, &instance(), Variant::Splittable)
            .iter()
            .any(|v| matches!(v, Violation::MachineOutOfRange { machine: 5 })));
    }

    #[test]
    fn detects_unknown_job_and_class() {
        // Ids past the instance's n/c (e.g. from a hand-edited schedule
        // JSON) must surface as violations, not index panics.
        let mut s = good();
        s.push_piece(0, r(20), r(1), 999, 0);
        s.push_setup(1, r(20), r(1), 7);
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::UnknownJob { job: 999 })));
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::UnknownClass { class: 7 })));
    }

    #[test]
    fn detects_time_overflow_instead_of_panicking() {
        // Huge numerator within wire bounds: start + len overflows the
        // comparison budget; must report, not abort.
        let mut s = good();
        s.push_piece(0, Rational::new(1i128 << 94, 1), r(1), 0, 0);
        assert_eq!(
            validate(&s, &instance(), Variant::Splittable),
            vec![Violation::TimeOverflow]
        );
        // Coprime denominators whose lcm explodes past the bounds in the
        // per-job sum.
        let mut s = good();
        for p in [(1i128 << 31) - 1, (1 << 31) - 99, (1 << 31) - 525] {
            s.push_piece(1, r(30), Rational::new(1, p), 2, 1);
        }
        assert!(validate(&s, &instance(), Variant::Splittable)
            .iter()
            .any(|v| matches!(v, Violation::TimeOverflow)));
    }

    #[test]
    fn detects_negative_start() {
        let mut s = good();
        s.push_piece(1, r(-1), r(1), 2, 1);
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::NegativeStart { .. })));
    }

    #[test]
    fn detects_overlap() {
        let mut s = good();
        // Intersects the class-0 setup on machine 0.
        s.push_piece(0, r(1), r(1), 2, 1);
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::Overlap { machine: 0, .. })));
    }

    #[test]
    fn detects_missing_setup() {
        let mut s = Schedule::new(2);
        s.push_piece(0, r(0), r(3), 0, 0); // no setup at all
        s.push_setup(0, r(3), r(2), 0);
        s.push_piece(0, r(5), r(4), 1, 0);
        s.push_setup(1, r(0), r(1), 1);
        s.push_piece(1, r(1), r(2), 2, 1);
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::MissingSetup { job: 0, .. })));
    }

    #[test]
    fn detects_stale_configuration_after_switch() {
        // class 0 setup, class 1 job (with its setup), then a class 0 job
        // again WITHOUT a fresh class 0 setup: must be flagged.
        let mut b = InstanceBuilder::new(1);
        b.add_batch(1, &[1, 1]);
        b.add_batch(1, &[1]);
        let inst = b.build().unwrap();
        let mut s = Schedule::new(1);
        s.push_setup(0, r(0), r(1), 0);
        s.push_piece(0, r(1), r(1), 0, 0);
        s.push_setup(0, r(2), r(1), 1);
        s.push_piece(0, r(3), r(1), 2, 1);
        s.push_piece(0, r(4), r(1), 1, 0); // stale class-0 configuration
        let vs = validate(&s, &inst, Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::MissingSetup { job: 1, .. })));
    }

    #[test]
    fn idle_time_does_not_reset_configuration() {
        let mut b = InstanceBuilder::new(1);
        b.add_batch(1, &[1, 1]);
        let inst = b.build().unwrap();
        let mut s = Schedule::new(1);
        s.push_setup(0, r(0), r(1), 0);
        s.push_piece(0, r(1), r(1), 0, 0);
        // Idle gap [2, 10), then another class-0 job without a new setup: OK.
        s.push_piece(0, r(10), r(1), 1, 0);
        assert!(validate(&s, &inst, Variant::Splittable).is_empty());
    }

    #[test]
    fn detects_wrong_setup_length() {
        let mut s = good();
        s.push_setup(1, r(4), r(5), 1); // s_1 = 1, not 5
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::WrongSetupLength { class: 1, .. })));
    }

    #[test]
    fn detects_incomplete_job() {
        let mut s = good();
        // Shorten job 1's piece.
        let idx = s
            .placements()
            .position(|p| matches!(p.kind, ItemKind::Piece { job: 1, .. }))
            .unwrap();
        s.edit(idx, |p| p.len = r(2));
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::WrongJobTotal { job: 1, .. })));
    }

    #[test]
    fn detects_wrong_piece_class() {
        let mut s = good();
        let idx = s
            .placements()
            .position(|p| matches!(p.kind, ItemKind::Piece { job: 2, .. }))
            .unwrap();
        s.edit(idx, |p| p.kind = ItemKind::Piece { job: 2, class: 0 });
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::WrongPieceClass { job: 2, class: 0 })));
    }

    /// A preemptive-feasible split of job 1 across both machines.
    fn split_schedule(second_start: Rational) -> Schedule {
        let mut s = Schedule::new(2);
        s.push_setup(0, r(0), r(2), 0);
        s.push_piece(0, r(2), r(3), 0, 0);
        s.push_piece(0, r(5), r(2), 1, 0); // job 1 first half: [5, 7)
        s.push_setup(1, r(0), r(1), 1);
        s.push_piece(1, r(1), r(2), 2, 1);
        s.push_setup(1, r(3), r(2), 0);
        s.push_piece(1, second_start, r(2), 1, 0); // job 1 second half
        s
    }

    #[test]
    fn preemptive_split_ok_when_sequential() {
        let s = split_schedule(r(7)); // [7, 9) after [5, 7)
        assert!(validate(&s, &instance(), Variant::Preemptive).is_empty());
        assert!(validate(&s, &instance(), Variant::Splittable).is_empty());
        // But the non-preemptive validator must reject the split.
        assert!(validate(&s, &instance(), Variant::NonPreemptive)
            .iter()
            .any(|v| matches!(v, Violation::JobSplit { job: 1, pieces: 2 })));
    }

    #[test]
    fn preemptive_rejects_self_parallelism() {
        let s = split_schedule(r(6)); // [6, 8) overlaps [5, 7)
        assert!(validate(&s, &instance(), Variant::Preemptive)
            .iter()
            .any(|v| matches!(v, Violation::JobParallel { job: 1, .. })));
        // Splittable allows it.
        assert!(validate(&s, &instance(), Variant::Splittable).is_empty());
    }

    #[test]
    fn missing_job_detected() {
        let mut s = good();
        s.retain(|p| !matches!(p.kind, ItemKind::Piece { job: 2, .. }));
        let vs = validate(&s, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::WrongJobTotal { job: 2, .. })));
    }

    #[test]
    fn touching_placements_do_not_overlap() {
        // Back-to-back placements sharing an endpoint are fine.
        let vs = validate(&good(), &instance(), Variant::Splittable);
        assert!(vs.is_empty());
    }

    // ---- validate_compact ----

    fn citem(kind: ItemKind, start: i128, len: i128) -> ConfigItem {
        ConfigItem {
            start: r(start),
            len: r(len),
            kind,
        }
    }

    /// A feasible compact schedule for `instance()`: class 0 wholly on
    /// machine 0, class 1 on machine 1.
    fn good_compact() -> CompactSchedule {
        let mut cs = CompactSchedule::new(2);
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![
                    citem(ItemKind::Setup(0), 0, 2),
                    citem(ItemKind::Piece { job: 0, class: 0 }, 2, 3),
                    citem(ItemKind::Piece { job: 1, class: 0 }, 5, 4),
                ],
            },
        );
        cs.push_group(
            1,
            1,
            MachineConfig {
                items: vec![
                    citem(ItemKind::Setup(1), 0, 1),
                    citem(ItemKind::Piece { job: 2, class: 1 }, 1, 2),
                ],
            },
        );
        cs
    }

    #[test]
    fn compact_accepts_feasible_schedule() {
        for v in Variant::ALL {
            assert!(
                validate_compact(&good_compact(), &instance(), v).is_empty(),
                "{v}"
            );
        }
    }

    #[test]
    fn compact_agrees_with_explicit_on_good_schedule() {
        let cs = good_compact();
        let s = cs.expand().expect("in range");
        for v in Variant::ALL {
            assert_eq!(
                validate_compact(&cs, &instance(), v).is_empty(),
                validate(&s, &instance(), v).is_empty()
            );
        }
    }

    #[test]
    fn compact_detects_out_of_range_group() {
        let mut cs = good_compact();
        cs.push_group(
            1,
            2, // machines {1, 2} but m = 2
            MachineConfig {
                items: vec![citem(ItemKind::Setup(0), 10, 2)],
            },
        );
        assert!(validate_compact(&cs, &instance(), Variant::Splittable)
            .iter()
            .any(|v| matches!(v, Violation::MachineOutOfRange { machine: 2 })));
    }

    #[test]
    fn compact_counts_multiplicities_in_job_totals() {
        // Job 0 (t = 3) placed once per machine on 2 machines: total 6 ≠ 3.
        let mut cs = CompactSchedule::new(2);
        cs.push_group(
            0,
            2,
            MachineConfig {
                items: vec![
                    citem(ItemKind::Setup(0), 0, 2),
                    citem(ItemKind::Piece { job: 0, class: 0 }, 2, 3),
                ],
            },
        );
        let vs = validate_compact(&cs, &instance(), Variant::Splittable);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::WrongJobTotal { job: 0, .. })));
    }

    #[test]
    fn compact_checks_shared_machine_regions() {
        // Two groups sharing machine 0 with overlapping items: the explicit
        // expansion overlaps, and the region sweep must see the merged
        // timeline.
        let mut cs = good_compact();
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![citem(ItemKind::Setup(1), 1, 1)],
            },
        );
        let vs = validate_compact(&cs, &instance(), Variant::Splittable);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::Overlap { machine: 0, .. })),
            "{vs:?}"
        );
    }

    #[test]
    fn compact_multiplicity_pieces_are_parallel_and_split() {
        // One piece of job 2 (t = 2) over 2 machines, 1 unit each: totals
        // conserve, but the copies run in parallel.
        let mut cs = CompactSchedule::new(2);
        cs.push_group(
            0,
            2,
            MachineConfig {
                items: vec![
                    citem(ItemKind::Setup(1), 0, 1),
                    citem(ItemKind::Piece { job: 2, class: 1 }, 1, 1),
                ],
            },
        );
        // Jobs 0 and 1 are missing entirely — ignore their totals here.
        let parallel = validate_compact(&cs, &instance(), Variant::Preemptive);
        assert!(parallel
            .iter()
            .any(|v| matches!(v, Violation::JobParallel { job: 2, .. })));
        let split = validate_compact(&cs, &instance(), Variant::NonPreemptive);
        assert!(split
            .iter()
            .any(|v| matches!(v, Violation::JobSplit { job: 2, .. })));
        assert!(!validate_compact(&cs, &instance(), Variant::Splittable)
            .iter()
            .any(|v| matches!(
                v,
                Violation::JobParallel { .. } | Violation::JobSplit { .. }
            )));
    }

    #[test]
    fn compact_ignores_non_positive_lengths_like_expansion() {
        // Expansion drops non-positive-length items (`Schedule::push`);
        // the compact validator must judge the same effective schedule —
        // in particular a negative-length piece must not silently cancel
        // out a job's surplus.
        let mut cs = good_compact();
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![
                    citem(ItemKind::Piece { job: 0, class: 0 }, 30, -1),
                    citem(ItemKind::Setup(0), 40, 2),
                    citem(ItemKind::Piece { job: 0, class: 0 }, 42, 1),
                ],
            },
        );
        let compact_vs = validate_compact(&cs, &instance(), Variant::Splittable);
        let explicit_vs = validate(
            &cs.expand().expect("in range"),
            &instance(),
            Variant::Splittable,
        );
        // Both see job 0 over-scheduled by exactly the +1 piece.
        assert!(compact_vs
            .iter()
            .any(|v| matches!(v, Violation::WrongJobTotal { job: 0, .. })));
        assert_eq!(compact_vs.is_empty(), explicit_vs.is_empty());
        // A zero/negative-length-only group changes nothing for either.
        let mut cs = good_compact();
        cs.push_group(
            1,
            1,
            MachineConfig {
                items: vec![citem(ItemKind::Piece { job: 2, class: 1 }, 0, 0)],
            },
        );
        assert!(validate_compact(&cs, &instance(), Variant::Splittable).is_empty());
        assert!(validate(
            &cs.expand().expect("in range"),
            &instance(),
            Variant::Splittable
        )
        .is_empty());
    }

    #[test]
    fn compact_reports_overflow() {
        let mut cs = good_compact();
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![citem(ItemKind::Piece { job: 0, class: 0 }, 0, 0)]
                    .into_iter()
                    .map(|mut it| {
                        it.start = Rational::new(1i128 << 94, 1);
                        it.len = r(1);
                        it
                    })
                    .collect(),
            },
        );
        assert_eq!(
            validate_compact(&cs, &instance(), Variant::Splittable),
            vec![Violation::TimeOverflow]
        );
    }
}
