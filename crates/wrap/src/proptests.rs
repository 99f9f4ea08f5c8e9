//! Property tests for `Wrap`: random capacity-sufficient templates and batch
//! sequences must always wrap into feasible, load-conserving placements.

#![cfg(test)]

use bss_rational::Rational;
use bss_schedule::{CompactSchedule, ItemKind};
use proptest::prelude::*;

use crate::{batch_items, wrap_append, GapRun, SeqItem, SeqKind, Template};

/// Wraps on the case's grid.
fn wrap_on(
    q: &[SeqItem],
    template: &Template,
    setups: &[u64],
    machines: usize,
    grid: i128,
) -> CompactSchedule {
    let mut out = CompactSchedule::with_grid(machines, grid);
    wrap_append(q.iter().copied(), template.runs(), setups, &mut out).expect("capacity suffices");
    out
}

/// A random template with gaps tall enough for the jobs and with room for
/// setups below every gap but the first (Lemma 6's preconditions), plus a
/// sequence of batches whose load does not exceed the capacity. Times are
/// ticks of `1/gaps`, so the gap height `load/gaps` is exact.
fn arb_case() -> impl Strategy<Value = (Template, Vec<SeqItem>, Vec<u64>, usize)> {
    // setups: 1..=smax_cap; gap band [a, b) with a >= smax, height >= tmax.
    (
        proptest::collection::vec(1u64..8, 1..5), // class setups
        proptest::collection::vec((0usize..4, 1u64..12), 1..25), // (class idx, job time)
        1usize..12,                               // gap count
    )
        .prop_map(|(setups, jobs, gaps)| {
            let smax = *setups.iter().max().expect("non-empty");
            let tmax = jobs.iter().map(|j| j.1).max().unwrap_or(1);
            let grid = gaps as i128;
            let mut q = Vec::new();
            let mut current: Option<usize> = None;
            for (cidx, t) in &jobs {
                let class = cidx % setups.len();
                let len = i128::from(*t) * grid;
                if current == Some(class) {
                    q.push(SeqItem {
                        class,
                        kind: SeqKind::Piece(*cidx),
                        len,
                    });
                } else {
                    q.extend(batch_items(
                        class,
                        i128::from(setups[class]) * grid,
                        [(*cidx, len)],
                    ));
                    current = Some(class);
                }
            }
            // Height per gap: load/gaps + tmax + smax keeps capacity ample
            // and every job within one gap height.
            let load: i128 = q.iter().map(|i| i.len).sum();
            let height = i128::from(tmax + smax) * grid + load / grid;
            let a = i128::from(smax) * grid;
            let template = Template::new(vec![GapRun {
                first_machine: 0,
                count: gaps,
                a,
                b: a + height,
            }]);
            let machines = gaps;
            (template, q, setups, machines)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wrap_succeeds_and_is_feasible((template, q, setups, machines) in arb_case()) {
        let grid = machines as i128;
        let out = wrap_on(&q, &template, &setups, machines, grid);
        let s = out.expand().expect("wrap output is in machine range");
        // The streaming path must agree with expand bit for bit.
        let mut streamed = bss_schedule::Schedule::with_grid(machines, grid);
        crate::wrap_into(q.iter().copied(), template.runs(), &setups, &mut streamed)
            .expect("capacity suffices");
        prop_assert_eq!(&streamed, &s);
        // Load conservation: pieces total the sequence's job load.
        let placed: Rational = s
            .placements()
            .filter(|p| !p.kind.is_setup())
            .map(|p| p.len)
            .fold(Rational::ZERO, |x, y| x + y);
        let expected: i128 = q
            .iter()
            .filter(|i| matches!(i.kind, SeqKind::Piece(_)))
            .map(|i| i.len)
            .sum::<i128>();
        prop_assert_eq!(placed, Rational::new(expected, grid));
        // Machine exclusivity.
        for u in 0..machines {
            let tl = s.machine_timeline(u);
            for w in tl.windows(2) {
                prop_assert!(w[1].start >= w[0].end(), "overlap on machine {u}");
            }
        }
        // Setup coverage: walking each machine, every piece follows a setup
        // of its class.
        for u in 0..machines {
            let mut configured = None;
            for p in s.machine_timeline(u) {
                match p.kind {
                    ItemKind::Setup(c) => configured = Some(c),
                    ItemKind::Piece { class, .. } => {
                        prop_assert_eq!(configured, Some(class), "machine {}", u);
                    }
                }
            }
        }
        // Nothing starts below time 0; nothing inside the band exceeds b.
        for p in s.placements() {
            prop_assert!(!p.start.is_negative());
            if !p.kind.is_setup() {
                prop_assert!(p.end() <= Rational::new(template.runs()[0].b, grid));
            }
        }
    }

    /// Compact output stays small: stored items are bounded by the sequence
    /// length plus a constant per run, never by the gap count.
    #[test]
    fn wrap_output_is_compact((template, q, setups, machines) in arb_case()) {
        let out = wrap_on(&q, &template, &setups, machines, machines as i128);
        prop_assert!(
            out.stored_items() <= 3 * q.len() + 8,
            "stored {} vs |Q| = {}",
            out.stored_items(),
            q.len()
        );
    }
}
