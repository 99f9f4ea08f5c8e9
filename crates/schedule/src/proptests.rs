//! Representation properties of the tick-grid storage: the `Rational` push
//! API (which widens the grid on demand) and the tick API on a pre-chosen
//! grid store the same values; the makespan is the largest decoded end;
//! JSON round trips are exact; a compact schedule expands to exactly its
//! decoded group items.

#![cfg(test)]

use bss_rational::{gcd, Rational};
use proptest::prelude::*;

use crate::{to_ticks, CompactSchedule, ConfigItem, ItemKind, MachineConfig, Placement, Schedule};

/// Raw placement parameters: machine, start `num/den`, length `num/den`,
/// and a kind code (setups for even codes).
type Raw = (usize, i128, i128, i128, i128, usize);

fn raw_placements() -> impl Strategy<Value = Vec<Raw>> {
    proptest::collection::vec(
        (
            0usize..4,
            0i128..400,
            1i128..13,
            1i128..200,
            1i128..13,
            0usize..40,
        ),
        0..40,
    )
}

fn placement(&(machine, sn, sd, ln, ld, code): &Raw) -> Placement {
    let kind = if code % 2 == 0 {
        ItemKind::Setup(code % 5)
    } else {
        ItemKind::Piece {
            job: code / 2,
            class: code % 5,
        }
    };
    Placement::new(machine, Rational::new(sn, sd), Rational::new(ln, ld), kind)
}

/// The lcm of every denominator, times `extra`: a grid chosen up front.
fn common_grid(placements: &[Placement], extra: i128) -> i128 {
    placements
        .iter()
        .flat_map(|p| [p.start.denom(), p.len.denom()])
        .fold(extra, |g, d| g / gcd(g, d) * d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rational_pushes_equal_pre_gridded_pushes(raw in raw_placements(), extra in 1i128..5) {
        let placements: Vec<Placement> = raw.iter().map(placement).collect();
        let mut widened = Schedule::new(4);
        for &p in &placements {
            widened.push(p);
        }
        let grid = common_grid(&placements, extra);
        let mut gridded = Schedule::with_grid(4, grid);
        for p in &placements {
            gridded.push_ticks(p.machine, to_ticks(p.start, grid), to_ticks(p.len, grid), p.kind);
        }
        prop_assert_eq!(&widened, &gridded);
        prop_assert_eq!(gridded.grid() % widened.grid(), 0);
        prop_assert!(widened.placements().eq(placements.iter().copied()));
        prop_assert_eq!(widened.to_json(), gridded.to_json());
    }

    #[test]
    fn makespan_is_the_largest_decoded_end(raw in raw_placements()) {
        let mut s = Schedule::new(4);
        for p in raw.iter().map(placement) {
            s.push(p);
        }
        let largest = s.placements().map(|p| p.end()).max().unwrap_or(Rational::ZERO);
        prop_assert_eq!(s.makespan(), largest);
        if !raw.is_empty() {
            let first = s.placements().next().expect("non-empty");
            s.retain(|p| *p != first);
            let largest = s.placements().map(|p| p.end()).max().unwrap_or(Rational::ZERO);
            prop_assert_eq!(s.makespan(), largest);
        }
    }

    #[test]
    fn json_round_trips_are_exact(raw in raw_placements()) {
        let mut s = Schedule::new(4);
        for p in raw.iter().map(placement) {
            s.push(p);
        }
        let json = s.to_json();
        let back = Schedule::from_json(&json).expect("own output decodes");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.to_json(), json);
        prop_assert_eq!(back.makespan(), s.makespan());
    }

    #[test]
    fn compact_expansion_decodes_group_items(raw in raw_placements(), counts in proptest::collection::vec(1usize..4, 1..6)) {
        // Items in groups of up to 8, group k on machines k.. with
        // multiplicity `counts[k % len]`.
        let items: Vec<ConfigItem> = raw
            .iter()
            .map(placement)
            .map(|p| ConfigItem { start: p.start, len: p.len, kind: p.kind })
            .collect();
        let machines = 16;
        let mut cs = CompactSchedule::new(machines);
        for (k, chunk) in items.chunks(8).enumerate() {
            cs.push_group(k, counts[k % counts.len()], MachineConfig { items: chunk.to_vec() });
        }
        let expanded = cs.expand().expect("groups fit 16 machines");
        let mut decoded = Vec::new();
        for g in cs.groups() {
            for k in 0..g.count {
                for item in g.items() {
                    decoded.push(Placement::new(g.first_machine + k, item.start, item.len, item.kind));
                }
            }
        }
        prop_assert!(expanded.placements().eq(decoded.iter().copied()));
        prop_assert_eq!(expanded.makespan(), cs.makespan());
        let mut streamed = Schedule::new(machines);
        cs.expand_into(&mut streamed).expect("in range");
        prop_assert_eq!(&streamed, &expanded);
        let json = bss_json::encode_pretty(&cs);
        let back: CompactSchedule = bss_json::decode(&json).expect("own output decodes");
        prop_assert_eq!(&back, &cs);
        prop_assert_eq!(bss_json::encode_pretty(&back), json);
    }
}
