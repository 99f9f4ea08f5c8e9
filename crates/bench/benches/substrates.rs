//! Criterion studies of the substrates, including the DESIGN.md ablations.
//!
//! * `wrap_ablation` — the parallel-gap fast path (one `GapRun` of `m` gaps)
//!   vs the naive template (`m` single gaps): the fast path's output and time
//!   are independent of `m`, the naive one is `Θ(n + m)`.
//! * `knapsack` — continuous knapsack on rational weights.
//! * `mcnaughton` — the classic wrap-around substrate.
//! * `validate` — the feasibility validator (test-suite hot path).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use bss_instance::Variant;
use bss_knapsack::{continuous_knapsack, CkItem};
use bss_rational::Rational;
use bss_wrap::{batch_items, mcnaughton, wrap, GapRun, SeqItem, Template};

fn wrap_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("wrap_ablation");
    g.sample_size(20);
    // One giant splittable job over m identical gaps.
    for m in [1_000usize, 10_000, 100_000] {
        // Integral data: the wrap runs on the integer grid.
        let height = 10i128;
        let total = 10 * m as i128 - 5;
        let q: Vec<SeqItem> = batch_items(0, 2, [(0, total - 2)]).collect();
        let fast = Template::new(vec![GapRun {
            first_machine: 0,
            count: m,
            a: 2,
            b: 2 + height,
        }]);
        let naive = Template::new((0..m).map(|u| GapRun::single(u, 2, 12)).collect());
        let setups = [2u64];
        g.bench_with_input(BenchmarkId::new("fast_path", m), &m, |b, _| {
            b.iter(|| black_box(wrap(q.iter().copied(), &fast, &setups, m).expect("fits")))
        });
        g.bench_with_input(BenchmarkId::new("naive_single_gaps", m), &m, |b, _| {
            b.iter(|| black_box(wrap(q.iter().copied(), &naive, &setups, m).expect("fits")))
        });
    }
    g.finish();
}

fn knapsack(c: &mut Criterion) {
    let mut g = c.benchmark_group("knapsack");
    for k in [100usize, 10_000] {
        let items: Vec<CkItem> = (0..k)
            .map(|i| CkItem {
                profit: (i as u64 * 7919) % 1000 + 1,
                weight: Rational::new(((i as i128 * 104729) % 5000) + 1, 3),
            })
            .collect();
        let cap = Rational::from(1000u64 * k as u64 / 4);
        g.bench_with_input(BenchmarkId::new("continuous", k), &items, |b, items| {
            b.iter(|| black_box(continuous_knapsack(items, cap)))
        });
    }
    g.finish();
}

fn mcnaughton_bench(c: &mut Criterion) {
    let times: Vec<u64> = (0..100_000u64).map(|i| i % 977 + 1).collect();
    c.bench_function("mcnaughton_100k", |b| {
        b.iter(|| black_box(mcnaughton(64, &times)))
    });
}

fn validate_bench(c: &mut Criterion) {
    let inst = bss_gen::uniform(50_000, 2_500, 32, 1);
    let sol = bss_core::solve(&inst, Variant::Preemptive, bss_core::Algorithm::ThreeHalves);
    c.bench_function("validate_preemptive_50k", |b| {
        b.iter(|| {
            black_box(bss_schedule::validate(
                sol.schedule(),
                &inst,
                Variant::Preemptive,
            ))
        })
    });
    // The compact-aware validator against the explicit walk on the same
    // splittable output: group-level checks never pay O(total_items + m).
    let split = bss_core::solve(&inst, Variant::Splittable, bss_core::Algorithm::ThreeHalves);
    let compact = split.compact().expect("splittable is compact");
    c.bench_function("validate_compact_splittable_50k", |b| {
        b.iter(|| {
            black_box(bss_schedule::validate_compact(
                compact,
                &inst,
                Variant::Splittable,
            ))
        })
    });
    c.bench_function("validate_explicit_splittable_50k", |b| {
        b.iter(|| {
            black_box(bss_schedule::validate(
                split.schedule(),
                &inst,
                Variant::Splittable,
            ))
        })
    });
}

criterion_group!(
    benches,
    wrap_ablation,
    knapsack,
    mcnaughton_bench,
    validate_bench
);
criterion_main!(benches);
