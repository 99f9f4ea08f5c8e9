//! Property suite pinning the speculative parallel search to its
//! sequential twin, bit for bit.
//!
//! The contract of `crate::par` is *determinism*: at every thread count the
//! parallel search commits exactly the probe sequence the sequential search
//! would run — same accepted bracket, same rejection certificate, same
//! probe count, same solution bytes, and (because only the committed path
//! charges the budget, in sequential order) the same interruption point for
//! every work limit. These properties sweep random instances, algorithms,
//! thread counts and budget cut points to hold that line.
//!
//! The same sweep pins the warm-start ladder to the cold one: under every
//! work limit a warm solve matches the cold solve in every field but
//! `probes` (the budget charges bisection queries, memo answers included),
//! and warm solves match across thread counts.
//!
//! Case count scales with `BSS_PROPTEST_CASES` (the nightly CI raises it);
//! `BSS_PAR_THREADS=N` restricts the thread sweep to `{N}` so CI can pin
//! specific counts per job.

use bss_budget::SolveBudget;
use bss_core::search::{epsilon_search_between, integer_search};
use bss_core::{
    solve_with, solve_with_config, Algorithm, BssProblem, DualWorkspace, Problem, Solution,
    SolveConfig, WarmStart,
};
use bss_instance::{LowerBounds, Variant};
use proptest::prelude::*;

/// The thread counts every property sweeps (each compared against the
/// sequential search). `BSS_PAR_THREADS=N` pins the sweep to `{N}`.
fn thread_counts() -> Vec<usize> {
    match std::env::var("BSS_PAR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => vec![n],
        _ => vec![1, 2, 4, 8],
    }
}

fn algorithm(idx: u8, eps_log2: u32) -> Algorithm {
    match idx % 3 {
        0 => Algorithm::EpsilonSearch { eps_log2 },
        1 => Algorithm::ThreeHalves,
        _ => Algorithm::Portfolio,
    }
}

/// A configuration on `ws` with `threads` threads under `budget`.
fn cfg<'a>(ws: &'a mut DualWorkspace, threads: usize, budget: &'a SolveBudget) -> SolveConfig<'a> {
    SolveConfig {
        workspace: Some(ws),
        budget: Some(budget),
        threads,
        ..SolveConfig::default()
    }
}

fn assert_solutions_identical(label: &str, a: &Solution, b: &Solution) {
    assert_eq!(a.probes, b.probes, "{label}: probes");
    assert_same_but_probes(label, a, b);
}

/// Bit-identity in every field but `probes` — what a warm start promises.
fn assert_same_but_probes(label: &str, a: &Solution, b: &Solution) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.accepted, b.accepted, "{label}: accepted");
    assert_eq!(a.ratio_bound, b.ratio_bound, "{label}: ratio_bound");
    assert_eq!(a.certificate, b.certificate, "{label}: certificate");
    assert_eq!(a.completion, b.completion, "{label}: completion");
    assert_eq!(a.schedule(), b.schedule(), "{label}: schedule");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full-solve bit-identity: a solve on `threads` threads ≡ `solve` for
    /// every variant, search-bearing algorithm and thread count.
    #[test]
    fn solve_par_is_bit_identical_to_solve(
        n in 20usize..70,
        c in 2usize..8,
        m in 2usize..6,
        seed in 0u64..10_000,
        eps_log2 in 2u32..8,
        variant_idx in 0usize..3,
    ) {
        let inst = bss_gen::uniform(n, c, m, seed);
        let variant = Variant::ALL[variant_idx];
        // Derived from the seed to stay within the macro's parameter arity.
        let algo = algorithm((seed % 3) as u8, eps_log2);
        let mut ws = DualWorkspace::new();
        let want = solve_with(&mut ws, &inst, variant, algo);
        for threads in thread_counts() {
            let unlimited = SolveBudget::unlimited();
            let got = solve_with_config(&inst, variant, algo, cfg(&mut ws, threads, &unlimited))
                .expect("unbudgeted solves do not panic");
            assert_solutions_identical(
                &format!("{variant} {algo:?} t={threads} seed={seed}"),
                &got,
                &want,
            );
        }
    }

    /// Work-limit interruption points are deterministic: for *every* cut
    /// point `w` up to the solve's full probe count, the parallel solve
    /// degrades at exactly the same place as the sequential one — same
    /// completion tag, same (partial) certificate, same work accounting.
    #[test]
    fn work_limit_interruption_points_match(
        n in 20usize..60,
        c in 2usize..7,
        m in 2usize..5,
        seed in 0u64..10_000,
        eps_log2 in 3u32..8,
        variant_idx in 0usize..3,
    ) {
        let inst = bss_gen::uniform(n, c, m, seed);
        let variant = Variant::ALL[variant_idx];
        let algo = Algorithm::EpsilonSearch { eps_log2 };
        let mut ws = DualWorkspace::new();
        let full = solve_with(&mut ws, &inst, variant, algo);
        for w in 0..=(full.probes as u64 + 1) {
            let seq_budget = SolveBudget::unlimited().with_work_limit(w);
            let want = solve_with_config(&inst, variant, algo, cfg(&mut ws, 1, &seq_budget))
                .expect("budget expiry degrades, never errors");
            for threads in thread_counts() {
                let par_budget = SolveBudget::unlimited().with_work_limit(w);
                let par = cfg(&mut ws, threads, &par_budget);
                let got = solve_with_config(&inst, variant, algo, par)
                    .expect("budget expiry degrades, never errors");
                assert_solutions_identical(
                    &format!("{variant} w={w} t={threads} seed={seed}"),
                    &got,
                    &want,
                );
                prop_assert_eq!(
                    par_budget.work_used(),
                    seq_budget.work_used(),
                    "work accounting diverged at w={} t={}",
                    w,
                    threads
                );
            }
        }
    }

    /// Raw ε-search equivalence on real dual probes: accepted bracket,
    /// rejection certificate and probe count all match, per thread count.
    #[test]
    fn epsilon_search_par_matches_on_real_duals(
        n in 20usize..60,
        c in 2usize..7,
        m in 2usize..5,
        seed in 0u64..10_000,
        eps_log2 in 2u32..9,
        variant_idx in 0usize..3,
    ) {
        let inst = bss_gen::uniform(n, c, m, seed);
        let variant = Variant::ALL[variant_idx];
        let problem = BssProblem::new(&inst, variant);
        let t_min = problem.t_min();
        prop_assume!(t_min.is_positive());
        let t_hi = problem.search_hi();
        let gap = t_min / (1u64 << eps_log2);
        let mut ws = DualWorkspace::new();
        let unlimited = SolveBudget::unlimited();
        let seq = cfg(&mut ws, 1, &unlimited);
        let (want, _) = epsilon_search_between(t_min, t_hi, gap, seq, |w, t| problem.probe(w, t));
        for threads in thread_counts() {
            let (got, _) = epsilon_search_between(
                t_min,
                t_hi,
                gap,
                cfg(&mut ws, threads, &unlimited),
                |w, t| problem.probe(w, t),
            );
            prop_assert_eq!(got, want, "t={} seed={}", threads, seed);
        }
    }

    /// Raw integer-search equivalence on the non-preemptive 3/2-dual.
    #[test]
    fn integer_search_par_matches_on_real_duals(
        n in 20usize..60,
        c in 2usize..7,
        m in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let inst = bss_gen::uniform(n, c, m, seed);
        prop_assume!(inst.machines() < inst.num_jobs());
        let t_min = LowerBounds::of(&inst)
            .tmin(Variant::NonPreemptive)
            .ceil() as u64;
        let accepts = |_: &mut DualWorkspace, t: u64| bss_core::nonpreemptive::accepts(&inst, t);
        let unlimited = SolveBudget::unlimited();
        let mut ws = DualWorkspace::new();
        let (want, _) = integer_search(t_min, 2 * t_min, cfg(&mut ws, 1, &unlimited), accepts);
        for threads in thread_counts() {
            let (got, _) = integer_search(
                t_min,
                2 * t_min,
                cfg(&mut ws, threads, &unlimited),
                |_, t| bss_core::nonpreemptive::accepts(&inst, t),
            );
            prop_assert_eq!(got, want, "t={} seed={}", threads, seed);
        }
    }

    /// Warm with a budget: for every work limit `w` up to the cold solve's
    /// probe count, the warm re-solve after a one-job delta matches the
    /// cold solve under the same limit in every field but `probes`, with
    /// the same work charged — and warm solves at every thread count match
    /// the sequential warm solve bit for bit.
    #[test]
    fn warm_under_a_work_limit_matches_cold_under_it(
        n in 20usize..60,
        c in 2usize..7,
        m in 2usize..5,
        seed in 0u64..10_000,
        eps_log2 in 3u32..9,
        variant_idx in 0usize..3,
    ) {
        use bss_instance::{Delta, IncrementalInstance};

        let base = bss_gen::uniform(n, c, m, seed);
        let variant = Variant::ALL[variant_idx];
        let algo = Algorithm::EpsilonSearch { eps_log2 };
        let mut ws = DualWorkspace::new();
        let mut inc = IncrementalInstance::new(&base);
        let old_load = u128::from(inc.total_load_once());
        inc.apply(Delta::AddJob { class: 0, time: 1 + seed % 40 }).unwrap();
        let inst = inc.materialize();
        let prev = solve_with(&mut ws, &base, variant, algo);
        let hint = WarmStart::of(&prev).widen_by_load_shift(
            old_load,
            u128::from(inc.total_load_once()),
            inst.machines(),
        );
        let cold = solve_with(&mut ws, &inst, variant, algo);
        for w in 0..=(cold.probes as u64 + 1) {
            let cold_budget = SolveBudget::unlimited().with_work_limit(w);
            let want = solve_with_config(&inst, variant, algo, cfg(&mut ws, 1, &cold_budget))
                .expect("budget expiry degrades, never errors");
            let warm_budget = SolveBudget::unlimited().with_work_limit(w);
            let warm = SolveConfig {
                warm: Some(hint),
                ..cfg(&mut ws, 1, &warm_budget)
            };
            let got = solve_with_config(&inst, variant, algo, warm)
                .expect("budget expiry degrades, never errors");
            assert_same_but_probes(&format!("{variant} w={w} seed={seed}"), &got, &want);
            prop_assert_eq!(
                warm_budget.work_used(),
                cold_budget.work_used(),
                "warm work accounting diverged at w={}",
                w
            );
            for threads in [2, 8] {
                let par_budget = SolveBudget::unlimited().with_work_limit(w);
                let par = SolveConfig {
                    warm: Some(hint),
                    ..cfg(&mut ws, threads, &par_budget)
                };
                let par = solve_with_config(&inst, variant, algo, par)
                    .expect("budget expiry degrades, never errors");
                assert_solutions_identical(
                    &format!("warm {variant} w={w} t={threads} seed={seed}"),
                    &par,
                    &got,
                );
                prop_assert_eq!(par_budget.work_used(), warm_budget.work_used());
            }
        }
    }
}
