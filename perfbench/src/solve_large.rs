//! `solve-large`: library-only solves at n = 50 000 on one reused
//! [`DualWorkspace`] — the whole-core path (probe ladder, build, wrap,
//! expand) with no codec, cache or queue, at the size where the paper's
//! near-linear claims matter.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use bss_core::{solve_with, Completion, DualWorkspace, Solution};
use bss_instance::{Instance, Variant};
use bss_schedule::validate;

use crate::measure::{peak_rss_mb, Phase};
use crate::mirror::{same_solution, solve_traced};
use crate::service::Checker;
use crate::spans::Spans;
use crate::{combo, derive_seed, setup_times, timed_setup, Config, Outcome, Report, Scale, MIX};

/// Instances per family in the pool; cycle `c` uses instance `c % POOL`.
const POOL: usize = 4;

/// The four generated families, in pool order.
const FAMILIES: usize = 4;

/// One cycle: every family × variant × algorithm.
const CYCLE: usize = FAMILIES * MIX;

fn generate(scale: Scale, family: usize, seed: u64) -> Instance {
    let (n, c, m) = match scale {
        Scale::Full => (50_000, 2_500, 64),
        Scale::Tiny => (300, 20, 6),
    };
    match family {
        0 => bss_gen::uniform(n, c, m, seed),
        1 => bss_gen::zipf_classes(n, c, m, seed),
        2 => bss_gen::expensive_setups(n, m, seed),
        _ => bss_gen::small_batches(n, m, seed),
    }
}

struct State {
    /// `pool[family][k]`.
    pool: Vec<Vec<Instance>>,
    ws: DualWorkspace,
}

fn setup(cfg: &Config) -> State {
    let pool = (0..FAMILIES)
        .map(|f| {
            (0..POOL)
                .map(|k| {
                    generate(
                        cfg.scale,
                        f,
                        derive_seed(cfg.seed, 5, (f * POOL + k) as u64),
                    )
                })
                .collect()
        })
        .collect::<Vec<Vec<Instance>>>();
    let mut ws = DualWorkspace::new();
    // Warm-up: size the workspace once per variant.
    for variant in Variant::ALL {
        let sol = solve_with(&mut ws, &pool[0][0], variant, combo(3).1);
        std::hint::black_box(sol.schedule());
    }
    State { pool, ws }
}

/// A hash of every reported figure and every placement of a solution.
fn fingerprint(sol: &Solution) -> u64 {
    let mut h = DefaultHasher::new();
    (sol.makespan, sol.accepted, sol.ratio_bound, sol.certificate).hash(&mut h);
    sol.probes.hash(&mut h);
    for p in sol.schedule().placements() {
        (p.machine, p.start, p.len, p.kind).hash(&mut h);
    }
    h.finish()
}

/// Checks a library solution: a valid schedule whose makespan is the
/// reported one and respects the reported guarantee and certificate.
/// Instances recur every `POOL` cycles and solves are deterministic, so a
/// solution whose fingerprint is in `valid` already passed; only new ones
/// are validated, which keeps checking from doubling a run's length.
fn check(
    sol: &Solution,
    inst: &Instance,
    variant: Variant,
    valid: &mut HashSet<u64>,
) -> Result<(), String> {
    if sol.completion != Completion::Full {
        return Err(format!("completion {:?}", sol.completion));
    }
    let key = fingerprint(sol);
    if valid.contains(&key) {
        return Ok(());
    }
    let schedule = sol.schedule();
    let violations = validate(schedule, inst, variant);
    if let Some(v) = violations.first() {
        return Err(format!("{} violations, first {v:?}", violations.len()));
    }
    if schedule.makespan() != sol.makespan {
        return Err("schedule makespan differs from the reported one".into());
    }
    if sol.makespan > sol.ratio_bound * sol.accepted || sol.certificate > sol.makespan {
        return Err(format!(
            "makespan {} outside [certificate {}, ratio {} x accepted {}]",
            sol.makespan, sol.certificate, sol.ratio_bound, sol.accepted
        ));
    }
    valid.insert(key);
    Ok(())
}

/// Runs `solve-large`.
pub fn run(cfg: &Config) -> Report {
    let (mut state, first_setup) = timed_setup(|| setup(cfg));
    let mut checker = Checker::new();
    let mut spans = Spans::new();
    let mut replay_ws = DualWorkspace::new();
    let mut valid = HashSet::new();

    let mut phase = Phase::new(cfg.seconds, cfg.max_cycles, cfg.trace);
    while phase.more() {
        let k = phase.cycles() % POOL;
        // Traced and untraced cycles alternate by pass over the pool, so
        // both kinds solve the same instances and `trace.overhead_pct`
        // compares like with like.
        phase.traced_cycle = cfg.trace && (phase.cycles() / POOL).is_multiple_of(2);
        for j in 0..CYCLE {
            let inst = &state.pool[j % FAMILIES][k];
            let (variant, algo) = combo(j / FAMILIES);
            let op = checker.begin_op();
            spans.on = phase.traced_cycle;
            spans.set_op(op as u64);
            let ws = &mut state.ws;
            let sol = spans.time("op", |_| {
                phase.op(|| {
                    let sol = solve_with(ws, inst, variant, algo);
                    std::hint::black_box(sol.schedule());
                    sol
                })
            });
            spans.on = false;
            if let Err(err) = check(&sol, inst, variant, &mut valid) {
                checker.fail(Some(op), format!("op {op}: {err}"));
            }
            checker
                .ratios
                .push(sol.makespan.to_f64() / sol.certificate.to_f64());
            checker.phase_counts.solves += 1;
            checker.phase_counts.probes += sol.probes as u64;
            if cfg.trace {
                // The same solve through the delegating problem wrapper, so
                // probes and builds show as spans; it must be the library's
                // solve exactly.
                spans.on = phase.traced_cycle;
                let replayed = spans.time("replay", |spans| {
                    let replayed = solve_traced(&mut replay_ws, inst, variant, algo, spans);
                    spans.time("schedule.expand", |_| {
                        std::hint::black_box(replayed.schedule());
                    });
                    replayed
                });
                spans.on = false;
                if !same_solution(&sol, &replayed) {
                    checker.fail(
                        Some(op),
                        format!("op {op}: traced solve differs from solve_with"),
                    );
                }
            }
        }
        phase.end_cycle();
    }
    let peak = peak_rss_mb();
    drop(state);
    let setup_s = setup_times(first_setup, || setup(cfg), drop);
    Outcome {
        cfg,
        phase,
        setup_s,
        peak_rss_mb: peak,
        spans,
        cache: None,
        checker,
    }
    .report()
}
