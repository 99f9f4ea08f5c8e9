//! The repository's benchmark: workloads over the library and the
//! `bss-serve` solve service. Untraced runs give the end-to-end metrics;
//! traced runs replay every op layer by layer and give the per-layer
//! metrics. `README.md` in this directory explains the workloads, the
//! metrics and what each layer metric is predicted to move.

#![deny(unsafe_code)]

pub mod measure;
pub mod mirror;
pub mod spans;

mod serve;
mod service;
mod session;
mod solve_large;

use std::path::PathBuf;

use bss_core::Algorithm;
use bss_instance::Variant;
use bss_serve::ServeConfig;

use crate::service::Checker;
use crate::spans::Spans;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Library-only solves at n = 50 000.
    SolveLarge,
    /// Service solves of distinct instances: every request misses the cache.
    ServeCold,
    /// Service solves from a small pool solved during set-up: every request
    /// hits the cache.
    ServeHot,
    /// Service sessions: one op is one delta plus one warm resolve.
    SessionOnline,
}

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 4] = [
        Workload::SolveLarge,
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::SessionOnline,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLarge => "solve-large",
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::SessionOnline => "session-online",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Small inputs for tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase (see [`measure::Phase::new`]).
    pub seconds: f64,
    /// Traced run: replay every op and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Run exactly this many cycles instead of `seconds` (tests use it to
    /// get counts that repeat exactly).
    pub max_cycles: Option<usize>,
    /// Where a traced run writes its spans file.
    pub spans_dir: PathBuf,
}

/// One named metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops attempted in the timed phase.
    pub attempted: usize,
    /// Ops that failed (error, shed, non-`Full` completion or mismatch).
    pub failed: usize,
    /// Whether every check passed.
    pub correct: bool,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Exact counts, printed every run.
    pub counts: Vec<(&'static str, u64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// `makespan / certificate`, averaged over checked ops.
    pub makespan_ratio_mean: f64,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Runs one workload.
#[must_use]
pub fn run(cfg: &Config) -> Report {
    measure::pin_to_one_cpu();
    match cfg.workload {
        Workload::SolveLarge => solve_large::run(cfg),
        Workload::ServeCold => serve::run(cfg, false),
        Workload::ServeHot => serve::run(cfg, true),
        Workload::SessionOnline => session::run(cfg),
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Runs `setup` and times it.
fn timed_setup<S>(setup: impl FnOnce() -> S) -> (S, f64) {
    let t0 = std::time::Instant::now();
    let state = setup();
    (state, t0.elapsed().as_secs_f64())
}

/// All set-up times of a run: `first`, the set-up the timed phase ran on,
/// then `SETUPS - 1` more, each torn down by `stop`. They run last, after
/// the checks: the timed phase and its `peak_rss_mb` reading then see one
/// set-up, and no set-up overlaps the server freeing its cache.
fn setup_times<S>(first: f64, mut setup: impl FnMut() -> S, mut stop: impl FnMut(S)) -> Vec<f64> {
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let (state, t) = timed_setup(&mut setup);
        times.push(t);
        stop(state);
    }
    times
}

/// The server every service workload runs: the defaults — the 1024-entry
/// solve cache included — except one solver worker, all a closed loop with
/// one request in flight can use.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// The solve-request mix of `solve-large` and the serve workloads: every
/// variant under the two paper algorithms.
const ALGOS: [Algorithm; 2] = [
    Algorithm::ThreeHalves,
    Algorithm::EpsilonSearch { eps_log2: 10 },
];

/// Length of the (variant, algorithm) mix.
const MIX: usize = 6;

/// The `i`-th (variant, algorithm) pair of the mix.
fn combo(i: usize) -> (Variant, Algorithm) {
    (Variant::ALL[i % 3], ALGOS[(i / 3) % 2])
}

/// Derives the seed of input `index` of stream `stream` (SplitMix64).
fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a run measured, turned into a [`Report`].
struct Outcome<'a> {
    cfg: &'a Config,
    phase: measure::Phase,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    spans: Spans,
    /// Server-side cache counters over the timed phase:
    /// (hits, misses, evictions, entries at the end).
    cache: Option<(u64, u64, u64, u64)>,
    /// Failures, ratios and replay counts.
    checker: Checker,
}

impl Outcome<'_> {
    fn report(self) -> Report {
        let cfg = self.cfg;
        let checker = &self.checker;
        let attempted = checker.failed.len();
        let failed = checker.failed.iter().filter(|f| **f).count();
        let ratios = &checker.ratios;
        let makespan_ratio_mean = if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        let all = &checker.mirror.counts;
        let ops = &checker.phase_counts;
        let mut counts = vec![
            ("ops", self.phase.ops() as u64),
            ("cycles", self.phase.cycles() as u64),
            ("replayed_requests", all.requests),
            ("frame_req_bytes", all.req_bytes),
            ("frame_resp_bytes", all.resp_bytes),
            ("phase_frame_req_bytes", ops.req_bytes),
            ("phase_frame_resp_bytes", ops.resp_bytes),
            ("cold_solves", all.solves),
            ("cold_probes", all.probes),
            ("phase_cold_solves", ops.solves),
            ("phase_cold_probes", ops.probes),
            ("warm_solves", all.warm_solves),
            ("warm_probes", all.warm_probes),
            ("warm_skipped", all.warm_skipped),
        ];
        if let Some((hits, misses, evictions, entries)) = self.cache {
            counts.extend([
                ("cache_hits", hits),
                ("cache_misses", misses),
                ("cache_evictions", evictions),
                ("cache_entries", entries),
            ]);
        }
        let mut notes = vec![format!(
            "workload {} seed {} trace {}: {} ops in {} cycles, {} failed",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.trace),
            attempted,
            self.phase.cycles(),
            failed
        )];
        notes.extend(checker.errors.iter().map(|e| format!("FAILED {e}")));
        if cfg.trace {
            let path = cfg.spans_dir.join(format!(
                "spans-{}-seed{}.tsv",
                cfg.workload.name(),
                cfg.seed
            ));
            match self.spans.write_tsv(&path) {
                Ok(()) => notes.push(format!("spans written to {}", path.display())),
                Err(err) => notes.push(format!("could not write {}: {err}", path.display())),
            }
        }
        let metrics = if cfg.trace {
            self.layer_metrics(&mut notes)
        } else {
            notes.push(format!(
                "latency p50 {:.3} ms and p90 {:.3} ms over {} samples; setup_s samples {:?}",
                self.phase.latency_ms(50.0),
                self.phase.latency_ms(90.0),
                self.phase.ops(),
                self.setup_s
            ));
            vec![
                metric("throughput_ops_s", "ops/s", self.phase.throughput(None)),
                metric("latency_p50_ms", "ms", self.phase.latency_ms(50.0)),
                metric("latency_p90_ms", "ms", self.phase.latency_ms(90.0)),
                metric(
                    "ok_frac",
                    "frac",
                    (attempted - failed) as f64 / attempted.max(1) as f64,
                ),
                metric("makespan_ratio_mean", "ratio", makespan_ratio_mean),
                metric("cpu_ms_per_op", "ms", self.phase.cpu_ms_per_op()),
                metric("peak_rss_mb", "MiB", self.peak_rss_mb),
                metric("setup_s", "s", measure::median(&self.setup_s)),
            ]
        };
        Report {
            attempted,
            failed,
            correct: failed == 0 && attempted > 0 && !checker.setup_failed,
            metrics,
            counts,
            notes,
            makespan_ratio_mean,
        }
    }

    /// Per-layer metrics from the traced cycles' spans.
    fn layer_metrics(&self, notes: &mut Vec<String>) -> Vec<Metric> {
        let layers = self.spans.layer_times();
        let traced_ops = layers.get("op").map_or(0, |l| l.count).max(1) as f64;
        let self_us = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e3);
        let total_us = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e3);
        let count = |name: &str| layers.get(name).map_or(0, |l| l.count) as f64;
        let per_op = |us: f64| us / traced_ops;

        notes.push(format!(
            "{:<22} {:>12} {:>12} {:>10}   (traced ops: {traced_ops})",
            "span", "self us/op", "incl us/op", "count"
        ));
        for (name, l) in &layers {
            notes.push(format!(
                "{:<22} {:>12.3} {:>12.3} {:>10}",
                name,
                per_op(l.self_ns as f64 / 1e3),
                per_op(l.total_ns as f64 / 1e3),
                l.count
            ));
        }

        // The server's share of a live call: the call minus the client's
        // own encode and decode (as replayed). What the replayed server
        // layers do not explain is queue wait, thread handoffs and socket
        // I/O.
        let turnaround =
            self_us("client.call") - total_us("client.encode") - total_us("client.decode");
        let server_layers: f64 = [
            "json.parse",
            "protocol.decode",
            "instance.hash",
            "instance.session",
            "instance.delta",
            "instance.materialize",
            "cache.lookup",
            "cache.insert",
            "core.solve",
            "core.warm_solve",
            "protocol.wire",
            "json.resp_encode",
        ]
        .iter()
        .map(|n| total_us(n))
        .sum();
        let is_service = layers.contains_key("client.call");
        let (turnaround, unattributed) = if is_service {
            (per_op(turnaround), per_op(turnaround - server_layers))
        } else {
            (0.0, 0.0)
        };
        let ops = self.phase.ops().max(1) as f64;
        let oc = &self.checker.phase_counts;
        let warm = oc.warm_solves.max(1) as f64;
        let (hits, misses, evictions, entries) = self.cache.unwrap_or((0, 0, 0, 0));
        let untraced = self.phase.throughput(Some(false));
        let traced = self.phase.throughput(Some(true));
        notes.push(format!(
            "tracing overhead: traced cycles {traced:.2} ops/s, untraced cycles {untraced:.2} ops/s"
        ));
        let probes = oc.probes as f64 / oc.solves.max(1) as f64;
        vec![
            metric("client.encode_us", "us", per_op(self_us("client.encode"))),
            metric("client.decode_us", "us", per_op(self_us("client.decode"))),
            metric("frame.req_bytes", "bytes", oc.req_bytes as f64 / ops),
            metric("frame.resp_bytes", "bytes", oc.resp_bytes as f64 / ops),
            metric("json.parse_us", "us", per_op(self_us("json.parse"))),
            metric(
                "protocol.decode_us",
                "us",
                per_op(self_us("protocol.decode")),
            ),
            metric(
                "instance.decode_us",
                "us",
                per_op(self_us("instance.decode")),
            ),
            metric(
                "json.resp_encode_us",
                "us",
                per_op(self_us("json.resp_encode")),
            ),
            metric("cache.lookup_us", "us", per_op(self_us("cache.lookup"))),
            metric(
                "cache.hit_ratio",
                "frac",
                if hits + misses > 0 {
                    hits as f64 / (hits + misses) as f64
                } else {
                    0.0
                },
            ),
            metric("cache.insert_us", "us", per_op(self_us("cache.insert"))),
            metric("cache.entries", "count", entries as f64),
            metric("cache.evictions", "count", evictions as f64),
            metric("instance.delta_us", "us", per_op(self_us("instance.delta"))),
            metric("instance.hash_us", "us", per_op(self_us("instance.hash"))),
            metric(
                "instance.materialize_us",
                "us",
                per_op(self_us("instance.materialize")),
            ),
            metric("core.solve_us", "us", per_op(total_us("core.solve"))),
            metric("core.probes_per_solve", "count", probes),
            metric(
                "core.probe_us",
                "us",
                self_us("core.probe") / count("core.probe").max(1.0),
            ),
            metric("core.build_us", "us", per_op(self_us("core.build"))),
            metric(
                "schedule.expand_us",
                "us",
                per_op(self_us("schedule.expand")),
            ),
            metric(
                "core.warm_solve_us",
                "us",
                per_op(self_us("core.warm_solve")),
            ),
            metric("core.warm_probes", "count", oc.warm_probes as f64 / warm),
            metric("core.warm_skipped", "count", oc.warm_skipped as f64 / warm),
            metric("server.turnaround_us", "us", turnaround),
            metric("server.unattributed_us", "us", unattributed),
            metric(
                "trace.overhead_pct",
                "%",
                if untraced > 0.0 && traced > 0.0 {
                    100.0 * (1.0 - traced / untraced)
                } else {
                    0.0
                },
            ),
        ]
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}
