//! `session-online`: many short sessions on the in-process server, one
//! session per cycle. A cycle's ops are, in order:
//!
//! 1. `open`: a `session` request carrying the 20 000-job base, then its
//!    first, cold `resolve`;
//! 2. `solve-hit`: a `solve` request for the base under the session's own
//!    variant and algorithm, which the opening resolve put in the shared
//!    cache, so it hits and `lookup` walks the full instance;
//! 3. `solve-queued`: a `solve` request for the base under `ThreeHalves`, a
//!    miss that goes through the queue, the dispatcher and a solver worker;
//! 4. one op per event of a seeded arrival trace: a `delta` plus a warm
//!    `resolve`.
//!
//! Short sessions keep the op mix independent of where a run stops: per-event
//! cost drifts along one long trace.

use std::time::Duration;

use bss_core::Algorithm;
use bss_gen::online::{OnlineSpec, OnlineTrace};
use bss_gen::FamilySpec;
use bss_instance::{Delta, IncrementalInstance, Instance, Variant};
use bss_serve::protocol::SolveRequest;
use bss_serve::{Request, SessionAck, SessionRequest, SolveOptions};

use crate::measure::{median, peak_rss_mb, Phase};
use crate::mirror::Reply;
use crate::service::{cache_delta, Checker, Live, Sent};
use crate::spans::Spans;
use crate::{derive_seed, setup_times, timed_setup, Config, Outcome, Report, Scale};

/// The only algorithm `solve_warm` warms.
const ALGO: Algorithm = Algorithm::EpsilonSearch { eps_log2: 10 };

/// The algorithm of the `solve-queued` op: not the session's, so its cache
/// key is new and the request is solved on the worker.
const QUEUED_ALGO: Algorithm = Algorithm::ThreeHalves;

/// What a sent session request was.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Open session `s` on its base instance.
    Open(usize),
    Delta(Delta),
    Resolve,
    /// A `solve` request for the session's base instance.
    Solve(Algorithm),
}

/// The kinds of op of a cycle, for the per-kind latency note.
const KINDS: [&str; 4] = ["open", "solve-hit", "solve-queued", "event"];

struct Shape {
    jobs: usize,
    classes: usize,
    machines: usize,
    events: usize,
}

impl Shape {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Shape {
                jobs: 20_000,
                classes: 100,
                machines: 32,
                events: 48,
            },
            Scale::Tiny => Shape {
                jobs: 80,
                classes: 8,
                machines: 4,
                events: 4,
            },
        }
    }

    fn base(&self, seed: u64, s: usize) -> FamilySpec {
        FamilySpec::Uniform {
            jobs: self.jobs,
            classes: self.classes,
            machines: self.machines,
            seed: derive_seed(seed, 3, s as u64),
        }
    }

    /// Session `s`: its base instance and arrival trace.
    fn session(&self, seed: u64, s: usize) -> OnlineTrace {
        OnlineSpec::poisson_like(
            self.base(seed, s),
            self.events,
            derive_seed(seed, 4, s as u64),
        )
        .build()
    }
}

/// Sessions rotate through the three variants.
fn variant(s: usize) -> Variant {
    Variant::ALL[s % 3]
}

/// The request the client builds for `msg`.
fn request(msg: Msg, id: u64, base: &Instance, s: usize) -> Request {
    match msg {
        Msg::Open(_) => Request::Session(Box::new(SessionRequest {
            id,
            instance: base.clone(),
            variant: variant(s),
            algo: ALGO,
        })),
        Msg::Delta(delta) => Request::Delta { id, delta },
        Msg::Resolve => Request::Resolve {
            id,
            want_schedule: false,
        },
        Msg::Solve(algo) => Request::Solve(Box::new(SolveRequest {
            id,
            instance: base.clone(),
            variant: variant(s),
            algo,
            deadline_ms: None,
            work_budget: None,
            want_schedule: false,
        })),
    }
}

/// Sends `msgs` in order on the live connection of session `s`, each call
/// a `client.call` span, and returns each request's id and reply.
fn call(
    live: &mut Live,
    base: &Instance,
    s: usize,
    msgs: &[Msg],
    spans: &mut Spans,
) -> Vec<(u64, Reply)> {
    msgs.iter()
        .map(|&msg| {
            let id = live.take_id();
            let client = &mut live.client;
            let reply = spans.time("client.call", |_| match msg {
                Msg::Open(_) => Reply::of_ack(client.session(base, variant(s), ALGO)),
                Msg::Delta(delta) => Reply::of_ack(client.delta(delta)),
                Msg::Resolve => Reply::of_solve(client.resolve(false)),
                Msg::Solve(algo) => {
                    Reply::of_solve(client.solve(base, variant(s), algo, SolveOptions::default()))
                }
            });
            (id, reply)
        })
        .collect()
}

struct State {
    shape: Shape,
    live: Live,
    /// The session being played and the client-side mirror of its
    /// instance.
    session: usize,
    trace: OnlineTrace,
    mirror: IncrementalInstance,
    sent: Vec<Sent<Msg>>,
}

impl State {
    /// Makes session `s` the current one: generates its base and trace and
    /// resets the client-side mirror. Not timed.
    fn begin_session(&mut self, seed: u64, s: usize) {
        self.session = s;
        self.trace = self.shape.session(seed, s);
        self.mirror = IncrementalInstance::new(&self.trace.base);
    }

    /// Checks the replies to `msgs` (acks against the client-side mirror,
    /// after applying each delta to it) and keeps them for the replay.
    fn keep(
        &mut self,
        msgs: &[Msg],
        replies: Vec<(u64, Reply)>,
        op: Option<usize>,
        traced: bool,
        checker: &mut Checker,
    ) {
        for (&msg, (id, reply)) in msgs.iter().zip(replies) {
            if let Msg::Delta(delta) = msg {
                if let Err(err) = self.mirror.apply(delta) {
                    checker.fail(op, format!("client mirror rejected {delta:?}: {err}"));
                }
            }
            // The workload's design: the base under the session's own
            // algorithm was inserted by the opening resolve, under the
            // queued algorithm it never was.
            if let (Msg::Solve(algo), Reply::Solved { cached, .. }) = (msg, &reply) {
                if *cached != (algo == ALGO) {
                    checker.fail(op, format!("solve under {algo:?} answered cached={cached}"));
                }
            }
            if let Reply::Ack(ack) = &reply {
                let want = SessionAck {
                    jobs: self.mirror.num_jobs() as u64,
                    content_hash: self.mirror.content_hash(),
                };
                if *ack != want {
                    checker.fail(op, format!("session ack {ack:?}, client mirror {want:?}"));
                }
            }
            self.sent.push(Sent {
                key: msg,
                id,
                op,
                traced,
                reply,
            });
        }
    }

    /// Runs `msgs` as one timed op.
    fn op(&mut self, msgs: &[Msg], phase: &mut Phase, checker: &mut Checker, spans: &mut Spans) {
        let op = checker.begin_op();
        spans.on = phase.traced_cycle;
        spans.set_op(op as u64);
        let (live, base, s) = (&mut self.live, &self.trace.base, self.session);
        let replies = spans.time("op", |spans| phase.op(|| call(live, base, s, msgs, spans)));
        spans.on = false;
        self.keep(msgs, replies, Some(op), phase.traced_cycle, checker);
    }
}

/// Set-up: spawns the server, connects, and opens and resolves session 0 as
/// a warm-up. Timed sessions are numbered from 1.
fn setup(cfg: &Config, checker: &mut Checker) -> State {
    let shape = Shape::of(cfg.scale);
    let trace = shape.session(cfg.seed, 0);
    let mut state = State {
        live: Live::start(),
        mirror: IncrementalInstance::new(&trace.base),
        session: 0,
        trace,
        sent: Vec::new(),
        shape,
    };
    let msgs = [Msg::Open(0), Msg::Resolve];
    let replies = call(
        &mut state.live,
        &state.trace.base,
        0,
        &msgs,
        &mut Spans::new(),
    );
    state.keep(&msgs, replies, None, false, checker);
    state
}

/// Replays the requests of `sent`, rebuilding each session's base
/// instance when its `Open` comes by.
struct Replayer {
    seed: u64,
    session: usize,
    base: Instance,
}

impl Replayer {
    fn replay(
        &mut self,
        shape: &Shape,
        checker: &mut Checker,
        sent: &Sent<Msg>,
        spans: &mut Spans,
    ) {
        if let Msg::Open(s) = sent.key {
            if s != self.session {
                self.base = shape.base(self.seed, s).build();
                self.session = s;
            }
        }
        let (base, s) = (&self.base, self.session);
        checker.replay(sent, || request(sent.key, sent.id, base, s), spans);
    }
}

/// Runs `session-online`.
pub fn run(cfg: &Config) -> Report {
    let mut checker = Checker::new();
    let (mut state, first_setup) = timed_setup(|| setup(cfg, &mut checker));
    let mut spans = Spans::new();
    let mut replayer = Replayer {
        seed: cfg.seed,
        session: 0,
        base: state.trace.base.clone(),
    };
    let mut replayed = 0;
    let mut by_kind: [Vec<Duration>; 4] = Default::default();
    let before = state.live.stats();
    let mut phase = Phase::new(cfg.seconds, cfg.max_cycles, cfg.trace);
    while phase.more() {
        let s = phase.cycles() + 1;
        phase.traced_cycle = cfg.trace && s.is_multiple_of(2);
        state.begin_session(cfg.seed, s);
        // (op kind, the op's requests), kinds indexing `KINDS`.
        let mut cycle = vec![
            (0, vec![Msg::Open(s), Msg::Resolve]),
            (1, vec![Msg::Solve(ALGO)]),
            (2, vec![Msg::Solve(QUEUED_ALGO)]),
        ];
        let events = state.trace.events.iter();
        cycle.extend(events.map(|e| (3, vec![Msg::Delta(e.delta), Msg::Resolve])));
        for (kind, msgs) in cycle {
            state.op(&msgs, &mut phase, &mut checker, &mut spans);
            by_kind[kind].push(phase.last_op());
            if cfg.trace {
                for sent in &state.sent[replayed..] {
                    replayer.replay(&state.shape, &mut checker, sent, &mut spans);
                }
                replayed = state.sent.len();
            }
        }
        phase.end_cycle();
    }
    let after = state.live.stats();
    let peak = peak_rss_mb();
    let State {
        shape, live, sent, ..
    } = state;
    live.stop();
    // An untraced run checks everything after the timed phase.
    for s in &sent[replayed..] {
        replayer.replay(&shape, &mut checker, s, &mut spans);
    }
    // The later set-ups' own requests are not replayed.
    let setup_s = setup_times(
        first_setup,
        || setup(cfg, &mut Checker::new()),
        |s| s.live.stop(),
    );
    let mut report = Outcome {
        cfg,
        phase,
        setup_s,
        peak_rss_mb: peak,
        spans,
        cache: Some(cache_delta(&before, &after)),
        checker,
    }
    .report();
    let medians: Vec<String> = KINDS
        .iter()
        .zip(&by_kind)
        .map(|(kind, times)| {
            let mut ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
            ms.sort_by(f64::total_cmp);
            let at = |q: usize| ms[(ms.len() - 1) * q / 10];
            format!(
                "{kind} {:.3}/{:.3}/{:.3} ms ({} ops)",
                at(1),
                median(&ms),
                at(9),
                ms.len()
            )
        })
        .collect();
    report.notes.push(format!(
        "latency p10/p50/p90 by op kind: {}",
        medians.join(", ")
    ));
    report
}
