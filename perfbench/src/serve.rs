//! `serve-cold` and `serve-hot`: solve requests through the in-process
//! server from one closed-loop connection.
//!
//! * `serve-cold` sends a distinct generated instance on every op, so every
//!   request misses the cache, is solved on the worker and is inserted.
//! * `serve-hot` cycles over a pool solved once during set-up, so every timed
//!   request is a cache hit and never solves.

use std::borrow::Cow;

use bss_instance::Instance;
use bss_serve::protocol::SolveRequest;
use bss_serve::{Request, SolveOptions};

use crate::measure::{peak_rss_mb, Phase};
use crate::mirror::Reply;
use crate::service::{cache_delta, Checker, Live, Sent};
use crate::spans::Spans;
use crate::{combo, derive_seed, setup_times, timed_setup, Config, Outcome, Report, Scale, MIX};

/// Generated instance shape `uniform(jobs, classes, machines)`.
struct Shape {
    jobs: usize,
    classes: usize,
    machines: usize,
}

/// The workload's inputs: input `i` is a generated instance and the
/// (variant, algorithm) pair `combo(i)`.
struct Inputs {
    shape: Shape,
    seed: u64,
    /// `serve-hot`: the pool, indexed by input number.
    pool: Vec<Instance>,
}

impl Inputs {
    fn generate(&self, i: usize) -> Instance {
        bss_gen::uniform(
            self.shape.jobs,
            self.shape.classes,
            self.shape.machines,
            derive_seed(self.seed, 1, i as u64),
        )
    }

    /// Input `i`: from the pool when there is one, else generated.
    fn instance(&self, i: usize) -> Cow<'_, Instance> {
        match self.pool.get(i) {
            Some(inst) => Cow::Borrowed(inst),
            None => Cow::Owned(self.generate(i)),
        }
    }
}

/// The request the client builds for input `i`, instance clone included.
fn request(inst: &Instance, i: usize, id: u64) -> Request {
    let (variant, algo) = combo(i);
    Request::Solve(Box::new(SolveRequest {
        id,
        instance: inst.clone(),
        variant,
        algo,
        deadline_ms: None,
        work_budget: None,
        want_schedule: false,
    }))
}

/// Replays `sent` with its instance generated outside the replay's spans.
fn replay(checker: &mut Checker, inputs: &Inputs, sent: &Sent<usize>, spans: &mut Spans) {
    let inst = inputs.instance(sent.key);
    checker.replay(sent, || request(&inst, sent.key, sent.id), spans);
}

/// The state set-up leaves for the timed phase.
struct State {
    inputs: Inputs,
    live: Live,
    sent: Vec<Sent<usize>>,
    /// Next input number (`serve-cold`).
    next: usize,
}

/// Sends input `i` and returns the request id and the reply.
fn send(live: &mut Live, inst: &Instance, i: usize) -> (u64, Reply) {
    let (variant, algo) = combo(i);
    let id = live.take_id();
    let reply = Reply::of_solve(
        live.client
            .solve(inst, variant, algo, SolveOptions::default()),
    );
    (id, reply)
}

fn setup(cfg: &Config, hot: bool) -> State {
    let (shape, pool_len) = match cfg.scale {
        Scale::Full => (
            Shape {
                jobs: 2000,
                classes: 120,
                machines: 16,
            },
            64,
        ),
        Scale::Tiny => (
            Shape {
                jobs: 60,
                classes: 6,
                machines: 4,
            },
            8,
        ),
    };
    let mut inputs = Inputs {
        shape,
        seed: cfg.seed,
        pool: Vec::new(),
    };
    if hot {
        inputs.pool = (0..pool_len).map(|i| inputs.generate(i)).collect();
    }
    let mut live = Live::start();
    // Warm-up: `serve-hot` solves its whole pool, `serve-cold` two rounds
    // of the request mix.
    let count = if hot { pool_len } else { 2 * MIX };
    let mut sent = Vec::with_capacity(count);
    for i in 0..count {
        let inst = inputs.instance(i);
        let (id, reply) = send(&mut live, &inst, i);
        sent.push(Sent {
            key: i,
            id,
            op: None,
            traced: false,
            reply,
        });
    }
    State {
        inputs,
        live,
        sent,
        next: count,
    }
}

/// Runs `serve-cold` (`hot == false`) or `serve-hot`.
pub fn run(cfg: &Config, hot: bool) -> Report {
    let (mut state, first_setup) = timed_setup(|| setup(cfg, hot));
    let mut checker = Checker::new();
    let mut spans = Spans::new();
    let mut replayed = 0;
    // A traced run replays as it goes, starting with the set-up requests.
    if cfg.trace {
        for sent in &state.sent {
            replay(&mut checker, &state.inputs, sent, &mut spans);
        }
        replayed = state.sent.len();
    }

    let cycle_len = if hot { state.inputs.pool.len() } else { MIX };
    let before = state.live.stats();
    let mut phase = Phase::new(cfg.seconds, cfg.max_cycles, cfg.trace);
    while phase.more() {
        phase.traced_cycle = cfg.trace && phase.cycles().is_multiple_of(2);
        for k in 0..cycle_len {
            let i = if hot { k } else { state.next + k };
            let inst = state.inputs.instance(i);
            let op = checker.begin_op();
            spans.on = phase.traced_cycle;
            spans.set_op(op as u64);
            let live = &mut state.live;
            let (id, reply) = spans.time("op", |spans| {
                phase.op(|| spans.time("client.call", |_| send(live, &inst, i)))
            });
            spans.on = false;
            state.sent.push(Sent {
                key: i,
                id,
                op: Some(op),
                traced: phase.traced_cycle,
                reply,
            });
            if cfg.trace {
                let sent = &state.sent[replayed];
                checker.replay(sent, || request(&inst, sent.key, sent.id), &mut spans);
                replayed += 1;
            }
        }
        if !hot {
            state.next += cycle_len;
        }
        phase.end_cycle();
    }
    let after = state.live.stats();
    let peak = peak_rss_mb();
    let State {
        inputs, live, sent, ..
    } = state;
    live.stop();
    // An untraced run checks everything after the timed phase.
    for s in &sent[replayed..] {
        replay(&mut checker, &inputs, s, &mut spans);
    }
    let setup_s = setup_times(first_setup, || setup(cfg, hot), |s| s.live.stop());
    Outcome {
        cfg,
        phase,
        setup_s,
        peak_rss_mb: peak,
        spans,
        cache: Some(cache_delta(&before, &after)),
        checker,
    }
    .report()
}
