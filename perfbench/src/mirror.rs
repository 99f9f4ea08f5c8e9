//! Replays of the program's layers, timed from outside through their public
//! functions.
//!
//! * [`solve_traced`] drives [`BssProblem`] through a delegating [`Problem`]
//!   wrapper, so every probe and build becomes a span.
//! * [`Mirror`] replays one request through the server's pipeline — the
//!   client's encode, `parse_with_limits`, `Request::decode`, the content
//!   hash, a benchmark-owned [`SolveCache`], the solve, `WireSolution::of`,
//!   the response encode and the client's decode — and returns the reply the
//!   server should have sent. Comparing it with the served reply both checks
//!   the output and proves that the attribution replays the served path.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use bss_core::{
    solve_problem, solve_warm, Algorithm, BssProblem, Completion, DirectSolve, DualWorkspace,
    Interrupt, Problem, ScheduleRepr, Solution, SolveBudget, Trace, WarmStart,
};
use bss_exact::ExactSolve;
use bss_instance::{IncrementalInstance, Instance, Variant};
use bss_json::ParseLimits;
use bss_rational::Rational;
use bss_serve::{
    ClientError, Request, Response, ServeConfig, SessionAck, SolveCache, SolveOutcome, WireSolution,
};

use crate::spans::Spans;

/// [`BssProblem`] with its probes and builds recorded as spans. Every
/// method delegates, so a solve through it is the library's solve.
struct TracedProblem<'a, 's> {
    inner: BssProblem<'a>,
    spans: Mutex<&'s mut Spans>,
}

impl TracedProblem<'_, '_> {
    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(name, t0, t1);
        r
    }
}

impl Problem for TracedProblem<'_, '_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn t_min(&self) -> Rational {
        self.inner.t_min()
    }
    fn t_safe(&self) -> Rational {
        self.inner.t_safe()
    }
    fn search_hi(&self) -> Rational {
        self.inner.search_hi()
    }
    fn probe_certifies(&self) -> bool {
        self.inner.probe_certifies()
    }
    fn dual_ratio(&self) -> Rational {
        self.inner.dual_ratio()
    }
    fn probe(&self, ws: &mut DualWorkspace, t: Rational) -> bool {
        self.timed("core.probe", || self.inner.probe(ws, t))
    }
    fn build(
        &self,
        ws: &mut DualWorkspace,
        t: Rational,
        trace: &mut Trace,
    ) -> Option<ScheduleRepr> {
        self.timed("core.build", || self.inner.build(ws, t, trace))
    }
    fn fallback(&self, ws: &mut DualWorkspace, trace: &mut Trace) -> (ScheduleRepr, Rational) {
        self.timed("core.fallback", || self.inner.fallback(ws, trace))
    }
    fn direct_search(&self, ws: &mut DualWorkspace, trace: &mut Trace) -> DirectSolve {
        self.timed("core.direct_search", || self.inner.direct_search(ws, trace))
    }
    fn direct_search_budgeted(
        &self,
        ws: &mut DualWorkspace,
        budget: &SolveBudget,
        trace: &mut Trace,
    ) -> (DirectSolve, Option<Interrupt>) {
        self.timed("core.direct_search", || {
            self.inner.direct_search_budgeted(ws, budget, trace)
        })
    }
    fn direct_search_par_budgeted(
        &self,
        ws: &mut DualWorkspace,
        threads: usize,
        budget: &SolveBudget,
        trace: &mut Trace,
    ) -> (DirectSolve, Option<Interrupt>) {
        self.timed("core.direct_search", || {
            self.inner
                .direct_search_par_budgeted(ws, threads, budget, trace)
        })
    }
    fn exact_oracle_budgeted(&self, budget: &SolveBudget) -> Option<ExactSolve> {
        self.inner.exact_oracle_budgeted(budget)
    }
    fn exact_oracle(&self) -> Option<ExactSolve> {
        self.inner.exact_oracle()
    }
}

/// Solves through a delegating problem wrapper under a `core.solve` span whose children
/// are the probes, builds and direct searches.
pub fn solve_traced(
    ws: &mut DualWorkspace,
    inst: &Instance,
    variant: Variant,
    algo: Algorithm,
    spans: &mut Spans,
) -> Solution {
    spans.time("core.solve", |spans| {
        let problem = TracedProblem {
            inner: BssProblem::new(inst, variant),
            spans: Mutex::new(spans),
        };
        solve_problem(ws, &problem, algo, &mut Trace::disabled())
    })
}

/// Whether two solutions agree in every field and in the explicit schedule.
#[must_use]
pub fn same_solution(a: &Solution, b: &Solution) -> bool {
    a.makespan == b.makespan
        && a.accepted == b.accepted
        && a.ratio_bound == b.ratio_bound
        && a.certificate == b.certificate
        && a.probes == b.probes
        && a.completion == b.completion
        && a.schedule() == b.schedule()
}

/// What the live client got back for one request.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A solve or resolve reply.
    Solved {
        /// Whether the server answered from its cache.
        cached: bool,
        /// The payload.
        solution: WireSolution,
    },
    /// A session or delta acknowledgement.
    Ack(SessionAck),
    /// An error, a shed or a disconnect.
    Failed(String),
}

impl Reply {
    /// The reply to a solve or resolve call.
    #[must_use]
    pub fn of_solve(result: Result<SolveOutcome, ClientError>) -> Self {
        match result {
            Ok(SolveOutcome::Solved { cached, solution }) => Reply::Solved { cached, solution },
            Ok(SolveOutcome::Shed { queued, capacity }) => {
                Reply::Failed(format!("shed at queue depth {queued}/{capacity}"))
            }
            Err(err) => Reply::Failed(err.to_string()),
        }
    }

    /// The reply to a session or delta call.
    #[must_use]
    pub fn of_ack(result: Result<SessionAck, ClientError>) -> Self {
        match result {
            Ok(ack) => Reply::Ack(ack),
            Err(err) => Reply::Failed(err.to_string()),
        }
    }

    /// `makespan / certificate` of a solved reply.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        match self {
            Reply::Solved { solution, .. } => {
                Some(solution.makespan.to_f64() / solution.certificate.to_f64())
            }
            _ => None,
        }
    }

    /// Checks the live reply against the replayed one: it must be a success,
    /// a `Full` completion, and equal in every field.
    ///
    /// # Errors
    /// A description of the first difference.
    pub fn check(&self, replayed: &Response) -> Result<(), String> {
        match (self, replayed) {
            (Reply::Failed(err), _) => Err(err.clone()),
            (Reply::Solved { solution, .. }, _) if solution.completion != Completion::Full => {
                Err(format!("completion {:?}", solution.completion))
            }
            (
                Reply::Solved { cached, solution },
                Response::Solved {
                    cached: want_cached,
                    solution: want,
                    ..
                },
            ) => {
                if cached == want_cached && solution == want {
                    Ok(())
                } else {
                    Err(format!(
                        "served (cached={cached}) {solution:?} != replayed (cached={want_cached}) {want:?}"
                    ))
                }
            }
            (
                Reply::Ack(ack),
                Response::Session {
                    jobs, content_hash, ..
                },
            ) => {
                if ack.jobs == *jobs && ack.content_hash == *content_hash {
                    Ok(())
                } else {
                    Err(format!(
                        "served ack {ack:?} != replayed ({jobs} jobs, hash {content_hash:#x})"
                    ))
                }
            }
            (live, replayed) => Err(format!("served {live:?}, replayed {replayed:?}")),
        }
    }
}

/// Exact counts a replay accumulates. They repeat exactly for a fixed seed
/// and op count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests replayed.
    pub requests: u64,
    /// Request frame bytes (payload plus the 4-byte length prefix).
    pub req_bytes: u64,
    /// Response frame bytes.
    pub resp_bytes: u64,
    /// Cold solves.
    pub solves: u64,
    /// Dual probes of the cold solves.
    pub probes: u64,
    /// Warm re-solves.
    pub warm_solves: u64,
    /// Dual probes the warm re-solves ran.
    pub warm_probes: u64,
    /// Bisection queries the warm re-solves answered from their memo.
    pub warm_skipped: u64,
}

impl Counts {
    /// The counts accumulated since `before` was taken.
    #[must_use]
    pub fn since(&self, before: &Counts) -> Counts {
        Counts {
            requests: self.requests - before.requests,
            req_bytes: self.req_bytes - before.req_bytes,
            resp_bytes: self.resp_bytes - before.resp_bytes,
            solves: self.solves - before.solves,
            probes: self.probes - before.probes,
            warm_solves: self.warm_solves - before.warm_solves,
            warm_probes: self.warm_probes - before.warm_probes,
            warm_skipped: self.warm_skipped - before.warm_skipped,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.requests += other.requests;
        self.req_bytes += other.req_bytes;
        self.resp_bytes += other.resp_bytes;
        self.solves += other.solves;
        self.probes += other.probes;
        self.warm_solves += other.warm_solves;
        self.warm_probes += other.warm_probes;
        self.warm_skipped += other.warm_skipped;
    }
}

/// The server-side state of a replayed session, mirroring the server's.
struct SessionMirror {
    inc: IncrementalInstance,
    variant: Variant,
    algo: Algorithm,
    prev: Option<(WarmStart, u64)>,
}

/// The server's request pipeline, replayed in the benchmark's process
/// against a cache of the server's default capacity.
pub struct Mirror {
    limits: ParseLimits,
    cache: SolveCache,
    ws: DualWorkspace,
    session: Option<SessionMirror>,
    /// Counts so far.
    pub counts: Counts,
}

impl Mirror {
    /// A mirror of a server running `config`.
    #[must_use]
    pub fn new(config: &ServeConfig) -> Self {
        Mirror {
            limits: ParseLimits {
                max_bytes: config.max_frame_bytes,
                max_depth: config.max_json_depth,
            },
            cache: SolveCache::new(config.cache_capacity),
            ws: DualWorkspace::new(),
            session: None,
            counts: Counts::default(),
        }
    }

    /// Replays one request built by `build` (as the client builds it, with
    /// its instance clone) and returns the reply the server owes.
    ///
    /// Both frames are always encoded, for the exact byte counts. While
    /// `spans` records, the request is also parsed and decoded the way the
    /// server does and the reply decoded the way the client does; otherwise
    /// the built request and the reply are used as they are, which a
    /// lossless codec makes the same.
    ///
    /// # Errors
    /// A description of a parse or decode failure.
    pub fn replay(
        &mut self,
        build: impl FnOnce() -> Request,
        spans: &mut Spans,
    ) -> Result<Response, String> {
        let (request, text) = spans.time("client.encode", |_| {
            let request = build();
            let text = bss_json::encode_pretty(&request);
            (request, text)
        });
        self.counts.requests += 1;
        self.counts.req_bytes += text.len() as u64 + 4;
        let request = if spans.on {
            let limits = self.limits;
            let value = spans
                .time("json.parse", |_| {
                    bss_json::parse_with_limits(&text, &limits)
                })
                .map_err(|e| format!("replayed parse failed: {e}"))?;
            let decoded = spans
                .time("protocol.decode", |_| Request::decode(&value))
                .map_err(|e| format!("replayed decode failed: {}", e.message))?;
            // Attribution only: the instance part of `Request::decode`
            // above, timed on its own. Its result is discarded.
            if let Some(inst) = value.field("instance") {
                let _ = spans.time("instance.decode", |_| {
                    Instance::from_json_value_checked(inst)
                });
            }
            decoded
        } else {
            request
        };
        let response = self.handle(request, spans);
        let text = spans.time("json.resp_encode", |_| bss_json::encode_pretty(&response));
        self.counts.resp_bytes += text.len() as u64 + 4;
        if spans.on {
            spans
                .time("client.decode", |_| bss_json::decode::<Response>(&text))
                .map_err(|e| format!("replayed response does not decode: {e}"))
        } else {
            Ok(response)
        }
    }

    fn solve_cold(
        &mut self,
        inst: &Instance,
        variant: Variant,
        algo: Algorithm,
        spans: &mut Spans,
    ) -> Arc<Solution> {
        let sol = solve_traced(&mut self.ws, inst, variant, algo, spans);
        self.counts.solves += 1;
        self.counts.probes += sol.probes as u64;
        Arc::new(sol)
    }

    fn handle(&mut self, request: Request, spans: &mut Spans) -> Response {
        match request {
            Request::Solve(req) => {
                let hash = spans.time("instance.hash", |_| req.instance.content_hash());
                let cache = &mut self.cache;
                let hit = spans.time("cache.lookup", |_| {
                    cache.lookup(hash, &req.instance, req.variant, req.algo)
                });
                let (cached, sol) = match hit {
                    Some(sol) => (true, sol),
                    None => {
                        let sol = self.solve_cold(&req.instance, req.variant, req.algo, spans);
                        let cache = &mut self.cache;
                        spans.time("cache.insert", |_| {
                            cache.insert(hash, &req.instance, req.variant, req.algo, &sol);
                        });
                        (false, sol)
                    }
                };
                Response::Solved {
                    id: req.id,
                    cached,
                    solution: spans.time("protocol.wire", |_| {
                        WireSolution::of(&sol, req.want_schedule)
                    }),
                }
            }
            Request::Session(req) => {
                let inc = spans.time("instance.session", |_| {
                    IncrementalInstance::new(&req.instance)
                });
                let ack = Response::Session {
                    id: req.id,
                    jobs: inc.num_jobs() as u64,
                    content_hash: inc.content_hash(),
                };
                self.session = Some(SessionMirror {
                    inc,
                    variant: req.variant,
                    algo: req.algo,
                    prev: None,
                });
                ack
            }
            Request::Delta { id, delta } => {
                let Some(state) = self.session.as_mut() else {
                    return mirror_error(id, "delta without a session");
                };
                match spans.time("instance.delta", |_| state.inc.apply(delta)) {
                    Ok(()) => Response::Session {
                        id,
                        jobs: state.inc.num_jobs() as u64,
                        content_hash: state.inc.content_hash(),
                    },
                    Err(err) => mirror_error(id, &format!("delta rejected: {err}")),
                }
            }
            Request::Resolve { id, want_schedule } => self.resolve(id, want_schedule, spans),
            other => mirror_error(0, &format!("the benchmark never sends {other:?}")),
        }
    }

    /// The server's `resolve`: cache first, then a warm re-solve from the
    /// previous resolve's bracket (cold on a session's first resolve).
    fn resolve(&mut self, id: u64, want_schedule: bool, spans: &mut Spans) -> Response {
        let Some(mut state) = self.session.take() else {
            return mirror_error(id, "resolve without a session");
        };
        let hash = spans.time("instance.hash", |_| state.inc.content_hash());
        let load = state.inc.total_load_once();
        let instance = spans.time("instance.materialize", |_| state.inc.materialize());
        let cache = &mut self.cache;
        let hit = spans.time("cache.lookup", |_| {
            cache.lookup(hash, &instance, state.variant, state.algo)
        });
        let (cached, sol) = match hit {
            Some(sol) => (true, sol),
            None => {
                let sol = match state.prev.take() {
                    Some((hint, prev_load)) => {
                        let hint = hint.widen_by_load_shift(
                            u128::from(prev_load),
                            u128::from(load),
                            instance.machines(),
                        );
                        let (sol, stats) = spans.time("core.warm_solve", |_| {
                            solve_warm(&instance, state.variant, state.algo, &hint)
                        });
                        self.counts.warm_solves += 1;
                        self.counts.warm_probes += stats.probes as u64;
                        self.counts.warm_skipped += stats.skipped as u64;
                        Arc::new(sol)
                    }
                    None => self.solve_cold(&instance, state.variant, state.algo, spans),
                };
                let cache = &mut self.cache;
                spans.time("cache.insert", |_| {
                    cache.insert(hash, &instance, state.variant, state.algo, &sol);
                });
                (false, sol)
            }
        };
        state.prev = Some((WarmStart::of(&sol), load));
        self.session = Some(state);
        Response::Solved {
            id,
            cached,
            solution: spans.time("protocol.wire", |_| WireSolution::of(&sol, want_schedule)),
        }
    }
}

fn mirror_error(id: u64, message: &str) -> Response {
    Response::Error {
        id,
        code: bss_serve::ErrorCode::Internal,
        message: format!("replay: {message}"),
    }
}
