//! The solve server: TCP accept loop, bounded request queue, and a
//! micro-batching dispatcher over a thread-per-core [`SolvePool`].
//!
//! # Architecture
//!
//! ```text
//! accept loop ──► connection threads ──► bounded queue ──► dispatcher
//!                  (frame/parse/cache      (admission        (drains ≤ batch_max,
//!                   lookup, shed fast)      control)          SolvePool::solve_items)
//! ```
//!
//! One detached thread per connection owns the socket: it reads frames,
//! parses under the hardened [`bss_json`] limits, answers cache hits and
//! control requests inline, and enqueues solve work. The queue is bounded;
//! at capacity the connection thread answers with a typed
//! [`Response::Shed`] immediately instead of blocking — overload is a
//! first-class, machine-readable outcome, not a stalled socket.
//!
//! A single dispatcher thread drains up to `batch_max` queued requests at a
//! time and hands them to [`SolvePool::solve_items`], so requests that
//! arrived together are solved together across all cores on warm
//! workspaces (micro-batching), while each request keeps its *own*
//! [`SolveBudget`]. Deadlines are measured from **arrival** at the server
//! — time spent queued counts against a request's deadline, so a
//! `deadline_ms` is an honest service-level promise, and a request that
//! starves in the queue comes back `degraded`, never silently late.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bss_core::{solve_with_config, Algorithm, DualWorkspace, SolveBudget, SolveConfig, WarmStart};
use bss_instance::{IncrementalInstance, Variant};
use bss_json::frame::{read_frame, write_frame, FrameError};
use bss_json::ParseLimits;
use bss_par::{SolveItem, SolvePool};

use crate::cache::SolveCache;
use crate::protocol::{
    peek_id, ErrorCode, Request, Response, ServerStats, SessionRequest, SolveRequest, WireSolution,
};

/// Configuration of a server ([`spawn`]). The defaults serve production traffic;
/// tests narrow them to force specific behaviors (tiny queues for shedding,
/// tiny caches for eviction).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address. Port 0 binds an ephemeral port; read it back from
    /// [`ServerHandle::addr`].
    pub addr: String,
    /// Solver worker threads (0 = one per available core).
    pub workers: usize,
    /// Solve-cache entry bound (0 disables caching).
    pub cache_capacity: usize,
    /// Request-queue bound; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Maximum requests drained into one pool batch.
    pub batch_max: usize,
    /// Maximum accepted frame payload, bytes.
    pub max_frame_bytes: usize,
    /// Maximum accepted JSON nesting depth.
    pub max_json_depth: usize,
    /// Honor `"kind":"sleep"` requests (test instrumentation that lets
    /// integration tests stall the dispatcher deterministically). Keep
    /// `false` outside tests.
    pub allow_test_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_capacity: 1024,
            queue_capacity: 1024,
            batch_max: 64,
            max_frame_bytes: 32 << 20,
            max_json_depth: 64,
            allow_test_ops: false,
        }
    }
}

/// One queued solve job: the parsed request plus its arrival time and the
/// channel its response travels back on.
struct Job {
    req: SolveRequest,
    hash: u64,
    enqueued: Instant,
    reply: mpsc::Sender<Response>,
}

/// Work items the dispatcher understands.
enum Work {
    Solve(Job),
    /// Test instrumentation: occupy the dispatcher for a while.
    Sleep {
        id: u64,
        ms: u64,
        reply: mpsc::Sender<Response>,
    },
}

/// State shared between connection threads and the dispatcher.
struct Shared {
    queue: Mutex<VecDeque<Work>>,
    queue_signal: Condvar,
    cache: Mutex<SolveCache>,
    shutdown: AtomicBool,
    solved: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    config: ServeConfig,
    pool_threads: usize,
}

impl Shared {
    /// Locks the solve cache, recovering from lock poisoning. The cache's
    /// own methods never leave it mid-mutation at a panic point (the
    /// map/order structures are updated atomically from the caller's view),
    /// so a thread that panicked while *holding* the guard — e.g. a solve
    /// isolation failure on the dispatcher — must not turn every later
    /// cache access into a `.expect` crash that takes the whole service
    /// down. A poisoned lock degrades to "keep serving with the cache as
    /// it was", never to an outage.
    fn cache(&self) -> MutexGuard<'_, SolveCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            solved: self.solved.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache: self.cache().stats(),
            workers: self.pool_threads as u64,
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] for a clean stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    dispatch_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server stops — i.e. until some client sends a
    /// `shutdown` request. The CLI `serve` command parks on this.
    pub fn join(mut self) {
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
        // The dispatcher only exits once the shutdown flag is up; poke the
        // accept loop so it notices too.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops the server: no new connections, the queue drains, in-flight
    /// responses are delivered, then both service threads join.
    pub fn shutdown(mut self) {
        self.signal_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
    }

    /// Test instrumentation: poisons the solve-cache mutex by panicking on
    /// a throwaway thread while holding it. Lets the regression suite prove
    /// the server keeps serving through a poisoned lock; useless (and
    /// hidden) outside tests.
    #[doc(hidden)]
    pub fn poison_cache_for_tests(&self) {
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.cache.lock().expect("not yet poisoned");
            panic!("deliberate poison");
        })
        .join();
    }

    fn signal_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the dispatcher out of its condvar wait.
        self.shared.queue_signal.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// Binds the listener and spawns the service threads.
///
/// # Errors
/// [`std::io::Error`] when the listen address cannot be bound.
pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let pool_threads = if config.workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        config.workers
    };
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        queue_signal: Condvar::new(),
        cache: Mutex::new(SolveCache::new(config.cache_capacity)),
        shutdown: AtomicBool::new(false),
        solved: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        config,
        pool_threads,
    });

    let dispatch_shared = Arc::clone(&shared);
    let dispatch_thread = std::thread::Builder::new()
        .name("bss-serve-dispatch".into())
        .spawn(move || dispatch_loop(&dispatch_shared))?;

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("bss-serve-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))?;

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        dispatch_thread: Some(dispatch_thread),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Request/response frames are small and latency-bound; Nagle's
        // algorithm interacting with delayed ACKs costs ~40 ms per
        // round-trip on loopback.
        let _ = stream.set_nodelay(true);
        let conn_shared = Arc::clone(shared);
        // Detached: a connection thread exits when its peer hangs up or the
        // server shuts down; nothing joins it.
        let _ = std::thread::Builder::new()
            .name("bss-serve-conn".into())
            .spawn(move || connection_loop(stream, &conn_shared));
    }
}

/// The connection's incremental-solve session: the live instance plus the
/// previous resolve's dual bracket, from which the next resolve warm-starts.
struct SessionState {
    inc: IncrementalInstance,
    variant: Variant,
    algo: Algorithm,
    /// The last resolve's warm hint and the total load it was taken at
    /// (the load delta since then drives the bracket widening).
    prev: Option<(WarmStart, u64)>,
    /// Probe and builder buffers shared by the session's resolves, so a
    /// warm re-solve allocates nothing beyond its result after the first.
    ws: DualWorkspace,
}

/// Serves one connection: frames in, frames out. The loop is strictly
/// serial — the next frame is read only after the previous request has been
/// answered — so responses are trivially in request order. Session state
/// (the incremental instance and its warm-start bracket) lives here, owned
/// by the connection thread, and dies with the connection.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut session: Option<SessionState> = None;
    let limits = ParseLimits {
        max_bytes: shared.config.max_frame_bytes,
        max_depth: shared.config.max_json_depth,
    };

    loop {
        let payload = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(Some(p)) => p,
            // Clean EOF or a broken/oversized/truncated frame: either way
            // this connection is done. Oversized frames get a best-effort
            // typed reply first.
            Ok(None) => break,
            Err(FrameError::TooLarge { len, max }) => {
                send(
                    &mut writer,
                    &Response::Error {
                        id: 0,
                        code: ErrorCode::TooLarge,
                        message: format!("frame of {len} bytes exceeds the {max} byte limit"),
                    },
                    shared.config.max_frame_bytes,
                );
                break;
            }
            Err(_) => break,
        };

        let handled = match bss_json::parse_with_limits(&payload, &limits) {
            Err(err) => Handled::Reply(Response::Error {
                id: 0,
                code: ErrorCode::of_json(err.kind()),
                message: err.to_string(),
            }),
            Ok(value) => {
                let id = peek_id(&value);
                match Request::decode(&value) {
                    Err(err) => Handled::Reply(Response::Error {
                        id,
                        code: err.code,
                        message: err.message,
                    }),
                    Ok(request) => handle_request(request, &mut session, shared),
                }
            }
        };

        match handled {
            Handled::Reply(resp) => {
                let bye = matches!(resp, Response::Bye { .. });
                if !send(&mut writer, &resp, shared.config.max_frame_bytes) || bye {
                    break;
                }
            }
            Handled::Pending(reply_rx) => {
                // A job was enqueued: block until its response arrives. The
                // only sender lives inside the queued job, so if the
                // dispatcher dies (or the job is otherwise dropped
                // undelivered) this surfaces as a RecvError and the
                // connection closes instead of hanging forever.
                match reply_rx.recv() {
                    Ok(resp) => {
                        if !send(&mut writer, &resp, shared.config.max_frame_bytes) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        }
    }
}

/// How one request was handled on the connection thread.
enum Handled {
    /// Answer immediately.
    Reply(Response),
    /// A job was enqueued; its response arrives on this receiver.
    Pending(mpsc::Receiver<Response>),
}

/// Handles one decoded request, answering inline or enqueueing a job whose
/// response will arrive on the returned receiver. Session requests mutate
/// the connection-local `session` and are answered inline: resolves are
/// latency-bound single solves on a warm bracket, so they skip the batch
/// queue and run right here on the connection thread.
fn handle_request(
    request: Request,
    session: &mut Option<SessionState>,
    shared: &Arc<Shared>,
) -> Handled {
    match request {
        Request::Ping { id } => Handled::Reply(Response::Pong { id }),
        Request::Stats { id } => Handled::Reply(Response::Stats {
            id,
            stats: shared.stats(),
        }),
        Request::Shutdown { id } => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_signal.notify_all();
            Handled::Reply(Response::Bye { id })
        }
        Request::Sleep { id, ms } => {
            if !shared.config.allow_test_ops {
                return Handled::Reply(Response::Error {
                    id,
                    code: ErrorCode::BadRequest,
                    message: "sleep is a test op; this server does not allow test ops".into(),
                });
            }
            let (reply_tx, reply_rx) = mpsc::channel();
            match enqueue(
                Work::Sleep {
                    id,
                    ms,
                    reply: reply_tx,
                },
                id,
                shared,
            ) {
                Some(resp) => Handled::Reply(resp),
                None => Handled::Pending(reply_rx),
            }
        }
        Request::Solve(req) => {
            let hash = req.instance.content_hash();
            // Cache fast path: answered on the connection thread without
            // touching the queue, so hits stay cheap under load.
            let hit = shared
                .cache()
                .lookup(hash, &req.instance, req.variant, req.algo);
            if let Some(sol) = hit {
                return Handled::Reply(Response::Solved {
                    id: req.id,
                    cached: true,
                    solution: WireSolution::of(&sol, req.want_schedule),
                });
            }
            let id = req.id;
            let (reply_tx, reply_rx) = mpsc::channel();
            match enqueue(
                Work::Solve(Job {
                    req: *req,
                    hash,
                    enqueued: Instant::now(),
                    reply: reply_tx,
                }),
                id,
                shared,
            ) {
                Some(resp) => Handled::Reply(resp),
                None => Handled::Pending(reply_rx),
            }
        }
        Request::Session(req) => Handled::Reply(open_session(*req, session)),
        Request::Delta { id, delta } => Handled::Reply(apply_delta(id, delta, session)),
        Request::Resolve { id, want_schedule } => {
            Handled::Reply(resolve_session(id, want_schedule, session, shared))
        }
    }
}

/// Installs (or replaces) the connection's session.
fn open_session(req: SessionRequest, session: &mut Option<SessionState>) -> Response {
    let inc = IncrementalInstance::new(&req.instance);
    let resp = Response::Session {
        id: req.id,
        jobs: inc.num_jobs() as u64,
        content_hash: inc.content_hash(),
    };
    *session = Some(SessionState {
        inc,
        variant: req.variant,
        algo: req.algo,
        prev: None,
        ws: DualWorkspace::new(),
    });
    resp
}

/// Applies one delta to the connection's session. A rejected delta (unknown
/// job, emptied class, load overflow) leaves the session state untouched —
/// `IncrementalInstance::apply` is atomic on error — and answers with
/// [`ErrorCode::InvalidInstance`], mirroring the solve path's model-error
/// class.
fn apply_delta(
    id: u64,
    delta: bss_instance::Delta,
    session: &mut Option<SessionState>,
) -> Response {
    let Some(state) = session else {
        return no_session(id);
    };
    match state.inc.apply(delta) {
        Ok(()) => Response::Session {
            id,
            jobs: state.inc.num_jobs() as u64,
            content_hash: state.inc.content_hash(),
        },
        Err(err) => Response::Error {
            id,
            code: ErrorCode::InvalidInstance,
            message: format!("delta rejected: {err}"),
        },
    }
}

/// Solves the session's current state: the shared cache first (a session
/// revisiting a state — or another client solving the same instance — hits
/// it), then a warm-start re-solve seeded with the previous resolve's dual
/// bracket, widened by the load shift the deltas since then caused. Cold
/// solves only happen on a session's first resolve.
fn resolve_session(
    id: u64,
    want_schedule: bool,
    session: &mut Option<SessionState>,
    shared: &Arc<Shared>,
) -> Response {
    let Some(state) = session else {
        return no_session(id);
    };
    let hash = state.inc.content_hash();
    let load = state.inc.total_load_once();
    let instance = state.inc.materialize();
    if let Some(sol) = shared
        .cache()
        .lookup(hash, &instance, state.variant, state.algo)
    {
        // A hit still refreshes the warm bracket: the cached solution's
        // accepted/certificate window seeds the next resolve.
        state.prev = Some((WarmStart::of(&sol), load));
        return Response::Solved {
            id,
            cached: true,
            solution: WireSolution::of(&sol, want_schedule),
        };
    }
    let warm = state.prev.take().map(|(hint, prev_load)| {
        hint.widen_by_load_shift(u128::from(prev_load), u128::from(load), instance.machines())
    });
    let cfg = SolveConfig {
        workspace: Some(&mut state.ws),
        warm,
        ..SolveConfig::default()
    };
    let sol = match solve_with_config(&instance, state.variant, state.algo, cfg) {
        Ok(sol) => sol,
        Err(err) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return Response::Error {
                id,
                code: ErrorCode::Internal,
                message: format!("solve failed: {err}"),
            };
        }
    };
    shared.solved.fetch_add(1, Ordering::Relaxed);
    let sol = Arc::new(sol);
    shared
        .cache()
        .insert(hash, &instance, state.variant, state.algo, &sol);
    state.prev = Some((WarmStart::of(&sol), load));
    Response::Solved {
        id,
        cached: false,
        solution: WireSolution::of(&sol, want_schedule),
    }
}

/// The typed reply to a delta/resolve with no open session.
fn no_session(id: u64) -> Response {
    Response::Error {
        id,
        code: ErrorCode::BadRequest,
        message: "no session on this connection; send a `session` request first".into(),
    }
}

/// Admission control: enqueue `work`, or answer with a typed shed/error.
fn enqueue(work: Work, id: u64, shared: &Arc<Shared>) -> Option<Response> {
    let mut queue = shared.queue.lock().expect("queue lock");
    // The shutdown flag must be read *while holding the queue lock*: the
    // dispatcher decides to exit under this lock (empty queue + flag up),
    // so a push serialized after that decision is guaranteed to observe the
    // flag and refuse here. Checking before locking would let a job slip
    // into a queue nobody drains, hanging its connection thread on a reply
    // that never comes.
    if shared.shutdown.load(Ordering::SeqCst) {
        return Some(Response::Error {
            id,
            code: ErrorCode::Internal,
            message: "server is shutting down".into(),
        });
    }
    if queue.len() >= shared.config.queue_capacity {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        return Some(Response::Shed {
            id,
            queued: queue.len() as u64,
            capacity: shared.config.queue_capacity as u64,
        });
    }
    queue.push_back(work);
    drop(queue);
    shared.queue_signal.notify_one();
    None
}

/// The dispatcher: drains the queue in batches into the solve pool.
fn dispatch_loop(shared: &Arc<Shared>) {
    let mut pool = SolvePool::with_threads(shared.pool_threads);
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if !queue.is_empty() {
                    let take = queue.len().min(shared.config.batch_max.max(1));
                    break queue.drain(..take).collect::<Vec<_>>();
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_signal.wait(queue).expect("queue condvar wait");
            }
        };

        let mut jobs = Vec::new();
        for work in batch {
            match work {
                Work::Solve(job) => jobs.push(job),
                Work::Sleep { id, ms, reply } => {
                    std::thread::sleep(Duration::from_millis(ms));
                    let _ = reply.send(Response::Pong { id });
                }
            }
        }
        if !jobs.is_empty() {
            solve_batch(&mut pool, jobs, shared);
        }
    }
}

/// Solves one drained batch on the pool and delivers every response.
fn solve_batch(pool: &mut SolvePool, jobs: Vec<Job>, shared: &Arc<Shared>) {
    // Budgets must outlive the SolveItem borrows; build them first.
    let budgets: Vec<Option<SolveBudget>> = jobs
        .iter()
        .map(|job| {
            let mut budget = SolveBudget::unlimited();
            let mut limited = false;
            if let Some(ms) = job.req.deadline_ms {
                // From *arrival*: queue time already spent counts.
                budget = budget.with_deadline_at(job.enqueued + Duration::from_millis(ms));
                limited = true;
            }
            if let Some(w) = job.req.work_budget {
                budget = budget.with_work_limit(w);
                limited = true;
            }
            limited.then_some(budget)
        })
        .collect();
    let items: Vec<SolveItem<'_>> = jobs
        .iter()
        .zip(&budgets)
        .map(|(job, budget)| SolveItem {
            instance: &job.req.instance,
            variant: job.req.variant,
            algo: job.req.algo,
            budget: budget.as_ref(),
        })
        .collect();

    let results = pool.solve_items(&items);

    for (job, result) in jobs.iter().zip(results) {
        let response = match result {
            Ok(solution) => {
                shared.solved.fetch_add(1, Ordering::Relaxed);
                let solution = Arc::new(solution);
                // Only Full completions are cacheable, and a key collision
                // with a different resident instance drops the insert —
                // both enforced inside the cache.
                shared.cache().insert(
                    job.hash,
                    &job.req.instance,
                    job.req.variant,
                    job.req.algo,
                    &solution,
                );
                Response::Solved {
                    id: job.req.id,
                    cached: false,
                    solution: WireSolution::of(&solution, job.req.want_schedule),
                }
            }
            Err(err) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    id: job.req.id,
                    code: ErrorCode::Internal,
                    message: format!("solve failed: {err}"),
                }
            }
        };
        let _ = job.reply.send(response);
    }
}

/// Encodes and frames a response onto the socket; `false` when the peer is
/// gone.
///
/// A response that exceeds `max_len` (e.g. a `want_schedule` reply whose
/// encoded schedule outgrows the frame bound even though the request fit)
/// is replaced by a small typed [`ErrorCode::TooLarge`] error carrying the
/// same request id. `write_frame` checks the length before emitting any
/// bytes, so the oversized payload never hits the wire and the stream stays
/// framed — the connection remains usable for further requests.
fn send(writer: &mut TcpStream, response: &Response, max_len: usize) -> bool {
    let text = bss_json::encode_pretty(response);
    match write_frame(writer, &text, max_len) {
        Ok(()) => writer.flush().is_ok(),
        Err(FrameError::TooLarge { len, max }) => {
            let error = Response::Error {
                id: response.id(),
                code: ErrorCode::TooLarge,
                message: format!(
                    "encoded response of {len} bytes exceeds the {max} byte frame limit; \
                     retry without the schedule or raise the server's max_frame_bytes"
                ),
            };
            write_frame(writer, &bss_json::encode_pretty(&error), max_len).is_ok()
                && writer.flush().is_ok()
        }
        Err(_) => false,
    }
}
