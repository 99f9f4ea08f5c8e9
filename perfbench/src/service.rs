//! What the two service workloads share: the in-process server with its
//! closed-loop client, and the check that replays every sent request.

use bss_serve::{spawn, Client, Request, ServerHandle, ServerStats};

use crate::mirror::{Counts, Mirror, Reply};
use crate::serve_config;
use crate::spans::Spans;

/// An in-process server and the one connection that drives it.
pub struct Live {
    handle: ServerHandle,
    /// The closed-loop client.
    pub client: Client,
    next_id: u64,
}

impl Live {
    /// Spawns the server and connects.
    #[must_use]
    pub fn start() -> Self {
        let handle = spawn(serve_config()).expect("spawn the in-process server");
        let client = Client::connect(handle.addr()).expect("connect to the in-process server");
        Live {
            handle,
            client,
            next_id: 1,
        }
    }

    /// The id the client gives its next request (it numbers them from 1).
    pub fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The server's counters, through the `stats` op.
    pub fn stats(&mut self) -> ServerStats {
        self.take_id();
        self.client.stats().expect("stats op")
    }

    /// Closes the connection and stops the server, joining its threads.
    pub fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
    }
}

/// One request sent to the live server, kept until it is replayed.
pub struct Sent<K> {
    /// What the workload needs to rebuild the request.
    pub key: K,
    /// The request id.
    pub id: u64,
    /// The timed op it belongs to; `None` for set-up.
    pub op: Option<usize>,
    /// Whether it was sent in a traced cycle.
    pub traced: bool,
    /// What the server answered.
    pub reply: Reply,
}

/// Replays sent requests through a [`Mirror`] and records which ops failed.
pub struct Checker {
    /// The replayed server.
    pub mirror: Mirror,
    /// Per op: whether it failed.
    pub failed: Vec<bool>,
    /// `makespan / certificate` of every solved op reply.
    pub ratios: Vec<f64>,
    /// Counts over the requests of timed ops.
    pub phase_counts: Counts,
    /// Whether a set-up request failed its check.
    pub setup_failed: bool,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

impl Checker {
    /// A checker mirroring the benchmark's server.
    #[must_use]
    pub fn new() -> Self {
        Checker {
            mirror: Mirror::new(&serve_config()),
            failed: Vec::new(),
            ratios: Vec::new(),
            phase_counts: Counts::default(),
            setup_failed: false,
            errors: Vec::new(),
        }
    }

    /// Marks a timed op as started (not yet failed).
    pub fn begin_op(&mut self) -> usize {
        self.failed.push(false);
        self.failed.len() - 1
    }

    /// Records a failure found outside the replay (e.g. a client-side
    /// mirror disagreeing with an acknowledgement).
    pub fn fail(&mut self, op: Option<usize>, error: String) {
        match op {
            Some(op) => self.failed[op] = true,
            None => self.setup_failed = true,
        }
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// Replays one sent request (rebuilt by `build`) and checks the served
    /// reply against the replayed one. Spans are recorded for the requests
    /// of traced cycles.
    pub fn replay<K>(
        &mut self,
        sent: &Sent<K>,
        build: impl FnOnce() -> Request,
        spans: &mut Spans,
    ) {
        let before = self.mirror.counts;
        spans.on = sent.traced;
        if let Some(op) = sent.op {
            spans.set_op(op as u64);
        }
        let mirror = &mut self.mirror;
        let result = spans.time("replay", |spans| mirror.replay(build, spans));
        spans.on = false;
        if sent.op.is_some() {
            self.phase_counts.add(&self.mirror.counts.since(&before));
        }
        if let (Some(_), Some(ratio)) = (sent.op, sent.reply.ratio()) {
            self.ratios.push(ratio);
        }
        if let Err(err) = result.and_then(|resp| sent.reply.check(&resp)) {
            self.fail(sent.op, format!("request {}: {err}", sent.id));
        }
    }
}

/// Server cache counters over the timed phase: hits, misses and evictions
/// between the two snapshots, and the entries resident at the end.
#[must_use]
pub fn cache_delta(before: &ServerStats, after: &ServerStats) -> (u64, u64, u64, u64) {
    (
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
        after.cache.evictions - before.cache.evictions,
        after.cache.len,
    )
}
