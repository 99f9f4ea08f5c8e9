//! Speculative parallel probing: the probe ladder of [`crate::search`],
//! answered by wavefronts of speculative probes on worker threads —
//! **bit-identical** outcome and probe accounting to the sequential ladder
//! at every thread count. Every solve takes it through
//! [`SolveConfig::threads`](crate::SolveConfig::threads).
//!
//! # How determinism survives parallelism
//!
//! A binary search is a path through a decision tree: each probed midpoint
//! has exactly two successors (the midpoints after an accept and after a
//! reject), and the sequential search walks one root-to-leaf path. The
//! parallel driver exploits that the *whole tree* is known in advance:
//!
//! 1. **Plan.** From the current bracket it expands the next `k` tree nodes
//!    in BFS order (`k` = thread count), each node carrying the exact
//!    midpoint the sequential search would probe on that path, plus a link
//!    to its parent and the parent outcome that leads to it.
//! 2. **Speculate.** Worker threads — each owning its own
//!    [`DualWorkspace`] — claim nodes through an atomic cursor and probe
//!    them. A node whose already-published ancestor outcome contradicts its
//!    path is dead (the sequential search can never reach it) and is
//!    skipped at claim time; when the committed walk retires a wavefront
//!    early, its [`CancelToken`] kills the remaining losers the same way.
//! 3. **Commit.** The coordinator walks the *sequential* ladder — the same
//!    loop every search runs, with this engine as its oracle — against the
//!    published results: it charges the [`SolveBudget`] in exactly the
//!    sequential probe order, consumes each needed result (or recomputes it
//!    inline on the caller's workspace when a worker had to skip), and
//!    steps the master bracket. Only committed probes are
//!    charged or counted — speculative work is free by construction, so
//!    brackets, probe counts, interrupt points and even panic behaviour
//!    match the sequential search bit for bit.
//!
//! The win is wall-clock: with `k` threads a full wavefront resolves
//! `⌊log₂(k+1)⌋` committed bisection levels per probe round (plus one more
//! whenever the committed path stays on the wavefront's deepest planned
//! node), so an ε-search-dominated solve contracts from `L` sequential
//! probe times to roughly `L / log₂(k+1)` rounds. The `rounds` counter of
//! [`SearchStats`] reports that critical path, machine-independently.
//!
//! Worker probe panics are *not* propagated eagerly: a speculative loser is
//! a probe the sequential search never runs, so its panic must not surface.
//! A panicking node is recorded as skipped; if the committed walk actually
//! consumes it, the inline recomputation re-raises the panic on the calling
//! thread — exactly where the sequential search would have panicked.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use bss_budget::{CancelToken, Interrupt, SolveBudget};

use crate::search::{drive, Bisect, Ladder, Oracle, ProbeOutcome, SearchStats};
use crate::workspace::DualWorkspace;

const NONE: usize = usize::MAX;

// A node's published result.
const PENDING: u8 = 0;
const ACCEPT: u8 = 1;
const REJECT: u8 = 2;
const SKIP: u8 = 3;

/// One planned speculative probe: the exact guess the sequential search
/// probes on this decision-tree path.
struct SpecNode<G> {
    guess: G,
    /// Index of the node whose outcome leads here (`NONE` for roots).
    parent: usize,
    /// Which parent outcome leads here: `true` = parent accepted.
    expect_accept: bool,
    /// `children[0]` = on-accept successor, `children[1]` = on-reject
    /// (`NONE` when unplanned) — lets the committed walk stay on the
    /// wavefront without searching.
    children: [usize; 2],
}

/// One published wavefront.
struct Round<G> {
    nodes: Vec<SpecNode<G>>,
    results: Vec<AtomicU8>,
    cursor: AtomicUsize,
    /// Cancelled when the committed walk retires this round — unclaimed
    /// losers are skipped instead of probed.
    abort: CancelToken,
}

/// Coordinator ↔ worker handoff: the current round plus lifecycle flags.
struct Handoff<G> {
    epoch: u64,
    shutdown: bool,
    round: Option<Arc<Round<G>>>,
}

struct Engine<'a, G, F> {
    probe: &'a F,
    budget: &'a SolveBudget,
    state: Mutex<Handoff<G>>,
    /// Workers wait here for a new round (or shutdown).
    work_cv: Condvar,
    /// The coordinator waits here for results it needs.
    done_cv: Condvar,
}

impl<'a, G, F> Engine<'a, G, F>
where
    G: Copy + Send + Sync,
    F: Fn(&mut DualWorkspace, G) -> bool + Sync,
{
    fn new(probe: &'a F, budget: &'a SolveBudget) -> Self {
        Engine {
            probe,
            budget,
            state: Mutex::new(Handoff {
                epoch: 0,
                shutdown: false,
                round: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// Publishes a new wavefront and wakes the workers.
    fn publish(&self, nodes: Vec<SpecNode<G>>) -> Arc<Round<G>> {
        let round = Arc::new(Round {
            results: nodes.iter().map(|_| AtomicU8::new(PENDING)).collect(),
            nodes,
            cursor: AtomicUsize::new(0),
            abort: CancelToken::new(),
        });
        let mut h = self.state.lock().expect("engine lock");
        h.epoch += 1;
        h.round = Some(Arc::clone(&round));
        drop(h);
        self.work_cv.notify_all();
        round
    }

    /// Blocks until node `i` has a published result.
    fn await_result(&self, round: &Round<G>, i: usize) -> u8 {
        let r = round.results[i].load(Ordering::Acquire);
        if r != PENDING {
            return r;
        }
        let mut h = self.state.lock().expect("engine lock");
        loop {
            let r = round.results[i].load(Ordering::Acquire);
            if r != PENDING {
                return r;
            }
            h = self.done_cv.wait(h).expect("engine lock");
        }
    }

    /// Consumes node `i`'s result for the committed walk; a skipped node is
    /// recomputed inline on the caller's workspace (re-raising any panic
    /// exactly where the sequential search would).
    fn consume(
        &self,
        round: &Round<G>,
        i: usize,
        ws: &mut DualWorkspace,
        stats: &mut SearchStats,
    ) -> bool {
        match self.await_result(round, i) {
            ACCEPT => true,
            REJECT => false,
            _ => {
                stats.inline += 1;
                (self.probe)(ws, round.nodes[i].guess)
            }
        }
    }

    fn worker(&self) {
        let mut ws = DualWorkspace::new();
        let mut seen = 0u64;
        loop {
            let round = {
                let mut h = self.state.lock().expect("engine lock");
                loop {
                    if h.shutdown {
                        return;
                    }
                    if h.epoch != seen {
                        seen = h.epoch;
                        if let Some(r) = &h.round {
                            break Arc::clone(r);
                        }
                    }
                    h = self.work_cv.wait(h).expect("engine lock");
                }
            };
            loop {
                let i = round.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= round.nodes.len() {
                    break;
                }
                let res = if round.abort.is_cancelled()
                    || !viable(&round, i)
                    || self.budget.poll().is_err()
                {
                    SKIP
                } else {
                    match catch_unwind(AssertUnwindSafe(|| {
                        (self.probe)(&mut ws, round.nodes[i].guess)
                    })) {
                        Ok(true) => ACCEPT,
                        Ok(false) => REJECT,
                        Err(_) => {
                            // A speculative panic must not surface unless the
                            // committed path consumes this node — then the
                            // inline recomputation re-raises it. Reset the
                            // workspace: buffers abandoned mid-probe hold
                            // arbitrary partial state.
                            ws.reset();
                            SKIP
                        }
                    }
                };
                round.results[i].store(res, Ordering::Release);
                // Publish under the lock so a coordinator between its check
                // and its wait cannot miss the wakeup.
                let _h = self.state.lock().expect("engine lock");
                self.done_cv.notify_all();
            }
        }
    }
}

/// Dead-path pruning: a node whose already-published ancestor outcome
/// contradicts the path leading here can never be consumed.
fn viable<G>(round: &Round<G>, mut i: usize) -> bool {
    loop {
        let parent = round.nodes[i].parent;
        if parent == NONE {
            return true;
        }
        let published = round.results[parent].load(Ordering::Acquire);
        let expect = if round.nodes[i].expect_accept {
            ACCEPT
        } else {
            REJECT
        };
        // PENDING and SKIP leave the direction open; only a contradicting
        // probed outcome kills the path.
        if published == ACCEPT || published == REJECT {
            if published != expect {
                return false;
            }
        }
        i = parent;
    }
}

/// Expands the bisection tree from `state` in BFS order (shallow nodes
/// first — they are claimed first and are most likely committed), hanging
/// the root off `(root_parent, root_expect)`, until `capacity` nodes exist.
fn push_tree<B: Bisect>(
    nodes: &mut Vec<SpecNode<B::Guess>>,
    state: &B,
    root_parent: usize,
    root_expect: bool,
    capacity: usize,
) {
    let mut queue: VecDeque<(B, usize, bool)> = VecDeque::new();
    queue.push_back((state.clone(), root_parent, root_expect));
    while nodes.len() < capacity {
        let Some((mut s, parent, expect)) = queue.pop_front() else {
            break;
        };
        if !s.is_wide() {
            continue;
        }
        let Some(guess) = s.try_split() else {
            continue;
        };
        let idx = nodes.len();
        nodes.push(SpecNode {
            guess,
            parent,
            expect_accept: expect,
            children: [NONE, NONE],
        });
        if parent != NONE {
            nodes[parent].children[usize::from(!expect)] = idx;
        }
        let mut acc = s.clone();
        acc.accept_mid();
        queue.push_back((acc, idx, true));
        let mut rej = s;
        rej.reject_mid();
        queue.push_back((rej, idx, false));
    }
}

/// Sets the shutdown flag when the coordinator leaves the scope — normally
/// or by unwinding (an assert or re-raised probe panic) — so the workers
/// always drain and `thread::scope` can join.
struct ShutdownGuard<'s, 'a, G, F>(&'s Engine<'a, G, F>);

impl<G, F> Drop for ShutdownGuard<'_, '_, G, F> {
    fn drop(&mut self) {
        let mut h = self.0.state.lock().expect("engine lock");
        h.shutdown = true;
        if let Some(r) = &h.round {
            r.abort.cancel();
        }
        drop(h);
        self.0.work_cv.notify_all();
    }
}

/// The speculative oracle: the committed walk's view of the engine. It
/// charges and counts only committed queries, consuming each one's
/// published result (or probing inline off the wavefront).
struct Speculative<'e, 'a, 'w, G, F> {
    engine: &'e Engine<'a, G, F>,
    round: Arc<Round<G>>,
    /// The planned node of the next committed query, while the walk stays
    /// on the wavefront.
    cur: Option<usize>,
    ws: &'w mut DualWorkspace,
    threads: usize,
    stats: SearchStats,
}

impl<B, F> Oracle<B> for Speculative<'_, '_, '_, B::Guess, F>
where
    B: Bisect,
    F: Fn(&mut DualWorkspace, B::Guess) -> bool + Sync,
{
    fn ask(&mut self, t: B::Guess) -> Result<bool, Interrupt> {
        self.engine.budget.charge_probe()?;
        self.stats.probes += 1;
        let accepted = match self.cur {
            Some(i) => {
                debug_assert!(self.round.nodes[i].guess == t, "planned guess diverged");
                self.engine
                    .consume(&self.round, i, self.ws, &mut self.stats)
            }
            None => (self.engine.probe)(self.ws, t),
        };
        self.cur = self.cur.and_then(|i| follow(&self.round, i, accepted));
        Ok(accepted)
    }

    fn before_split(&mut self, bracket: &B) {
        if self.cur.is_some() {
            return;
        }
        // Walked off the planned wavefront: retire it (killing its unclaimed
        // losers) and speculate a fresh tree rooted at the current bracket's
        // next midpoint. Planning overflow leaves `cur` unset: the walk
        // continues inline, with the sequential panic behaviour.
        self.round.abort.cancel();
        let mut nodes = Vec::new();
        push_tree(&mut nodes, bracket, NONE, false, self.threads);
        if !nodes.is_empty() {
            self.stats.rounds += 1;
            self.stats.speculated += nodes.len();
            self.round = self.engine.publish(nodes);
            self.cur = Some(0);
        }
    }

    fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// Runs one ladder on `ladder.threads` speculative workers
/// ([`crate::search`] picks this for `threads > 1`).
///
/// `bracket` is planned from before the first probe (`None` when its
/// construction would overflow — the committed walk then panics *after* the
/// `t_lo` probe, exactly as the sequential ladder does).
pub(crate) fn speculate<B, F>(
    t_lo: B::Guess,
    t_hi: B::Guess,
    bracket: Option<B>,
    ladder: Ladder<'_>,
    ws: &mut DualWorkspace,
    probe: &F,
) -> (ProbeOutcome<B::Guess>, SearchStats)
where
    B: Bisect,
    F: Fn(&mut DualWorkspace, B::Guess) -> bool + Sync,
{
    let threads = ladder.threads;
    debug_assert!(threads > 1);
    let engine = Engine::new(probe, ladder.budget);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| engine.worker());
        }
        let _guard = ShutdownGuard(&engine);

        // Round 0: both seed probes plus the first speculative tree. The
        // tree hangs off the `t_hi` node (committed only after `t_lo`
        // rejected and `t_hi` accepted — the same order the sequential
        // ladder discovers them in).
        let mut nodes = vec![
            SpecNode {
                guess: t_lo,
                parent: NONE,
                expect_accept: false,
                children: [NONE, 1],
            },
            SpecNode {
                guess: t_hi,
                parent: 0,
                expect_accept: false,
                children: [NONE, NONE],
            },
        ];
        if let Some(state) = &bracket {
            // Seeds resolve in the same wavefront as the first tree levels,
            // so round 0 gets the full `threads` of tree capacity on top.
            push_tree(&mut nodes, state, 1, true, threads + 2);
        }
        let stats = SearchStats {
            rounds: 1,
            speculated: nodes.len(),
            ..SearchStats::default()
        };
        let mut oracle = Speculative {
            engine: &engine,
            round: engine.publish(nodes),
            cur: Some(0),
            ws,
            threads,
            stats,
        };
        let out = drive(t_lo, t_hi, bracket, &mut oracle);
        (out, oracle.stats)
    })
}

/// The planned successor of node `i` after outcome `accepted`, if any.
fn follow<G>(round: &Round<G>, i: usize, accepted: bool) -> Option<usize> {
    let child = round.nodes[i].children[usize::from(!accepted)];
    (child != NONE).then_some(child)
}

#[cfg(test)]
mod tests {
    use bss_rational::Rational;

    use super::*;
    use crate::search::{epsilon_search_between, integer_search};
    use crate::SolveConfig;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    /// A ladder configuration on `threads` threads under `budget`.
    fn cfg(threads: usize, budget: &SolveBudget) -> SolveConfig<'_> {
        SolveConfig {
            budget: Some(budget),
            threads,
            ..SolveConfig::default()
        }
    }

    const THREADS: [usize; 4] = [1, 2, 4, 8];

    #[test]
    fn epsilon_par_matches_sequential_bitwise() {
        let unlimited = SolveBudget::unlimited();
        for denom in [3i128, 7, 64, 1000] {
            for num in [301i128, 399, 555, 599] {
                let threshold = Rational::new(num, denom);
                let (seq, _) = epsilon_search_between(
                    r(100),
                    r(200),
                    Rational::new(1, 128),
                    cfg(1, &unlimited),
                    |_, t| t >= threshold,
                );
                for threads in THREADS {
                    let (par, _) = epsilon_search_between(
                        r(100),
                        r(200),
                        Rational::new(1, 128),
                        cfg(threads, &unlimited),
                        |_, t| t >= threshold,
                    );
                    assert_eq!(par, seq, "threads={threads} threshold={threshold}");
                }
            }
        }
    }

    #[test]
    fn epsilon_par_immediate_accept() {
        let unlimited = SolveBudget::unlimited();
        for threads in THREADS {
            // ε = 1/10 on [T_min, 2·T_min] with T_min = 100.
            let (out, _) =
                epsilon_search_between(r(100), r(200), r(10), cfg(threads, &unlimited), |_, t| {
                    t >= r(50)
                });
            assert_eq!(out.accepted, r(100));
            assert_eq!(out.rejected, None);
            assert_eq!(out.probes, 1);
        }
    }

    #[test]
    fn integer_par_matches_sequential_bitwise() {
        let unlimited = SolveBudget::unlimited();
        for threshold in [101u64, 137, 199, 200, 777, 1000] {
            let (seq, _) = integer_search(100, 1000, cfg(1, &unlimited), |_, t| t >= threshold);
            for threads in THREADS {
                let (par, _) =
                    integer_search(100, 1000, cfg(threads, &unlimited), |_, t| t >= threshold);
                assert_eq!(par, seq, "threads={threads} threshold={threshold}");
            }
        }
    }

    #[test]
    fn work_limit_interruption_points_are_deterministic() {
        // Sweep every work-limit: the interrupted bracket must match the
        // sequential search's at the same limit, at every thread count.
        let threshold = 137u64;
        for limit in 0..12 {
            let seq_budget = SolveBudget::unlimited().with_work_limit(limit);
            let (seq, _) = integer_search(100, 1000, cfg(1, &seq_budget), |_, t| t >= threshold);
            for threads in THREADS {
                let par_budget = SolveBudget::unlimited().with_work_limit(limit);
                let (par, _) =
                    integer_search(100, 1000, cfg(threads, &par_budget), |_, t| t >= threshold);
                assert_eq!(par, seq, "threads={threads} limit={limit}");
                assert_eq!(seq_budget.work_used(), par_budget.work_used());
            }
        }
    }

    #[test]
    fn committed_panic_propagates_loser_panic_does_not() {
        // Probe panics at one loser guess the committed path never visits:
        // the parallel search must still match the sequential one.
        let threshold = 137u64;
        let unlimited = SolveBudget::unlimited();
        let (seq, _) = integer_search(100, 1000, cfg(1, &unlimited), |_, t| t >= threshold);
        let (par, _) = integer_search(100, 1000, cfg(8, &unlimited), |_, t| {
            // 775 = mid of (550, 1000], a reject-side path the committed
            // walk (which accepts at 550's level) never takes.
            assert!(t != 775, "loser probe");
            t >= threshold
        });
        assert_eq!(par, seq);

        // A panic at a guess the committed path *does* probe propagates.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            integer_search(100, 1000, cfg(8, &unlimited), |_, t| {
                assert!(t != 550, "committed probe");
                t >= threshold
            })
        }));
        assert!(caught.is_err(), "committed-path panic must propagate");
    }

    #[test]
    fn cancellation_stops_the_search() {
        let token = CancelToken::new();
        let budget = SolveBudget::unlimited().with_cancel(&token);
        token.cancel();
        let (par, _) = integer_search(100, 1000, cfg(4, &budget), |_, t| t >= 137);
        // Identical to the sequential search under a pre-cancelled budget:
        // nothing probed, bracket untouched.
        let (seq, _) = integer_search(100, 1000, cfg(1, &budget), |_, t| t >= 137);
        assert_eq!(par, seq);
        assert!(par.interrupt.is_some());
    }

    #[test]
    fn stats_report_the_wavefront_critical_path() {
        let threshold = Rational::new(555, 4);
        let unlimited = SolveBudget::unlimited();
        let (par, stats) = epsilon_search_between(
            r(100),
            r(200),
            Rational::new(1, 1 << 16),
            cfg(8, &unlimited),
            |_, t| t >= threshold,
        );
        assert!(par.interrupt.is_none());
        assert!(stats.rounds >= 1);
        assert!(stats.speculated >= par.probes);
        // The whole point: the wavefront critical path is much shorter than
        // the sequential probe ladder. 8 threads commit >= 3 levels/round.
        assert!(
            stats.rounds <= 1 + par.probes.div_ceil(3),
            "rounds {} vs probes {}",
            stats.rounds,
            par.probes
        );
        assert_eq!(stats.inline, 0, "no skips under an unlimited budget");
    }
}
