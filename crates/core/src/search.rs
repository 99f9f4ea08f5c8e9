//! Generic search drivers over dual approximation tests.
//!
//! A ρ-dual approximation algorithm (Hochbaum–Shmoys) takes a guess `T` and
//! either *rejects* it — certifying `T < OPT` — or builds a schedule of
//! makespan at most `ρT`. The paper turns its 3/2-dual algorithms into full
//! approximations three ways:
//!
//! * [`epsilon_search`]: plain binary search on `[T_min, 2·T_min]` down to a
//!   relative gap `ε` — Theorem 2's `(3/2+ε)`-approximation in `O(n log 1/ε)`;
//! * [`integer_search`]: for the non-preemptive variant `OPT` is integral, so
//!   an exact integer binary search yields a true 3/2-approximation in
//!   `⌈log(T_min)⌉` probes — Theorem 8;
//! * Class Jumping (in the per-variant modules) replaces the geometric search
//!   with a jump-structure search for the splittable and preemptive variants.
//!
//! # One ladder
//!
//! Both bisections are the same probe ladder: query `t_lo`; if it is
//! rejected, query `t_hi` (accepted by precondition), then split the bracket
//! and query the midpoint until the bracket is narrow. The bracket is a
//! state machine (the rational ε-bracket or the Theorem-8 integer bracket),
//! and one loop walks it. Every query goes to an *oracle* that charges the
//! [`SolveBudget`] and answers. There are three oracles:
//!
//! * the plain oracle probes;
//! * the warm oracle answers from a monotonicity memo seeded at a previous
//!   solve's bracket ([`crate::WarmStart`]), probing only what the memo
//!   cannot prove;
//! * the speculative oracle of [`crate::par`] consumes the results of worker
//!   threads that probed the bisection tree ahead of the walk.
//!
//! Each oracle charges one work unit per query, in the same order, so a
//! ladder stops at the same query under a work limit whichever oracle
//! answers it. [`epsilon_search_between`] and [`integer_search`] run a
//! ladder under every setting of a [`SolveConfig`].

use bss_budget::{Interrupt, SolveBudget};
use bss_rational::{gcd, Rational};

use crate::api::{SolveConfig, WarmStart};
use crate::workspace::DualWorkspace;

/// Outcome of a dual-approximation search.
#[derive(Debug, Clone)]
pub struct SearchOutcome<S> {
    /// The accepted guess; the schedule's makespan is at most `ρ ·
    /// accepted`.
    pub accepted: Rational,
    /// The schedule built at `accepted`.
    pub schedule: S,
    /// The largest guess the dual test rejected, if any — a certificate that
    /// `OPT > rejected`.
    pub rejected: Option<Rational>,
    /// Number of dual-test probes performed (for the running-time studies).
    pub probes: usize,
}

/// Outcome of a probe ladder: the guess bracket, without a schedule.
///
/// The ladders probe with the `O(n)`-or-better dual *test* and leave
/// schedule construction to the caller, who builds **exactly once**, at
/// `accepted` — the compact-first pipeline never constructs per-probe
/// schedules that are immediately thrown away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome<T> {
    /// The smallest guess the ladder certified acceptable; a builder run at
    /// this guess must succeed (the dual algorithms are deterministic in
    /// `T`).
    pub accepted: T,
    /// The largest rejected guess, if any — a certificate that
    /// `OPT > rejected`.
    pub rejected: Option<T>,
    /// Number of dual-test probes performed.
    pub probes: usize,
    /// Why the ladder stopped early, if it did. An interrupted ladder stops
    /// at its current bracket: `accepted` is still a guess the builder is
    /// guaranteed to realize (the right end, maintained accepted throughout,
    /// or the precondition seed `t_hi` when nothing was probed yet), and
    /// `rejected` carries only *genuinely probed* rejections.
    pub interrupt: Option<Interrupt>,
}

/// Counters of one ladder besides its outcome: what a warm hint saved and
/// what speculation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Dual probes genuinely evaluated (for a warm ladder: hint seeding plus
    /// memo misses).
    pub probes: usize,
    /// Bisection queries the warm memo answered for free — the cold ladder
    /// would have probed each of these.
    pub skipped: usize,
    /// Of `probes`, how many seeded the warm memo at the hint points.
    pub seed_probes: usize,
    /// Whether the warm memo ran (`false` for cold ladders, and when the
    /// algorithm has no warm form and the solve ran cold).
    pub warmed: bool,
    /// Speculative wavefronts published (each costs one probe wall-time
    /// when every worker has a core).
    pub rounds: usize,
    /// Speculative probe slots issued across all wavefronts (committed +
    /// losers).
    pub speculated: usize,
    /// Probes the coordinator recomputed inline because a worker had to
    /// skip the node (budget trip observed worker-side, or a caught panic).
    pub inline: usize,
}

/// The counters [`crate::solve_warm`] reports: a warm solve's
/// [`SearchStats`].
pub type WarmStats = SearchStats;

/// The bisection state of a ladder: `lo` rejected, `hi` accepted, and the
/// midpoint of the last split.
pub(crate) trait Bisect: Clone {
    type Guess: Copy + Ord + Send + Sync + core::fmt::Debug;
    /// Whether the ladder must keep narrowing.
    fn is_wide(&self) -> bool;
    /// Computes the midpoint and remembers it for [`Bisect::accept_mid`] /
    /// [`Bisect::reject_mid`]; `None` when it leaves the `i128` headroom
    /// (the speculative planner stops there instead of failing).
    fn try_split(&mut self) -> Option<Self::Guess>;
    /// The committed split: panics on overflow, as [`Rational`] arithmetic
    /// does.
    fn split(&mut self) -> Self::Guess {
        self.try_split()
            .expect("Rational overflow in search bracket")
    }
    fn accept_mid(&mut self);
    fn reject_mid(&mut self);
    fn lo_guess(&self) -> Self::Guess;
    fn hi_guess(&self) -> Self::Guess;
    /// A warm start's hint interval in this ladder's guesses.
    fn hint(warm: &WarmStart) -> (Self::Guess, Self::Guess);
}

/// The ε-bracket `[lo, hi]` plus the termination gap, held as plain
/// integers over one shared denominator (a `Guess`-style representation).
///
/// The binary-search loop then needs only integer comparisons and shifts:
/// no gcd, no rational re-normalization per iteration. A rational is
/// materialized (one gcd) only at the probe points, where it is dwarfed by
/// the `O(n)` dual test it feeds. Midpoints double the denominator at most
/// once per iteration; when that would leave the `i128` headroom the bracket
/// renormalizes by the common gcd, matching the overflow discipline (and
/// panic behaviour) of [`Rational`] itself.
#[derive(Clone)]
pub(crate) struct Bracket {
    lo: i128,
    hi: i128,
    gap: i128,
    den: i128,
    mid: i128,
}

impl Bracket {
    /// The bracket over `[lo, hi]` with absolute termination gap `gap`;
    /// `None` when the common denominator leaves `i128` (the ladder turns
    /// that into the overflow panic, after its first probe).
    pub(crate) fn try_new(lo: Rational, hi: Rational, gap: Rational) -> Option<Bracket> {
        assert!(lo.is_positive() && gap.is_positive() && lo <= hi);
        let den = lcm(lo.denom(), hi.denom()).and_then(|d| lcm(d, gap.denom()))?;
        let scale = |r: Rational| r.numer().checked_mul(den / r.denom());
        Some(Bracket {
            lo: scale(lo)?,
            hi: scale(hi)?,
            gap: scale(gap)?,
            den,
            mid: 0,
        })
    }

    /// Divides every component by their common gcd to regain headroom;
    /// `false` when the components share no factor — the exact value
    /// genuinely leaves `i128`, exactly as plain [`Rational`] arithmetic
    /// would (callers turn that into the panic or a planning stop).
    fn renormalize(&mut self) -> bool {
        let g = gcd(gcd(self.lo, self.hi), gcd(self.gap, self.den));
        if g <= 1 {
            return false;
        }
        self.lo /= g;
        self.hi /= g;
        self.gap /= g;
        self.den /= g;
        true
    }
}

impl Bisect for Bracket {
    type Guess = Rational;

    /// `hi - lo > gap` — a pure integer comparison.
    fn is_wide(&self) -> bool {
        self.hi - self.lo > self.gap
    }

    fn try_split(&mut self) -> Option<Rational> {
        loop {
            if let Some(sum) = self.lo.checked_add(self.hi) {
                if sum % 2 == 0 {
                    self.mid = sum / 2;
                    return Some(Rational::new(self.mid, self.den));
                }
                // Odd sum: double every component so the midpoint is exact.
                if let (Some(d), Some(l), Some(h), Some(g)) = (
                    self.den.checked_mul(2),
                    self.lo.checked_mul(2),
                    self.hi.checked_mul(2),
                    self.gap.checked_mul(2),
                ) {
                    self.den = d;
                    self.lo = l;
                    self.hi = h;
                    self.gap = g;
                    self.mid = sum; // (2·lo + 2·hi) / 2
                    return Some(Rational::new(self.mid, self.den));
                }
            }
            if !self.renormalize() {
                return None;
            }
        }
    }

    fn accept_mid(&mut self) {
        self.hi = self.mid;
    }

    fn reject_mid(&mut self) {
        self.lo = self.mid;
    }

    fn lo_guess(&self) -> Rational {
        Rational::new(self.lo, self.den)
    }

    fn hi_guess(&self) -> Rational {
        Rational::new(self.hi, self.den)
    }

    fn hint(warm: &WarmStart) -> (Rational, Rational) {
        warm.hint()
    }
}

/// `lcm(a, b)` for positive denominators; `None` on overflow.
fn lcm(a: i128, b: i128) -> Option<i128> {
    (a / gcd(a, b)).checked_mul(b)
}

/// The Theorem-8 integer bracket: narrow while `hi - lo > 1`.
#[derive(Clone)]
pub(crate) struct IntBracket {
    lo: u64,
    hi: u64,
    mid: u64,
}

impl IntBracket {
    pub(crate) fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi);
        IntBracket { lo, hi, mid: 0 }
    }
}

impl Bisect for IntBracket {
    type Guess = u64;

    fn is_wide(&self) -> bool {
        self.hi - self.lo > 1
    }

    fn try_split(&mut self) -> Option<u64> {
        self.mid = self.lo + (self.hi - self.lo) / 2;
        Some(self.mid)
    }

    fn accept_mid(&mut self) {
        self.hi = self.mid;
    }

    fn reject_mid(&mut self) {
        self.lo = self.mid;
    }

    fn lo_guess(&self) -> u64 {
        self.lo
    }

    fn hi_guess(&self) -> u64 {
        self.hi
    }

    fn hint(warm: &WarmStart) -> (u64, u64) {
        let int = |v: i128| u64::try_from(v.max(0)).unwrap_or(u64::MAX);
        let (lo, hi) = warm.hint();
        (int(lo.floor()), int(hi.ceil()))
    }
}

/// The answer source of one ladder.
pub(crate) trait Oracle<B: Bisect> {
    /// Charges one query to the budget, then answers it; `Err` stops the
    /// ladder at its current bracket.
    fn ask(&mut self, t: B::Guess) -> Result<bool, Interrupt>;
    /// Runs once, after `t_lo` was rejected: the ladder will bisect.
    fn bisecting(&mut self) {}
    /// Runs before each split of `bracket`.
    fn before_split(&mut self, bracket: &B) {
        let _ = bracket;
    }
    /// The counters so far.
    fn stats(&self) -> SearchStats;
}

/// The ladder: the one bisection loop every search runs.
///
/// `bracket` is `None` when its construction overflowed; the ladder then
/// panics after its first probe, as plain [`Rational`] arithmetic would.
/// Precondition: `t_hi` is accepted (asserted when probed).
pub(crate) fn drive<B: Bisect>(
    t_lo: B::Guess,
    t_hi: B::Guess,
    bracket: Option<B>,
    oracle: &mut impl Oracle<B>,
) -> ProbeOutcome<B::Guess> {
    let (accepted, rejected, interrupt) = 'ladder: {
        match oracle.ask(t_lo) {
            Err(i) => break 'ladder (t_hi, None, Some(i)),
            // t_lo <= OPT, so a build here is even a clean ρ-approximation.
            Ok(true) => break 'ladder (t_lo, None, None),
            Ok(false) => oracle.bisecting(),
        }
        let mut bracket = bracket.expect("Rational overflow in search bracket");
        match oracle.ask(t_hi) {
            Err(i) => break 'ladder (t_hi, Some(t_lo), Some(i)),
            Ok(accepted) => assert!(accepted, "the search's upper seed must be accepted"),
        }
        while bracket.is_wide() {
            oracle.before_split(&bracket);
            let mid = bracket.split();
            match oracle.ask(mid) {
                Ok(true) => bracket.accept_mid(),
                Ok(false) => bracket.reject_mid(),
                Err(i) => break 'ladder (bracket.hi_guess(), Some(bracket.lo_guess()), Some(i)),
            }
        }
        (bracket.hi_guess(), Some(bracket.lo_guess()), None)
    };
    ProbeOutcome {
        accepted,
        rejected,
        probes: oracle.stats().probes,
        interrupt,
    }
}

/// The plain oracle: charge, then probe.
pub(crate) struct Plain<'b, F> {
    budget: &'b SolveBudget,
    accepts: F,
    probes: usize,
}

impl<B: Bisect, F: FnMut(B::Guess) -> bool> Oracle<B> for Plain<'_, F> {
    fn ask(&mut self, t: B::Guess) -> Result<bool, Interrupt> {
        self.budget.charge_probe()?;
        self.probes += 1;
        Ok((self.accepts)(t))
    }

    fn stats(&self) -> SearchStats {
        SearchStats {
            probes: self.probes,
            ..SearchStats::default()
        }
    }
}

/// The warm oracle: the plain charge, answered from a monotonicity memo.
///
/// A probed acceptance at `t` proves acceptance for every `t' >= t`, a
/// probed rejection for every `t' <= t` — the same monotonicity of the dual
/// tests in `T` that makes bisection meaningful in the first place. Memo
/// answers are therefore implied by *actual probe outcomes on this
/// instance*, and the ladder replays the cold one query for query: its
/// outcome is **bit-identical** to the cold ladder's in every field but
/// `probes`, which counts only dual tests genuinely evaluated. A wrong or
/// stale hint costs extra probes (at most the two seeds), never a wrong
/// answer.
pub(crate) struct Warm<'b, G, F> {
    budget: &'b SolveBudget,
    accepts: F,
    /// The hint points, clamped into the ladder's window.
    hint: (G, G),
    proven_accept: Option<G>,
    proven_reject: Option<G>,
    stats: SearchStats,
}

impl<'b, G: Copy + Ord, F: FnMut(G) -> bool> Warm<'b, G, F> {
    fn new(budget: &'b SolveBudget, hint: (G, G), t_lo: G, t_hi: G, accepts: F) -> Self {
        let hi = hint.1.min(t_hi).max(t_lo);
        let lo = hint.0.max(t_lo).min(hi);
        Warm {
            budget,
            accepts,
            hint: (lo, hi),
            proven_accept: None,
            proven_reject: None,
            stats: SearchStats {
                warmed: true,
                ..SearchStats::default()
            },
        }
    }

    fn resolve(&mut self, t: G) -> bool {
        if self.proven_accept.is_some_and(|pa| t >= pa) {
            self.stats.skipped += 1;
            return true;
        }
        if self.proven_reject.is_some_and(|pr| t <= pr) {
            self.stats.skipped += 1;
            return false;
        }
        // Unproven, so `t` lies strictly between the proven points and
        // tightens whichever side its outcome lands on.
        self.stats.probes += 1;
        let ok = (self.accepts)(t);
        if ok {
            self.proven_accept = Some(t);
        } else {
            self.proven_reject = Some(t);
        }
        ok
    }
}

impl<B: Bisect, F: FnMut(B::Guess) -> bool> Oracle<B> for Warm<'_, B::Guess, F> {
    fn ask(&mut self, t: B::Guess) -> Result<bool, Interrupt> {
        self.budget.charge_probe()?;
        Ok(self.resolve(t))
    }

    /// Seeds the memo at the hint points — only once `t_lo` was rejected,
    /// so an immediate-accept solve stays exactly one probe, hint or no
    /// hint. The top goes first: when a stale hint's top is rejected, that
    /// rejection already covers the bottom. Seeds poll the budget but are
    /// not charged, so a warm ladder stops at exactly the cold ladder's
    /// query; a tripped poll skips seeding.
    fn bisecting(&mut self) {
        let (skipped, probes) = (self.stats.skipped, self.stats.probes);
        let (lo, hi) = self.hint;
        if self.budget.poll().is_ok() && self.resolve(hi) && lo < hi && self.budget.poll().is_ok() {
            self.resolve(lo);
        }
        self.stats.seed_probes = self.stats.probes - probes;
        self.stats.skipped = skipped; // seed dedup is not a bisection saving
    }

    fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// One ladder's settings: the budget it charges, its speculative threads
/// and its warm hint.
#[derive(Clone, Copy)]
pub(crate) struct Ladder<'b> {
    pub(crate) budget: &'b SolveBudget,
    pub(crate) threads: usize,
    pub(crate) warm: Option<WarmStart>,
}

/// Runs one ladder through the oracle its settings select: the warm memo
/// when there is a hint, speculative wavefronts for `threads > 1`, the
/// plain probe otherwise. A warm ladder runs sequentially at every thread
/// count: after the seeds its queries are mostly memo answers, which leave
/// a wavefront nothing to overlap.
pub(crate) fn run<B, F>(
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
    if let Some(warm) = ladder.warm {
        let mut oracle = Warm::new(ladder.budget, B::hint(&warm), t_lo, t_hi, |t| probe(ws, t));
        let out = drive(t_lo, t_hi, bracket, &mut oracle);
        return (out, oracle.stats);
    }
    if ladder.threads > 1 {
        return crate::par::speculate(t_lo, t_hi, bracket, ladder, ws, probe);
    }
    let mut oracle = Plain {
        budget: ladder.budget,
        accepts: |t| probe(ws, t),
        probes: 0,
    };
    let out = drive(t_lo, t_hi, bracket, &mut oracle);
    (out, Oracle::<B>::stats(&oracle))
}

/// Binary search on `[t_min, 2 t_min]` until the bracket is narrower than
/// `eps * t_min` (Theorem 2).
///
/// `accepts` is the dual test (`false` certifies `T < OPT`). Preconditions:
/// `t_min <= OPT` and `accepts(2 t_min)` holds (both follow from Theorem 1).
///
/// The returned `accepted` satisfies `accepted < (1 + eps) · OPT`, so a
/// ρ-dual schedule built there is a `ρ(1+ε)`-approximation.
pub fn epsilon_search(
    t_min: Rational,
    eps: Rational,
    accepts: impl FnMut(Rational) -> bool,
) -> ProbeOutcome<Rational> {
    let t_hi = t_min * 2u64;
    let bracket = Bracket::try_new(t_min, t_hi, eps * t_min);
    let mut oracle = Plain {
        budget: &SolveBudget::unlimited(),
        accepts,
        probes: 0,
    };
    drive(t_min, t_hi, bracket, &mut oracle)
}

/// The ε-ladder over an explicit bracket `[t_lo, t_hi]` with absolute
/// termination gap `gap`, under every setting of `cfg` — for problems
/// whose guaranteed upper seed is not `2·T_min` (heuristic duals seed with
/// their own safe guess; see `Problem::search_hi`).
///
/// `probe` receives the workspace of whichever thread runs it: `cfg`'s
/// workspace on the committed path, a worker-owned one for speculative
/// probes. The outcome is the same at every thread count; a warm hint
/// changes only `probes`. `cfg.trace` is unused (a ladder builds nothing).
///
/// Preconditions: `0 < t_lo <= t_hi`, `gap > 0`, and `t_hi` is accepted
/// (asserted when probed).
pub fn epsilon_search_between(
    t_lo: Rational,
    t_hi: Rational,
    gap: Rational,
    cfg: SolveConfig<'_>,
    probe: impl Fn(&mut DualWorkspace, Rational) -> bool + Sync,
) -> (ProbeOutcome<Rational>, SearchStats) {
    let bracket = Bracket::try_new(t_lo, t_hi, gap);
    cfg.unpack(|ws, ladder, _| run(t_lo, t_hi, bracket, ladder, ws, &probe))
}

/// Exact binary search over integral makespans in `[t_lo, t_hi]` (Theorem
/// 8), under every setting of `cfg` (see [`epsilon_search_between`]; a warm
/// hint is rounded outward to integers).
///
/// Preconditions: `OPT` is an integer with `t_lo <= OPT` and `t_hi` is
/// accepted. Maintains the invariant "`lo` rejected ⇒ `OPT >= lo + 1`", so
/// the returned `accepted` is `<= OPT` and a ρ-dual schedule built there a
/// clean ρ-approximation.
pub fn integer_search(
    t_lo: u64,
    t_hi: u64,
    cfg: SolveConfig<'_>,
    probe: impl Fn(&mut DualWorkspace, u64) -> bool + Sync,
) -> (ProbeOutcome<u64>, SearchStats) {
    let bracket = IntBracket::new(t_lo, t_hi);
    cfg.unpack(|ws, ladder, _| run(t_lo, t_hi, Some(bracket), ladder, ws, &probe))
}

/// Narrows a right interval `(lo, hi]` (`lo` rejected, `hi` accepted) over a
/// *sorted* list of candidate guesses strictly inside `(lo, hi)`, probing
/// with binary search. Returns the narrowed `(lo, hi)` bracket with no
/// candidate strictly inside.
///
/// Used by the Class-Jumping searches, where candidates are partition
/// boundaries or class jumps. Probes are counted by the caller's `accepts`
/// closure alone — this function deliberately returns no count of its own,
/// so the two can never be added together again (the double-counting bug
/// the repro goldens flushed out).
///
/// The probe is *interruptible*: a `None` from `accepts` (the budgeted
/// probes' "budget exceeded" signal) stops the refinement immediately. The
/// bracket then reflects exactly the probes that genuinely ran — `lo`
/// moves only past candidates whose rejection the binary-search invariant
/// certifies (probed, or below a probed rejection), and `hi` only onto
/// candidates probed accepted — so the right-bracket invariant (`lo`
/// certified rejected, `hi` accepted) survives interruption.
pub fn refine_right_interval(
    mut lo: Rational,
    mut hi: Rational,
    candidates: &[Rational],
    mut accepts: impl FnMut(Rational) -> Option<bool>,
) -> (Rational, Rational) {
    debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "sorted unique");
    // Candidates strictly inside (lo, hi).
    let begin = candidates.partition_point(|c| *c <= lo);
    let end = candidates.partition_point(|c| *c < hi);
    if begin >= end {
        return (lo, hi);
    }
    let cands = &candidates[begin..end];
    // Find the leftmost accepted candidate, exploiting that everything left
    // of a rejected candidate stays bracketed by `lo`.
    let mut l = 0usize; // cands[..l] rejected region boundary
    let mut r = cands.len(); // cands[r..] accepted region boundary
    let mut leftmost_accept: Option<usize> = None;
    while l < r {
        let mid = l + (r - l) / 2;
        match accepts(cands[mid]) {
            Some(true) => {
                leftmost_accept = Some(mid);
                r = mid;
            }
            Some(false) => l = mid + 1,
            None => break,
        }
    }
    // Finalize from the binary-search invariants alone; they hold both at
    // completion (l == r) and at an interruption (l < r): `cands[..l]` are
    // certified rejected (monotone acceptance below the probed rejection at
    // `l - 1`), `leftmost_accept` was probed accepted.
    if l > 0 {
        lo = cands[l - 1];
    }
    if let Some(idx) = leftmost_accept {
        hi = cands[idx];
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    /// A fake dual test: accepts exactly T >= threshold.
    fn fake(threshold: Rational) -> impl FnMut(Rational) -> bool {
        move |t| t >= threshold
    }

    /// The cold ε-ladder over `[t_lo, t_hi]` under `budget`.
    fn cold_in(
        t_lo: Rational,
        t_hi: Rational,
        gap: Rational,
        budget: &SolveBudget,
        accepts: impl FnMut(Rational) -> bool,
    ) -> ProbeOutcome<Rational> {
        let mut oracle = Plain {
            budget,
            accepts,
            probes: 0,
        };
        drive(t_lo, t_hi, Bracket::try_new(t_lo, t_hi, gap), &mut oracle)
    }

    fn cold(
        t_lo: Rational,
        t_hi: Rational,
        gap: Rational,
        accepts: impl FnMut(Rational) -> bool,
    ) -> ProbeOutcome<Rational> {
        cold_in(t_lo, t_hi, gap, &SolveBudget::unlimited(), accepts)
    }

    #[test]
    fn epsilon_search_converges() {
        // OPT = 137, T_min = 100.
        let out = epsilon_search(r(100), Rational::new(1, 100), fake(r(137)));
        assert!(out.accepted >= r(137));
        assert!(out.accepted <= r(138)); // within eps * t_min = 1
        assert!(out.rejected.unwrap() < r(137));
        assert!(out.probes <= 12);
    }

    #[test]
    fn epsilon_search_immediate_accept() {
        let out = epsilon_search(r(100), Rational::new(1, 10), fake(r(50)));
        assert_eq!(out.accepted, r(100));
        assert_eq!(out.rejected, None);
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn epsilon_probe_count_scales_with_log_inv_eps() {
        let coarse = epsilon_search(r(1000), Rational::new(1, 4), fake(r(1999)));
        let fine = epsilon_search(r(1000), Rational::new(1, 4096), fake(r(1999)));
        assert!(coarse.probes < fine.probes);
        assert!(fine.probes <= 16);
    }

    /// The warm oracle's ladder: `(outcome, stats)`.
    mod warm {
        use super::*;

        fn warm_in(
            t_lo: Rational,
            t_hi: Rational,
            gap: Rational,
            hint: (Rational, Rational),
            budget: &SolveBudget,
            accepts: impl FnMut(Rational) -> bool,
        ) -> (ProbeOutcome<Rational>, SearchStats) {
            let mut oracle = Warm::new(budget, hint, t_lo, t_hi, accepts);
            let out = drive(t_lo, t_hi, Bracket::try_new(t_lo, t_hi, gap), &mut oracle);
            (out, oracle.stats)
        }

        fn warm(
            t_lo: Rational,
            t_hi: Rational,
            gap: Rational,
            hint_lo: Rational,
            hint_hi: Rational,
            accepts: impl FnMut(Rational) -> bool,
        ) -> (ProbeOutcome<Rational>, SearchStats) {
            let budget = SolveBudget::unlimited();
            warm_in(t_lo, t_hi, gap, (hint_lo, hint_hi), &budget, accepts)
        }

        /// A counting fake dual: accepts T >= threshold, tallying
        /// evaluations.
        fn counting_fake(
            threshold: Rational,
            count: &mut usize,
        ) -> impl FnMut(Rational) -> bool + '_ {
            move |t| {
                *count += 1;
                t >= threshold
            }
        }

        /// The warm search with any hint — tight, loose, stale, inverted —
        /// returns the cold search's exact bracket.
        #[test]
        fn warm_search_bracket_is_bit_identical_to_cold_for_any_hint() {
            let (t_lo, t_hi, gap) = (r(100), r(200), r(1));
            for threshold in [101, 137, 150, 199] {
                let cold = cold(t_lo, t_hi, gap, fake(r(threshold)));
                for (hint_lo, hint_hi) in [
                    (r(threshold - 1), r(threshold + 1)), // tight and correct
                    (r(100), r(200)),                     // the whole window
                    (r(1), r(5)),                         // stale, below the window
                    (r(500), r(900)),                     // stale, above the window
                    (r(190), r(110)),                     // inverted
                ] {
                    let (warm, stats) = warm(t_lo, t_hi, gap, hint_lo, hint_hi, fake(r(threshold)));
                    assert_eq!(warm.accepted, cold.accepted);
                    assert_eq!(warm.rejected, cold.rejected);
                    assert!(stats.warmed);
                    assert_eq!(warm.probes, stats.probes);
                    // A warm solve never probes more than cold + the two seeds.
                    assert!(stats.probes <= cold.probes + 2);
                }
            }
        }

        /// Immediate-accept replays identically too (accepted = t_lo, no
        /// rejection certificate).
        #[test]
        fn warm_search_immediate_accept_matches_cold() {
            let cold = cold(r(100), r(200), r(1), fake(r(50)));
            let (warm, _) = warm(r(100), r(200), r(1), r(90), r(110), fake(r(50)));
            assert_eq!(warm.accepted, cold.accepted);
            assert_eq!(warm.rejected, cold.rejected);
            assert_eq!(warm.accepted, r(100));
            assert_eq!(warm.rejected, None);
        }

        /// A tight hint answers most bisection queries from the two seed
        /// probes: the savings the online layer is built on.
        #[test]
        fn tight_hint_probes_a_fraction_of_cold() {
            let threshold = r(137);
            let gap = Rational::new(1, 1 << 20); // deep search: many cold probes
            let mut cold_evals = 0;
            let cold = cold(
                r(100),
                r(200),
                gap,
                counting_fake(threshold, &mut cold_evals),
            );
            let mut warm_evals = 0;
            let (warm, stats) = warm(
                r(100),
                r(200),
                gap,
                cold.rejected.unwrap(),
                cold.accepted,
                counting_fake(threshold, &mut warm_evals),
            );
            assert_eq!(warm.accepted, cold.accepted);
            assert_eq!(warm.rejected, cold.rejected);
            // The previous bracket is gap-narrow, so the replayed bisection
            // resolves every query from the memo until it re-enters the hint
            // interval: only the two seeds plus O(1) boundary probes run.
            assert_eq!(warm_evals, stats.probes);
            assert_eq!(stats.seed_probes, 2);
            assert!(
                stats.probes <= 4,
                "expected nearly free replay, ran {} probes",
                stats.probes
            );
            assert!(stats.skipped >= cold.probes - stats.probes);
            assert!(cold_evals == cold.probes);
        }

        /// A wrong hint degrades probe count, never the answer, and is
        /// bounded by cold + seeds.
        #[test]
        fn useless_hint_costs_at_most_the_two_seeds() {
            let threshold = r(137);
            let cold = cold(r(100), r(200), r(1), fake(threshold));
            let (warm, stats) = warm(r(100), r(200), r(1), r(1), r(2), fake(threshold));
            assert_eq!(warm.accepted, cold.accepted);
            assert_eq!(warm.rejected, cold.rejected);
            // Both hints clamp to t_lo = 100, whose rejection the replay's own
            // first query already proved: the seeds resolve from the memo for
            // free and the warm search degrades to exactly the cold one.
            assert_eq!(stats.seed_probes, 0);
            assert_eq!(stats.probes, cold.probes);
        }

        /// The integer ladder takes a warm hint too, rounded outward to
        /// integers: same bracket as cold, fewer probes.
        #[test]
        fn warm_integer_ladder_matches_cold() {
            let accepts = |_: &mut DualWorkspace, t: u64| t >= 137;
            let (cold, _) = integer_search(100, 1000, SolveConfig::default(), accepts);
            let hint = WarmStart {
                accepted: r(138),
                certificate: Rational::new(271, 2),
                widen: Rational::ZERO,
            };
            let cfg = SolveConfig {
                warm: Some(hint),
                ..SolveConfig::default()
            };
            let (warm, stats) = integer_search(100, 1000, cfg, accepts);
            assert_eq!(warm.accepted, cold.accepted);
            assert_eq!(warm.rejected, cold.rejected);
            assert!(stats.warmed);
            assert_eq!(stats.seed_probes, 2);
            assert!(stats.probes < cold.probes, "warm {stats:?}, cold {cold:?}");
        }

        /// Under every work limit the warm ladder stops at the cold ladder's
        /// query: same bracket, same interrupt, same work charged.
        #[test]
        fn warm_ladder_interrupts_where_the_cold_one_does() {
            let (t_lo, t_hi, gap) = (r(100), r(200), Rational::new(1, 64));
            let threshold = Rational::new(1371, 10);
            let full = cold(t_lo, t_hi, gap, fake(threshold));
            for w in 0..=(full.probes as u64 + 1) {
                let cold_budget = SolveBudget::unlimited().with_work_limit(w);
                let cold = cold_in(t_lo, t_hi, gap, &cold_budget, fake(threshold));
                let warm_budget = SolveBudget::unlimited().with_work_limit(w);
                let hint = (r(136), r(138));
                let (warm, _) = warm_in(t_lo, t_hi, gap, hint, &warm_budget, fake(threshold));
                assert_eq!(warm.accepted, cold.accepted, "w={w}");
                assert_eq!(warm.rejected, cold.rejected, "w={w}");
                assert_eq!(warm.interrupt, cold.interrupt, "w={w}");
                assert_eq!(warm_budget.work_used(), cold_budget.work_used(), "w={w}");
            }
        }
    }

    #[test]
    fn integer_search_is_exact() {
        let threshold = 137u64;
        let (out, _) = integer_search(100, 200, SolveConfig::default(), |_, t| t >= threshold);
        assert_eq!(out.accepted, 137);
        assert_eq!(out.rejected, Some(136));
    }

    #[test]
    fn integer_search_immediate() {
        let (out, _) = integer_search(100, 200, SolveConfig::default(), |_, _| true);
        assert_eq!(out.accepted, 100);
        assert_eq!(out.rejected, None);
    }

    #[test]
    fn refine_narrows_to_candidate_free_bracket() {
        let threshold = r(57);
        let cands = vec![r(20), r(40), r(60), r(80)];
        let accepts = |t: Rational| Some(t >= threshold);
        let (lo, hi) = refine_right_interval(r(10), r(100), &cands, accepts);
        // No candidate strictly inside (lo, hi); bracket still brackets 57.
        assert_eq!((lo, hi), (r(40), r(60)));
    }

    #[test]
    fn refine_all_rejected() {
        let cands = vec![r(20), r(40)];
        let (lo, hi) = refine_right_interval(r(10), r(100), &cands, |t| Some(t >= r(99)));
        assert_eq!((lo, hi), (r(40), r(100)));
    }

    #[test]
    fn refine_all_accepted() {
        let cands = vec![r(20), r(40)];
        let (lo, hi) = refine_right_interval(r(10), r(100), &cands, |t| Some(t >= r(15)));
        assert_eq!((lo, hi), (r(10), r(20)));
    }

    #[test]
    fn refine_ignores_outside_candidates() {
        let cands = vec![r(5), r(10), r(50), r(100), r(120)];
        let (lo, hi) = refine_right_interval(r(10), r(100), &cands, |t| Some(t >= r(60)));
        assert_eq!((lo, hi), (r(50), r(100)));
    }
}
