//! Near-linear approximation algorithms for scheduling with batch setup
//! times — the algorithms of Deppert & Jansen (SPAA 2019).
//!
//! For each of the three problem variants ([`bss_instance::Variant`]) this
//! crate provides the paper's full algorithm stack:
//!
//! | result | algorithm | entry point |
//! |---|---|---|
//! | Theorem 1 | 2-approximation, `O(n)` | [`two_approx`] |
//! | Theorem 2 | `(3/2+ε)`-approx, `O(n log 1/ε)` | [`search::epsilon_search`] over the duals |
//! | Theorem 7 | splittable 3/2-dual, `O(n)` | [`splittable::dual`] |
//! | Theorem 3 | splittable 3/2, `O(n + c log(c+m))` | [`splittable::class_jumping`] |
//! | Theorems 4–5 | preemptive 3/2-dual, `O(n)` | [`preemptive::dual`] |
//! | Theorem 6 | preemptive 3/2, `O(n log(c+m))` | [`preemptive::class_jumping`] |
//! | Theorem 9 | non-preemptive 3/2-dual, `O(n)` | [`nonpreemptive::dual`] |
//! | Theorem 8 | non-preemptive 3/2, `O(n log(n+Δ))` | [`nonpreemptive::three_halves`] |
//!
//! The one-stop entry point is [`solve`] with an [`Algorithm`] selector.
//! Every other setting of a solve — a reusable [`DualWorkspace`], a
//! [`SolveBudget`], speculative threads, a [`WarmStart`] hint and a
//! [`Trace`] — is a field of one [`SolveConfig`], taken by
//! [`solve_with_config`] (and [`solve_seqdep_with_config`] /
//! [`solve_problem_with_config`] for the other models). All searches run
//! one probe ladder (see [`search`]).
//!
//! All internal arithmetic is exact ([`bss_rational::Rational`]); every
//! algorithm's output is checked against the strict validators of
//! [`bss_schedule`] in this crate's tests.
//!
//! # Anytime solving
//!
//! Every solve can run under a [`SolveBudget`] — a wall-clock deadline, a
//! probe budget, and/or a cooperative [`CancelToken`] — set as
//! [`SolveConfig::budget`]. An interrupted solve degrades gracefully: it
//! returns the best certified solution reachable at wind-down (the search's
//! current accepted bracket, or the `O(n)` Theorem-1 fallback) with an
//! honestly widened [`Solution::ratio_bound`] and a [`Completion`] saying
//! what happened. Solver panics are caught at the configured entry points
//! and surface as typed [`SolveError`]s; an unlimited budget is
//! bit-identical to the plain entry points. The budget composes with the
//! other settings: a warm solve under a work limit stops exactly where the
//! cold solve does, and a parallel one exactly where the sequential one
//! does.
//!
//! # Error contract
//!
//! Audited policy for every `unwrap`/`expect`/`panic!` reachable from the
//! public `solve*` surface:
//!
//! * **Input-dependent failures** are typed, never panics. The only such
//!   family in this crate is [`bss_rational::Rational`] overflow on
//!   astronomically scaled inputs; its panic messages all contain
//!   `overflow`, which the configured entry points map to
//!   [`SolveError::Overflow`].
//! * **Proof-backed invariants** (an `expect` citing the theorem that makes
//!   the case impossible, e.g. *"Theorem 7: expensive template capacity
//!   suffices"* or *"2·T_min is accepted (Theorem 1)"*) stay as panics: a
//!   violation is a solver bug, not a caller error. The configured entry
//!   points isolate them via `catch_unwind`, reset the workspace so no
//!   poisoned state leaks into the next solve, and report
//!   [`SolveError::Panicked`] — the fault-injection suite in `bss-chaos`
//!   checks both the isolation and the workspace reset.

pub mod classify;
pub mod nonpreemptive;
pub mod par;
pub mod preemptive;
pub mod search;
pub mod splittable;
pub mod two_approx;

mod api;
mod problem;
mod seqdep_bridge;
mod trace;
mod workspace;

pub use api::{
    solve, solve_warm, solve_with, solve_with_config, Algorithm, Completion, ScheduleRepr,
    Solution, SolveConfig, SolveError, WarmStart,
};
pub use bss_budget::{CancelToken, Interrupt, SolveBudget};
pub use problem::{solve_problem, solve_problem_with_config, BssProblem, DirectSolve, Problem};
pub use search::{SearchStats, WarmStats};
pub use seqdep_bridge::{solve_seqdep, solve_seqdep_with, solve_seqdep_with_config, SeqDepProblem};
pub use trace::Trace;
pub use workspace::DualWorkspace;
