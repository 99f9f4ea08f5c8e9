//! Schedule representations, streaming placement sinks, and feasibility
//! validators — the compact-first schedule pipeline.
//!
//! A schedule assigns *placements* — setups and job pieces with exact rational
//! start times and lengths — to machines (stored on a tick grid, below). Two
//! representations are provided:
//!
//! * [`CompactSchedule`]: machine *configurations with multiplicities*, the
//!   paper's "weaker definition of schedules" and the **primary form** the
//!   near-linear builders emit. The `O(n + c log(c+m))` bound of Theorem 3 is
//!   only attainable because a schedule may repeat one configuration on many
//!   machines without writing them all out.
//! * [`Schedule`]: one explicit placement list; the universal format consumed
//!   by renderers, serializers and the repair passes of the non-preemptive
//!   algorithm.
//!
//! ## Who owns what, and when expansion happens
//!
//! Builders own the compact form and keep it as long as possible. When an
//! explicit schedule is needed, [`CompactSchedule::expand_into`] streams the
//! placements **once** into any [`PlacementSink`] — the explicit [`Schedule`]
//! and bare `Vec<Placement>` both implement the trait — replacing the old
//! expand-then-absorb double copy. [`CompactSchedule::expand`] is the
//! convenience wrapper; both report malformed groups as a
//! [`Violation`] instead of panicking.
//!
//! ## Which validator to use
//!
//! * [`validate_compact`] checks a [`CompactSchedule`] directly on its
//!   groups: one representative machine per group region plus the
//!   group-boundary/width invariants, with job totals counting
//!   multiplicities. Use it for solver-native compact output — it never pays
//!   `O(total_items)`.
//! * [`validate`] walks an explicit [`Schedule`] in one `O(P log P)`
//!   sort-and-sweep. Use it for repaired schedules (the non-preemptive
//!   builder's step 4 edits placements in place) and anything deserialized.
//!
//! Both enforce the same model: machine exclusivity, setup coverage on every
//! class switch, un-preempted setups, exact load conservation per job, and
//! the variant-specific job rules (contiguity / no self-parallelism).
//!
//! ## The tick grid
//!
//! Both representations store times in fixed point: every start and length
//! is an `i128` count of ticks of one grid `1/D` per schedule, in 48-byte
//! records (two `i128` ticks, a `u32` machine and a packed item kind), and
//! the largest end is tracked on push, so `makespan()` is `O(1)`.
//!
//! * **Who picks `D`.** A builder fixes `D` from its accepted guess before
//!   it emits ([`Schedule::reset_on_grid`], [`CompactSchedule::with_grid`])
//!   and then pushes plain ticks ([`Schedule::push_ticks`],
//!   [`CompactSchedule::push_open_ticks`]; [`to_ticks`] converts a value
//!   known to be on the grid). The non-preemptive builder uses `D = 1`, the
//!   splittable ones `den(T/2)` (or `den(N/m)`), the preemptive one the lcm
//!   of `den(T/4)` and its split pieces' denominators. [`Schedule::new`]
//!   starts on the integer grid.
//! * **When it widens.** The [`Rational`](bss_rational::Rational) push API
//!   ([`Schedule::push`], [`CompactSchedule::push_group`], the
//!   [`PlacementSink`] methods) takes any value: one off the grid widens `D`
//!   to `lcm(D, den)` and rescales the stored ticks exactly. JSON decoding
//!   picks the lcm of every denominator up front.
//! * **Reading.** [`Schedule::placements`] and [`CompactSchedule::groups`]
//!   decode with `Rational::new(ticks, D)`, which is canonical, so a value
//!   reads back as the rational it encodes whatever the grid, and JSON bytes
//!   do not depend on `D`. Equality compares values, not grids.
//! * **Overflow.** Tick arithmetic is checked. A widening, rescale or end
//!   that leaves `i128` panics with "Rational overflow", like the rational
//!   arithmetic it replaces, and the solver boundary reports it as the typed
//!   `SolveError::Overflow`. JSON decoding of outside input returns an
//!   error instead: a file whose denominators have an lcm past `i128` is
//!   refused with "schedule times share no i128 tick grid", even when each
//!   denominator is within the wire bound `2^32` (four pairwise-coprime
//!   denominators near `2^32` suffice), so such a schedule cannot be
//!   decoded, and `bss validate` cannot judge it.

mod compact;
mod item;
#[cfg(test)]
mod proptests;
mod schedule;
mod sink;
mod stats;
mod ticks;
mod validate;

pub use compact::{CompactSchedule, ConfigGroup, ConfigItem, GroupRef, MachineConfig};
pub use item::{ItemKind, Placement};
pub use schedule::Schedule;
pub use sink::PlacementSink;
pub use stats::ScheduleStats;
pub use ticks::to_ticks;
pub use validate::{validate, validate_compact, Violation};
