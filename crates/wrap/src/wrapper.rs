//! The `Wrap` algorithm with `Split` (Algorithm 5) and the parallel-gap fast
//! path.
//!
//! The wrapper is generic over its *emission target* ([`WrapEmit`]): the same
//! placement logic either appends configuration groups to a
//! [`CompactSchedule`] ([`wrap`], [`wrap_append`]) or streams explicit
//! placements straight into a [`Schedule`] ([`wrap_into`]) — the
//! compact-first pipeline's way of writing a wrap result into its final
//! destination exactly once.
//!
//! All times are ticks of the target's grid, so the fit test and the split
//! remainder of `Split` are one `i128` add and compare.

use bss_instance::ClassId;
use bss_rational::Rational;
use bss_schedule::{to_ticks, CompactSchedule, ItemKind, Schedule};

use crate::{GapRun, SeqItem, SeqKind, Template};

/// Structural failures of a wrap. Under Lemma 6's preconditions these never
/// occur; the dual algorithms treat them as "reject this makespan guess".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrapError {
    /// The template ran out of gaps before the sequence was fully placed.
    OutOfSpace {
        /// Load that could not be placed.
        unplaced: Rational,
    },
    /// A setup moved below a gap would start before time 0 (the caller
    /// violated the free-time-below-gaps precondition).
    SetupBelowZero {
        /// The class whose setup did not fit.
        class: ClassId,
    },
}

impl core::fmt::Display for WrapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WrapError::OutOfSpace { unplaced } => {
                write!(f, "wrap template exhausted with {unplaced} load unplaced")
            }
            WrapError::SetupBelowZero { class } => {
                write!(
                    f,
                    "setup of class {class} moved below a gap starts before time 0"
                )
            }
        }
    }
}

impl std::error::Error for WrapError {}

/// One emitted item, machine-relative, in ticks.
#[derive(Debug, Clone, Copy)]
struct Tick {
    start: i128,
    len: i128,
    kind: ItemKind,
}

/// Where wrapped items go: one call per single-machine item, one call per
/// parallel-gap group. Machines arrive in non-decreasing order (gaps live on
/// strictly increasing machines).
trait WrapEmit {
    /// The grid of the target: the items' ticks are multiples of `1/grid`.
    fn grid(&self) -> i128;

    /// An item on a single machine.
    fn item(&mut self, machine: usize, item: Tick);

    /// A `(setup, piece)` configuration repeated on `count` consecutive
    /// machines (the parallel-gap fast path).
    fn group(&mut self, first_machine: usize, count: usize, setup: Tick, piece: Tick);

    /// Called once after the sequence is fully placed.
    fn finish(&mut self);
}

/// Appends configuration groups to a [`CompactSchedule`]: single-machine
/// items stream into a group opened *in place* in the output (so every
/// allocation is output storage — no emit-side scratch); fast-path groups
/// pass through with their multiplicity.
struct GroupEmit<'a> {
    out: &'a mut CompactSchedule,
    machine: usize,
    open: bool,
}

impl GroupEmit<'_> {
    fn close(&mut self) {
        if self.open {
            self.out.end_group();
            self.open = false;
        }
    }
}

impl WrapEmit for GroupEmit<'_> {
    fn grid(&self) -> i128 {
        self.out.grid()
    }

    fn item(&mut self, machine: usize, item: Tick) {
        if !self.open || machine != self.machine {
            self.close();
            self.out.begin_group(machine, 1);
            self.machine = machine;
            self.open = true;
        }
        self.out.push_open_ticks(item.start, item.len, item.kind);
    }

    fn group(&mut self, first_machine: usize, count: usize, setup: Tick, piece: Tick) {
        self.close();
        self.out.begin_group(first_machine, count);
        self.out.push_open_ticks(setup.start, setup.len, setup.kind);
        self.out.push_open_ticks(piece.start, piece.len, piece.kind);
        self.out.end_group();
        self.machine = first_machine + count;
    }

    fn finish(&mut self) {
        self.close();
    }
}

/// Streams explicit placements into a [`Schedule`]; fast-path groups are
/// unrolled (that cost is exactly what any later expansion would pay — paid
/// once, at the final destination).
struct StreamEmit<'a> {
    out: &'a mut Schedule,
}

impl WrapEmit for StreamEmit<'_> {
    fn grid(&self) -> i128 {
        self.out.grid()
    }

    fn item(&mut self, machine: usize, item: Tick) {
        self.out
            .push_ticks(machine, item.start, item.len, item.kind);
    }

    fn group(&mut self, first_machine: usize, count: usize, setup: Tick, piece: Tick) {
        for u in first_machine..first_machine + count {
            self.out.push_ticks(u, setup.start, setup.len, setup.kind);
            self.out.push_ticks(u, piece.start, piece.len, piece.kind);
        }
    }

    fn finish(&mut self) {}
}

/// Cursor state of the wrapper: which gap we are in and what has been emitted.
struct Wrapper<'a, E: WrapEmit> {
    runs: &'a [GapRun],
    setups: &'a [u64],
    /// The target's grid, scaling the instance's setup times to ticks.
    grid: i128,
    emit: E,
    /// Index of the current run.
    run: usize,
    /// Gap offset within the current run.
    offset: usize,
    /// Whether anything was emitted into the current gap yet (guards the
    /// parallel-gap fast path).
    gap_dirty: bool,
    /// Current fill time within the current gap, in ticks.
    t: i128,
    /// Class the current gap's machine is configured for (reset per gap —
    /// every gap lives on its own machine).
    configured: Option<ClassId>,
}

impl<'a, E: WrapEmit> Wrapper<'a, E> {
    fn new(runs: &'a [GapRun], setups: &'a [u64], emit: E) -> Self {
        Wrapper {
            runs,
            setups,
            grid: emit.grid(),
            emit,
            run: 0,
            offset: 0,
            gap_dirty: false,
            t: runs.first().map_or(0, |r| r.a),
            configured: None,
        }
    }

    fn exhausted(&self) -> bool {
        self.run >= self.runs.len()
    }

    fn gap_a(&self) -> i128 {
        self.runs[self.run].a
    }

    fn gap_b(&self) -> i128 {
        self.runs[self.run].b
    }

    fn machine(&self) -> usize {
        let r = &self.runs[self.run];
        r.first_machine + self.offset
    }

    /// The setup time of `class` in ticks.
    fn setup_ticks(&self, class: ClassId) -> i128 {
        to_ticks(self.setups[class], self.grid)
    }

    /// `ticks` as a time value, for error reports.
    fn value(&self, ticks: i128) -> Rational {
        Rational::new(ticks, self.grid)
    }

    fn push(&mut self, item: Tick) {
        let machine = self.machine();
        self.emit.item(machine, item);
        self.gap_dirty = true;
    }

    /// Moves to the next gap; `false` if the template is exhausted.
    fn advance(&mut self) -> bool {
        self.configured = None;
        self.gap_dirty = false;
        self.offset += 1;
        if self.offset >= self.runs[self.run].count {
            self.run += 1;
            self.offset = 0;
        }
        if self.exhausted() {
            false
        } else {
            self.t = self.gap_a();
            true
        }
    }

    /// Places a setup of `class` below the current gap (`[a - s, a)`).
    fn setup_below(&mut self, class: ClassId) -> Result<(), WrapError> {
        let s = self.setup_ticks(class);
        let start = self.gap_a() - s;
        if start < 0 {
            return Err(WrapError::SetupBelowZero { class });
        }
        self.push(Tick {
            start,
            len: s,
            kind: ItemKind::Setup(class),
        });
        self.configured = Some(class);
        Ok(())
    }

    fn place_setup(&mut self, class: ClassId, len: i128) -> Result<(), WrapError> {
        let end = self.t.checked_add(len).expect("Rational overflow");
        if end > self.gap_b() {
            // Crossing setup: move it below the next gap.
            if !self.advance() {
                return Err(WrapError::OutOfSpace {
                    unplaced: self.value(len),
                });
            }
            self.setup_below(class)?;
        } else {
            self.push(Tick {
                start: self.t,
                len,
                kind: ItemKind::Setup(class),
            });
            self.t = end;
            self.configured = Some(class);
        }
        Ok(())
    }

    fn place_piece(&mut self, class: ClassId, job: usize, len: i128) -> Result<(), WrapError> {
        let kind = ItemKind::Piece { job, class };
        let mut remaining = len;
        loop {
            // A piece entering a fresh gap mid-class needs its setup below.
            if self.configured != Some(class) {
                self.setup_below(class)?;
            }
            let end = self.t.checked_add(remaining).expect("Rational overflow");
            if end <= self.gap_b() {
                self.push(Tick {
                    start: self.t,
                    len: remaining,
                    kind,
                });
                self.t = end;
                return Ok(());
            }
            let avail = self.gap_b() - self.t;
            if avail > 0 {
                self.push(Tick {
                    start: self.t,
                    len: avail,
                    kind,
                });
                remaining -= avail;
            }
            if !self.advance() {
                return Err(WrapError::OutOfSpace {
                    unplaced: self.value(remaining),
                });
            }
            // Parallel-gap fast path: if the piece covers >= 1 whole gap and
            // the current run still has identical gaps left, emit them as one
            // configuration group with a multiplicity.
            let run = &self.runs[self.run];
            let full = run.b - run.a;
            if remaining >= full && !self.gap_dirty {
                let gaps_left = run.count - self.offset;
                let mult = (remaining / full).min(gaps_left as i128) as usize;
                if mult >= 1 {
                    let s = self.setup_ticks(class);
                    let below_start = run.a - s;
                    if below_start < 0 {
                        return Err(WrapError::SetupBelowZero { class });
                    }
                    self.emit.group(
                        run.first_machine + self.offset,
                        mult,
                        Tick {
                            start: below_start,
                            len: s,
                            kind: ItemKind::Setup(class),
                        },
                        Tick {
                            start: run.a,
                            len: full,
                            kind,
                        },
                    );
                    remaining -= full * mult as i128;
                    // Skip the covered gaps.
                    self.offset += mult;
                    self.configured = None;
                    self.gap_dirty = false;
                    if self.offset >= run.count {
                        self.run += 1;
                        self.offset = 0;
                    }
                    if remaining == 0 {
                        // Position the cursor on the next gap (if any) for the
                        // following sequence item; an exact fit of the whole
                        // template leaves the cursor exhausted-but-done.
                        self.t = if self.exhausted() { 0 } else { self.gap_a() };
                        return Ok(());
                    }
                    if self.exhausted() {
                        return Err(WrapError::OutOfSpace {
                            unplaced: self.value(remaining),
                        });
                    }
                    self.t = self.gap_a();
                }
            }
        }
    }
}

/// The shared driver behind every public entry point: wraps any item
/// stream, such as chained [`batch_items`], without materializing it.
fn run_wrap<E: WrapEmit>(
    items: impl IntoIterator<Item = SeqItem>,
    runs: &[GapRun],
    setups: &[u64],
    emit: E,
) -> Result<(), WrapError> {
    Template::check(runs);
    let mut w = Wrapper::new(runs, setups, emit);
    for item in items {
        if w.exhausted() {
            return Err(WrapError::OutOfSpace {
                unplaced: w.value(item.len),
            });
        }
        match item.kind {
            SeqKind::Setup => w.place_setup(item.class, item.len)?,
            SeqKind::Piece(job) => w.place_piece(item.class, job, item.len)?,
        }
    }
    w.emit.finish();
    Ok(())
}

/// One batch as a lazy item stream: the setup of `class` followed by its
/// pieces, lengths in ticks (zero-length pieces are dropped). Chain
/// several of these into [`wrap_append`] or [`wrap_into`] to wrap whole
/// class families without materializing a sequence.
pub fn batch_items(
    class: ClassId,
    setup: i128,
    pieces: impl IntoIterator<Item = (usize, i128)>,
) -> impl Iterator<Item = SeqItem> {
    debug_assert!(setup > 0, "setups have positive length");
    core::iter::once(SeqItem {
        class,
        kind: SeqKind::Setup,
        len: setup,
    })
    .chain(pieces.into_iter().filter_map(move |(job, len)| {
        (len > 0).then_some(SeqItem {
            class,
            kind: SeqKind::Piece(job),
            len,
        })
    }))
}

/// Wraps `items` into `template` on the integer grid (the paper's
/// `Wrap(Q, ω)` for integral data; wrap on a finer grid with
/// [`wrap_append`] into a [`CompactSchedule::with_grid`]).
///
/// `setups[i]` is the setup time of class `i`, used for the fresh setups that
/// `Split` inserts below gaps. `machines` is the machine count of the target
/// schedule.
///
/// Runs in `O(|Q| + |runs(ω)|)` — note: runs, not gaps — and returns a
/// [`CompactSchedule`] whose stored size is of the same order.
///
/// # Errors
/// [`WrapError`] when Lemma 6's preconditions do not hold.
pub fn wrap(
    items: impl IntoIterator<Item = SeqItem>,
    template: &Template,
    setups: &[u64],
    machines: usize,
) -> Result<CompactSchedule, WrapError> {
    let mut out = CompactSchedule::new(machines);
    wrap_append(items, template.runs(), setups, &mut out)?;
    Ok(out)
}

/// Like [`wrap`], but appends the configuration groups to an existing
/// [`CompactSchedule`], with `runs` and `items` in ticks of its grid — the
/// builders' way of assembling one compact output from several wraps,
/// streaming their items lazily (see [`batch_items`]).
///
/// `runs` must satisfy the [`Template`] invariants (checked; machine indices
/// of *this call* strictly increase — different calls may revisit machines).
///
/// # Errors
/// On [`WrapError`] the groups emitted so far remain in `out`; callers treat
/// wrap errors as a dual rejection and discard the whole output.
pub fn wrap_append(
    items: impl IntoIterator<Item = SeqItem>,
    runs: &[GapRun],
    setups: &[u64],
    out: &mut CompactSchedule,
) -> Result<(), WrapError> {
    run_wrap(
        items,
        runs,
        setups,
        GroupEmit {
            out,
            machine: 0,
            open: false,
        },
    )
}

/// Like [`wrap_append`], but streams the explicit placements of the wrap
/// straight into `out` — one copy, no intermediate schedule. Parallel-gap
/// groups are unrolled per machine, so the cost is `O(|Q| + gaps touched)`.
///
/// # Errors
/// On [`WrapError`] the placements emitted so far remain in `out`; callers
/// treat wrap errors as a dual rejection and discard the whole output.
///
/// # Panics
/// Panics when the template addresses machines past `out`'s machine count
/// (a programming error in the calling algorithm, like [`Template::new`]'s
/// own invariants).
pub fn wrap_into(
    items: impl IntoIterator<Item = SeqItem>,
    runs: &[GapRun],
    setups: &[u64],
    out: &mut Schedule,
) -> Result<(), WrapError> {
    let m = out.machines();
    let last = runs.last().map_or(0, |r| r.first_machine + r.count);
    assert!(
        last <= m,
        "template addresses machine {} but the schedule has {m} machines",
        last.saturating_sub(1),
    );
    run_wrap(items, runs, setups, StreamEmit { out })
}

#[cfg(test)]
mod tests {
    use bss_instance::Variant;
    use bss_rational::Rational;
    use bss_schedule::Schedule;

    use crate::{GapRun, SeqItem, Template};

    use super::*;

    fn r(v: i128) -> Rational {
        Rational::from_int(v)
    }

    fn piece_total(s: &Schedule) -> Rational {
        s.placements()
            .filter(|p| !p.kind.is_setup())
            .map(|p| p.len)
            .fold(Rational::ZERO, |a, b| a + b)
    }

    /// Wrap a single batch into one big gap: everything lands sequentially.
    #[test]
    fn single_gap_sequential() {
        let q = batch_items(0, 2, [(0, 3), (1, 4)]);
        let template = Template::from_gaps(vec![(0, 0, 20)]);
        let out = wrap(q, &template, &[2], 1).unwrap();
        let s = out.expand().unwrap();
        assert_eq!(s.machine_load(0), r(9));
        assert_eq!(s.makespan(), r(9));
        assert_eq!(s.num_setups(), 1);
    }

    /// A job crossing a gap border is split and a fresh setup is placed below
    /// the next gap.
    #[test]
    fn split_inserts_setup_below() {
        let q = batch_items(0, 2, [(0, 10)]);
        // Gap 1: [0, 8) on machine 0; gap 2: [2, 10) on machine 1.
        let template = Template::from_gaps(vec![(0, 0, 8), (1, 2, 10)]);
        let out = wrap(q, &template, &[2], 2).unwrap();
        let s = out.expand().unwrap();
        // Machine 0: setup [0,2), piece [2,8) (6 units).
        assert_eq!(s.machine_load(0), r(8));
        // Machine 1: setup below gap [0,2), remaining piece [2,6) (4 units).
        assert_eq!(s.machine_load(1), r(6));
        assert_eq!(s.num_setups(), 2);
        // Job 0 fully scheduled.
        assert_eq!(piece_total(&s), r(10));
    }

    /// A crossing *setup* is moved below the next gap in one piece.
    #[test]
    fn crossing_setup_moves_below() {
        let q = batch_items(0, 2, [(0, 5)]).chain(batch_items(1, 3, [(1, 4)]));
        // Gap 1: [0, 8): holds setup 0 + job 0 (7) with 1 unit slack — setup 1
        // (3 units) crosses. Gap 2: [4, 12) on machine 1.
        let template = Template::from_gaps(vec![(0, 0, 8), (1, 4, 12)]);
        let out = wrap(q, &template, &[2, 3], 2).unwrap();
        let s = out.expand().unwrap();
        let tl = s.machine_timeline(1);
        // Setup of class 1 below gap 2: [1, 4), then job: [4, 8).
        assert_eq!(tl[0].kind, ItemKind::Setup(1));
        assert_eq!(tl[0].start, r(1));
        assert_eq!(tl[1].start, r(4));
        assert_eq!(tl[1].len, r(4));
    }

    /// A huge job spanning many identical gaps uses the fast path: the
    /// compact output must stay small while the expanded schedule is full.
    #[test]
    fn parallel_gap_fast_path_compactness() {
        let q = batch_items(0, 1, [(0, 1000)]);
        let template = Template::new(vec![GapRun {
            first_machine: 0,
            count: 200,
            a: 1,
            b: 7,
        }]);
        let out = wrap(q, &template, &[1], 200).unwrap();
        // 1000 = 6 (first gap after setup... first gap holds [1+1, 7) = 5) …
        // regardless of the exact split: compact storage must be O(1) groups.
        assert!(
            out.groups().len() <= 4,
            "expected O(1) groups, got {}",
            out.groups().len()
        );
        let s = out.expand().unwrap();
        assert_eq!(piece_total(&s), r(1000));
        // Every machine that holds a piece also holds a setup below the gap.
        for u in 0..200 {
            let tl = s.machine_timeline(u);
            if tl.iter().any(|p| !p.kind.is_setup()) {
                assert!(tl.iter().any(|p| p.kind.is_setup()), "machine {u}");
            }
        }
    }

    /// Exact fit at a gap border followed by another batch: the next batch's
    /// setup must cover its jobs (regression for the configured-class reset).
    #[test]
    fn exact_fit_then_new_batch() {
        // Batch 0 exactly fills gap 1: 1 + 7 = 8.
        let q = batch_items(0, 1, [(0, 7)]).chain(batch_items(1, 2, [(1, 3)]));
        let template = Template::from_gaps(vec![(0, 0, 8), (1, 2, 10)]);
        let out = wrap(q, &template, &[1, 2], 2).unwrap();
        let s = out.expand().unwrap();
        let tl = s.machine_timeline(1);
        assert_eq!(tl[0].kind, ItemKind::Setup(1));
        assert_eq!(tl[1].kind, ItemKind::Piece { job: 1, class: 1 });
    }

    /// Same-class pieces continuing after an exact multi-gap fill get a fresh
    /// below-gap setup.
    #[test]
    fn exact_multi_gap_fill_then_same_class_piece() {
        // Two jobs of class 0: first exactly fills gaps (fast path: gap 1
        // holds 4 after the setup, gap 2 holds 5 → exact), second continues
        // in a later gap and needs a below-setup.
        let q = batch_items(0, 1, [(0, 9), (1, 3)]);
        let template = Template::new(vec![GapRun {
            first_machine: 0,
            count: 4,
            a: 1,
            b: 6,
        }]);
        let out = wrap(q, &template, &[1], 4).unwrap();
        let s = out.expand().unwrap();
        // Job 1 must be covered by a setup on its machine.
        let inst_check = {
            // machine holding job 1's piece:
            let p = s
                .placements()
                .find(|p| matches!(p.kind, ItemKind::Piece { job: 1, .. }))
                .unwrap();
            s.machine_timeline(p.machine)
                .iter()
                .any(|q| q.kind == ItemKind::Setup(0))
        };
        assert!(inst_check);
        assert_eq!(piece_total(&s), r(12));
    }

    #[test]
    fn out_of_space_reported() {
        let q = batch_items(0, 1, [(0, 100)]);
        let template = Template::from_gaps(vec![(0, 0, 5)]);
        let err = wrap(q, &template, &[1], 1).unwrap_err();
        assert!(matches!(err, WrapError::OutOfSpace { .. }));
    }

    #[test]
    fn setup_below_zero_reported() {
        let q = batch_items(0, 3, [(0, 10)]);
        // Second gap starts at 2 < s_0 = 3: moved setup would start below 0.
        let template = Template::from_gaps(vec![(0, 0, 6), (1, 2, 9)]);
        let err = wrap(q, &template, &[3], 2).unwrap_err();
        assert!(matches!(err, WrapError::SetupBelowZero { class: 0 }));
    }

    #[test]
    fn empty_sequence_empty_output() {
        let template = Template::from_gaps(vec![(0, 0, 5)]);
        let out = wrap([], &template, &[1], 1).unwrap();
        assert!(out.groups().len() == 0);
    }

    /// The streaming sink path emits exactly the placements of the expanded
    /// compact path — bit-identical, in the same order.
    #[test]
    fn wrap_into_matches_wrap_expand() {
        let q: Vec<SeqItem> = batch_items(0, 1, [(0, 9), (1, 3)])
            .chain(batch_items(1, 2, [(2, 4)]))
            .collect();
        let template = Template::new(vec![
            GapRun {
                first_machine: 0,
                count: 4,
                a: 2,
                b: 6,
            },
            GapRun::single(4, 2, 12),
        ]);
        let setups = [1u64, 2];
        let compact = wrap(q.clone(), &template, &setups, 5).unwrap();
        let expanded = compact.expand().unwrap();

        let mut streamed = Schedule::new(5);
        wrap_into(q, template.runs(), &setups, &mut streamed).unwrap();
        assert_eq!(streamed, expanded);
    }

    /// A fractional template wraps exactly on a finer grid, and streams the
    /// same values as the compact path.
    #[test]
    fn wrap_on_a_half_grid() {
        // Grid 1/2: gaps [1, 7/2) on two machines, one job of 4 units.
        let q: Vec<SeqItem> = batch_items(0, 2, [(0, 8)]).collect();
        let runs = [GapRun {
            first_machine: 0,
            count: 2,
            a: 2,
            b: 7,
        }];
        let mut out = CompactSchedule::with_grid(2, 2);
        wrap_append(q.clone(), &runs, &[1], &mut out).unwrap();
        let s = out.expand().unwrap();
        assert_eq!(piece_total(&s), r(4));
        assert_eq!(s.makespan(), Rational::new(7, 2));
        let mut streamed = Schedule::with_grid(2, 2);
        wrap_into(q, &runs, &[1], &mut streamed).unwrap();
        assert_eq!(streamed, s);
        assert!(bss_schedule::validate(&s, &one_class_instance(), Variant::Splittable).is_empty());
    }

    fn one_class_instance() -> bss_instance::Instance {
        let mut b = bss_instance::InstanceBuilder::new(2);
        b.add_batch(1, &[4]);
        b.build().unwrap()
    }

    /// `wrap_append` into a pre-filled compact schedule extends it in place.
    #[test]
    fn wrap_append_extends_existing_output() {
        let setups = [2u64, 1];
        let mut out = CompactSchedule::new(3);
        let q = batch_items(0, 2, [(0, 4)]);
        wrap_append(q, &[GapRun::single(0, 0, 10)], &setups, &mut out).unwrap();
        let first_groups = out.groups().len();
        let q2 = batch_items(1, 1, [(1, 5)]);
        wrap_append(q2, &[GapRun::single(1, 0, 10)], &setups, &mut out).unwrap();
        assert!(out.groups().len() > first_groups);
        let s = out.expand().unwrap();
        assert_eq!(s.machine_load(0), r(6));
        assert_eq!(s.machine_load(1), r(6));
    }

    /// McNaughton-style wholesale test: wrap a full instance's batches into
    /// per-machine gaps and validate the result as a splittable schedule —
    /// with both validators.
    #[test]
    fn wrap_validates_as_splittable_schedule() {
        use bss_instance::InstanceBuilder;

        let mut b = InstanceBuilder::new(4);
        b.add_batch(2, &[5, 3, 8]);
        b.add_batch(1, &[4, 4]);
        b.add_batch(3, &[6]);
        let inst = b.build().unwrap();

        // smax = 3; capacity per gap: N/m … use the Lemma 8 template.
        let n = inst.total_load_once(); // 2+1+3 + 5+3+8+4+4+6 = 36
        let per = n as i128 / inst.machines() as i128; // 9
        let smax = inst.smax() as i128;
        let template = Template::new(vec![GapRun {
            first_machine: 0,
            count: 4,
            a: smax,
            b: smax + per,
        }]);
        let q = (0..inst.num_classes()).flat_map(|i| {
            batch_items(
                i,
                i128::from(inst.setup(i)),
                inst.class_jobs(i)
                    .iter()
                    .map(|&j| (j, i128::from(inst.job(j).time))),
            )
        });
        let out = wrap(q, &template, inst.setups(), 4).unwrap();
        let compact_violations = bss_schedule::validate_compact(&out, &inst, Variant::Splittable);
        assert!(compact_violations.is_empty(), "{compact_violations:?}");
        let s: Schedule = out.expand().unwrap();
        let violations = bss_schedule::validate(&s, &inst, Variant::Splittable);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(s.makespan() <= r(smax + per));
    }
}
