//! The explicit [`Schedule`] representation.

use core::fmt;

use bss_json::{FromJson, JsonError, ToJson, Value};
use bss_rational::Rational;

use crate::ticks::{common_grid, machine_u32, PackedKind, Record, Store};
use crate::{ItemKind, Placement};

/// An explicit schedule: a bag of placements on `m` machines.
///
/// The structure is deliberately permissive — algorithms push placements in
/// whatever order is convenient; [`crate::validate`] is the arbiter of
/// feasibility. Queries that need per-machine order sort on demand.
///
/// Times are stored as ticks of one grid `1/D` (see the crate docs):
/// builders fix `D` up front ([`Schedule::reset_on_grid`]) and push ticks
/// ([`Schedule::push_ticks`]); the [`Rational`] push API widens `D` when a
/// value is off the grid. Equality compares values, not grids. The largest
/// end time is tracked on push, so [`Schedule::makespan`] is `O(1)`.
#[derive(Clone)]
pub struct Schedule {
    machines: usize,
    store: Store,
}

impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.machines == other.machines && self.store.same_values(&other.store)
    }
}

impl Eq for Schedule {}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schedule")
            .field("machines", &self.machines)
            .field("placements", &self.placements().collect::<Vec<_>>())
            .finish()
    }
}

impl ToJson for Schedule {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("machines".into(), Value::Int(self.machines as i128)),
            (
                "placements".into(),
                Value::Array(self.placements().map(|p| p.to_json_value()).collect()),
            ),
        ])
    }
}

impl FromJson for Schedule {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let machines = bss_json::int_from(bss_json::required(value, "machines")?, "machines")?;
        let placements: Vec<Placement> =
            Vec::from_json_value(bss_json::required(value, "placements")?)?;
        let grid = common_grid(placements.iter().flat_map(|p| [p.start, p.len]))
            .ok_or_else(|| JsonError::new("schedule times share no i128 tick grid"))?;
        let mut store = Store::new(grid);
        store.records.reserve(placements.len());
        // Decoded placements are kept as they are, zero lengths included
        // (only the push API drops those): a validator judges them.
        for p in &placements {
            store
                .try_encode(p)
                .and_then(|r| store.try_push(r))
                .ok_or_else(|| JsonError::new("placement does not fit an i128 tick record"))?;
        }
        Ok(Schedule { machines, store })
    }
}

impl Schedule {
    /// An empty schedule on `machines` machines, on the integer grid.
    #[must_use]
    pub fn new(machines: usize) -> Self {
        Schedule::with_grid(machines, 1)
    }

    /// An empty schedule on `machines` machines whose times are ticks of
    /// `1/grid`.
    ///
    /// # Panics
    /// Panics if `grid < 1`.
    #[must_use]
    pub fn with_grid(machines: usize, grid: i128) -> Self {
        Schedule {
            machines,
            store: Store::new(grid),
        }
    }

    /// Number of machines.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The grid denominator `D`: every stored time is a multiple of `1/D`.
    #[must_use]
    pub fn grid(&self) -> i128 {
        self.store.grid
    }

    /// Clears the schedule for reuse on `machines` machines and the integer
    /// grid, keeping the placement buffer's capacity.
    pub fn reset(&mut self, machines: usize) {
        self.reset_on_grid(machines, 1);
    }

    /// Clears the schedule for reuse on `machines` machines and the grid
    /// `1/grid`, keeping the placement buffer's capacity (warm builders
    /// re-emit into the same output without reallocating).
    ///
    /// # Panics
    /// Panics if `grid < 1`.
    pub fn reset_on_grid(&mut self, machines: usize, grid: i128) {
        self.machines = machines;
        self.store.reset(grid);
    }

    /// Adds an item whose times are ticks of this schedule's grid.
    /// Zero-length items are ignored.
    ///
    /// # Panics
    /// Panics with "Rational overflow" when `start + len` leaves `i128`.
    #[inline]
    pub fn push_ticks(&mut self, machine: usize, start: i128, len: i128, kind: ItemKind) {
        if len > 0 {
            self.store.push(Record {
                start,
                len,
                machine: machine_u32(machine),
                kind: PackedKind::pack(kind),
            });
        }
    }

    /// Adds a placement. Zero-length placements are ignored. A time off the
    /// current grid widens it (see the crate docs).
    pub fn push(&mut self, p: Placement) {
        if p.len.is_positive() {
            let record = self.store.encode(&p);
            self.store.push(record);
        }
    }

    /// Appends records of the same grid, placed on `machine` — the compact
    /// expansion's copy loop. Zero-length records are dropped, as by
    /// [`Schedule::push`].
    pub(crate) fn extend_records(&mut self, machine: usize, records: &[Record]) {
        let machine = machine_u32(machine);
        for r in records {
            if r.len > 0 {
                self.store.push(Record { machine, ..*r });
            }
        }
    }

    /// Reserves room for `additional` more placements.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.store.records.reserve(additional);
    }

    /// Adds a setup placement.
    pub fn push_setup(&mut self, machine: usize, start: Rational, len: Rational, class: usize) {
        self.push(Placement::new(machine, start, len, ItemKind::Setup(class)));
    }

    /// Adds a job-piece placement.
    pub fn push_piece(
        &mut self,
        machine: usize,
        start: Rational,
        len: Rational,
        job: usize,
        class: usize,
    ) {
        self.push(Placement::new(
            machine,
            start,
            len,
            ItemKind::Piece { job, class },
        ));
    }

    /// All placements, in insertion order, decoded on read.
    pub fn placements(&self) -> impl ExactSizeIterator<Item = Placement> + Clone + '_ {
        self.store.placements()
    }

    /// Replaces the placement at `idx` by `f` applied to it (schedule
    /// repair and mutation tests). Unlike [`Schedule::push`], the edited
    /// placement is kept whatever its length.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn edit(&mut self, idx: usize, f: impl FnOnce(&mut Placement)) {
        let mut p = self.store.records[idx].decode(self.store.grid);
        f(&mut p);
        let record = self.store.encode(&p);
        self.store.records[idx] = record;
        self.store.refresh_max_end();
    }

    /// Keeps only the placements for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&Placement) -> bool) {
        let grid = self.store.grid;
        self.store.records.retain(|r| keep(&r.decode(grid)));
        self.store.refresh_max_end();
    }

    /// The makespan: the largest placement end time (0 if empty), in
    /// `O(1)`.
    #[must_use]
    pub fn makespan(&self) -> Rational {
        self.store.makespan()
    }

    /// Total busy time on `machine` (setups + job pieces).
    #[must_use]
    pub fn machine_load(&self, machine: usize) -> Rational {
        let ticks = self
            .store
            .records
            .iter()
            .filter(|r| r.machine as usize == machine)
            .fold(0i128, |a, r| {
                a.checked_add(r.len).expect("Rational overflow")
            });
        Rational::new(ticks, self.store.grid)
    }

    /// Busy time of every machine.
    #[must_use]
    pub fn loads(&self) -> Vec<Rational> {
        let mut loads = vec![0i128; self.machines];
        for r in &self.store.records {
            let load = &mut loads[r.machine as usize];
            *load = load.checked_add(r.len).expect("Rational overflow");
        }
        loads
            .into_iter()
            .map(|t| Rational::new(t, self.store.grid))
            .collect()
    }

    /// Number of setup placements (the `Σ λ_i` of the paper's load accounting).
    #[must_use]
    pub fn num_setups(&self) -> usize {
        self.store
            .records
            .iter()
            .filter(|r| r.kind.is_setup())
            .count()
    }

    /// Number of job-piece placements.
    #[must_use]
    pub fn num_pieces(&self) -> usize {
        self.store.records.len() - self.num_setups()
    }

    /// Placements of `machine`, sorted by start time.
    #[must_use]
    pub fn machine_timeline(&self, machine: usize) -> Vec<Placement> {
        let mut row: Vec<&Record> = self
            .store
            .records
            .iter()
            .filter(|r| r.machine as usize == machine)
            .collect();
        row.sort_by_key(|r| r.start);
        row.into_iter().map(|r| r.decode(self.store.grid)).collect()
    }

    /// Merges another schedule's placements into this one (machine indices are
    /// taken as-is; the caller is responsible for disjointness).
    pub fn absorb(&mut self, other: Schedule) {
        debug_assert_eq!(self.machines, other.machines);
        for p in other.placements() {
            let record = self.store.encode(&p);
            self.store.push(record);
        }
    }

    /// Serializes the schedule to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        bss_json::encode_pretty(self)
    }

    /// Parses a schedule from JSON. The result is *not* checked for
    /// feasibility — run [`crate::validate`] against an instance for that.
    ///
    /// # Errors
    /// Malformed JSON, and times whose common grid or tick counts leave
    /// `i128`: "schedule times share no i128 tick grid" when the lcm of the
    /// time denominators does, which four pairwise-coprime denominators near
    /// the wire bound `2^32` already reach.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        bss_json::decode(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Schedule {
        let mut s = Schedule::new(2);
        s.push_setup(0, Rational::ZERO, Rational::from(2u64), 0);
        s.push_piece(0, Rational::from(2u64), Rational::from(3u64), 0, 0);
        s.push_setup(1, Rational::ZERO, Rational::from(1u64), 1);
        s.push_piece(1, Rational::from(1u64), Rational::new(5, 2), 1, 1);
        s
    }

    #[test]
    fn makespan_and_loads() {
        let s = sched();
        assert_eq!(s.makespan(), Rational::from(5u64));
        assert_eq!(s.machine_load(0), Rational::from(5u64));
        assert_eq!(s.machine_load(1), Rational::new(7, 2));
        assert_eq!(s.loads(), vec![Rational::from(5u64), Rational::new(7, 2)]);
    }

    #[test]
    fn zero_length_placements_are_dropped() {
        let mut s = Schedule::new(1);
        s.push_piece(0, Rational::ZERO, Rational::ZERO, 0, 0);
        assert_eq!(s.placements().len(), 0);
    }

    #[test]
    fn counts() {
        let s = sched();
        assert_eq!(s.num_setups(), 2);
        assert_eq!(s.num_pieces(), 2);
    }

    #[test]
    fn timeline_is_sorted() {
        let mut s = Schedule::new(1);
        s.push_piece(0, Rational::from(5u64), Rational::ONE, 0, 0);
        s.push_setup(0, Rational::ZERO, Rational::ONE, 0);
        let tl = s.machine_timeline(0);
        assert!(tl[0].start < tl[1].start);
    }

    #[test]
    fn empty_schedule_makespan_zero() {
        assert_eq!(Schedule::new(3).makespan(), Rational::ZERO);
    }

    #[test]
    fn off_grid_push_widens_exactly() {
        let s = sched();
        assert_eq!(s.grid(), 2);
        let mut t = Schedule::with_grid(2, 2);
        t.push_ticks(0, 0, 4, ItemKind::Setup(0));
        t.push_ticks(0, 4, 6, ItemKind::Piece { job: 0, class: 0 });
        t.push_ticks(1, 0, 2, ItemKind::Setup(1));
        t.push_ticks(1, 2, 5, ItemKind::Piece { job: 1, class: 1 });
        assert_eq!(s, t);
        // A third widens 2 → 6 and rescales what is stored.
        t.push_piece(1, Rational::new(9, 2), Rational::new(2, 3), 2, 1);
        assert_eq!(t.grid(), 6);
        assert_eq!(t.makespan(), Rational::new(31, 6));
        assert_eq!(t.placements().nth(1).unwrap().len, Rational::from(3u64));
        assert_ne!(s, t);
    }

    #[test]
    fn equality_compares_values_not_grids() {
        let a = sched();
        let mut b = Schedule::with_grid(2, 10);
        for p in a.placements() {
            b.push(p);
        }
        assert_eq!(b.grid(), 10);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn edits_keep_the_makespan_current() {
        let mut s = sched();
        s.edit(1, |p| p.len += Rational::new(1, 3));
        assert_eq!(s.makespan(), Rational::new(16, 3));
        assert_eq!(s.grid(), 6);
        assert_eq!(s.placements().nth(1).unwrap().len, Rational::new(10, 3));
        s.retain(|p| p.kind != ItemKind::Piece { job: 0, class: 0 });
        assert_eq!(s.makespan(), Rational::new(7, 2));
        s.retain(|p| p.machine == 0);
        assert_eq!(s.placements().len(), 1);
        assert_eq!(s.makespan(), Rational::from(2u64));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = sched();
        let back = Schedule::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), s.to_json());
        assert_eq!(back.makespan(), s.makespan());
    }

    /// A schedule's times must share one `i128` grid. Denominators within
    /// the wire bound (`2^32`) can still miss it: four pairwise-coprime ones
    /// near `2^32` have an lcm past `2^127`, and such a file is refused at
    /// decode (so `bss validate` cannot judge it); three of them still fit.
    #[test]
    fn json_times_without_a_common_grid_are_an_error() {
        let json = |dens: &[i64]| {
            let placements: Vec<String> = dens
                .iter()
                .map(|d| {
                    format!(
                        r#"{{"machine": 0, "start": {{"num": 1, "den": {d}}}, "len": {{"num": 1, "den": 1}}, "kind": {{"Setup": 0}}}}"#
                    )
                })
                .collect();
            format!(
                r#"{{"machines": 1, "placements": [{}]}}"#,
                placements.join(",")
            )
        };
        let primes = [
            4_294_967_291i64,
            4_294_967_279,
            4_294_967_231,
            4_294_967_197,
        ];
        let fits = Schedule::from_json(&json(&primes[..3])).expect("lcm below 2^127");
        assert_eq!(fits.placements().len(), 3);
        let err = Schedule::from_json(&json(&primes)).unwrap_err();
        assert_eq!(err.to_string(), "schedule times share no i128 tick grid");
    }

    #[test]
    fn absorb_aligns_grids() {
        let mut a = Schedule::new(2);
        a.push_setup(0, Rational::ZERO, Rational::ONE, 0);
        let mut b = Schedule::with_grid(2, 3);
        b.push_ticks(1, 1, 2, ItemKind::Setup(1));
        a.absorb(b);
        assert_eq!(a.grid(), 3);
        assert_eq!(a.makespan(), Rational::ONE);
        assert_eq!(a.placements().nth(1).unwrap().start, Rational::new(1, 3));
    }
}
