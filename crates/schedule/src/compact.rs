//! Configuration-based schedules with multiplicities.
//!
//! The splittable algorithms of the paper run in time *sublinear in `m`*
//! (`O(n + c log(c+m))`), which is impossible if the output writes every
//! machine explicitly. Following the paper's remark that "a schedule may
//! consist of machine configurations with associated multiplicities", a
//! [`CompactSchedule`] is a list of configuration groups; a group places one
//! configuration on `count` consecutive machines starting at `first_machine`.
//! Several groups may target the same machine (e.g. the splittable 3/2-dual
//! first fills a class's last machine, then *tops it up* with cheap load in a
//! second pass); feasibility of the combined timeline is checked either
//! directly on the groups ([`crate::validate_compact`]) or after
//! [`CompactSchedule::expand`]. [`CompactSchedule::expand_into`] streams the
//! explicit placements into any [`PlacementSink`] without an intermediate
//! copy.

use core::fmt;

use bss_instance::JobId;
use bss_json::{FromJson, JsonError, ToJson, Value};
use bss_rational::Rational;

use crate::ticks::{common_grid, PackedKind, Record, Store};
use crate::{ItemKind, Placement, PlacementSink, Schedule, Violation};

/// One item inside a machine configuration (machine-relative, no machine id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigItem {
    /// Start time on the machine.
    pub start: Rational,
    /// Duration.
    pub len: Rational,
    /// Setup or job piece.
    pub kind: ItemKind,
}

impl ToJson for ConfigItem {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("start".into(), self.start.to_json_value()),
            ("len".into(), self.len.to_json_value()),
            ("kind".into(), self.kind.to_json_value()),
        ])
    }
}

impl FromJson for ConfigItem {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(ConfigItem {
            start: Rational::from_json_value(bss_json::required(value, "start")?)?,
            len: Rational::from_json_value(bss_json::required(value, "len")?)?,
            kind: ItemKind::from_json_value(bss_json::required(value, "kind")?)?,
        })
    }
}

/// A machine configuration: (part of) the timeline of one machine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineConfig {
    /// Items on this machine (in placement order).
    pub items: Vec<ConfigItem>,
}

impl MachineConfig {
    /// Total busy time of the configuration.
    #[must_use]
    pub fn load(&self) -> Rational {
        self.items
            .iter()
            .map(|i| i.len)
            .fold(Rational::ZERO, |a, b| a + b)
    }
}

impl ToJson for MachineConfig {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![("items".into(), self.items.to_json_value())])
    }
}

impl FromJson for MachineConfig {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(MachineConfig {
            items: Vec::from_json_value(bss_json::required(value, "items")?)?,
        })
    }
}

/// A configuration group: `config` repeated on machines
/// `first_machine .. first_machine + count` — the owned, decoded form of a
/// [`GroupRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigGroup {
    /// First machine of the group.
    pub first_machine: usize,
    /// Number of consecutive machines.
    pub count: usize,
    /// The shared configuration.
    pub config: MachineConfig,
}

impl ToJson for ConfigGroup {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            (
                "first_machine".into(),
                Value::Int(self.first_machine as i128),
            ),
            ("count".into(), Value::Int(self.count as i128)),
            ("config".into(), self.config.to_json_value()),
        ])
    }
}

impl FromJson for ConfigGroup {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(ConfigGroup {
            first_machine: bss_json::int_from(
                bss_json::required(value, "first_machine")?,
                "first_machine",
            )?,
            count: bss_json::int_from(bss_json::required(value, "count")?, "count")?,
            config: MachineConfig::from_json_value(bss_json::required(value, "config")?)?,
        })
    }
}

/// A schedule stored as configuration groups with multiplicities.
///
/// A job piece appearing in a configuration of multiplicity `k` denotes `k`
/// *distinct* pieces of that job, one per machine — meaningful only for the
/// splittable variant, where job pieces may run in parallel.
///
/// Like [`Schedule`], the times are ticks of one grid `1/D` (see the crate
/// docs), the items of all groups live in one flat buffer, and the largest
/// end is tracked on push. [`CompactSchedule::groups`] decodes on read.
#[derive(Clone)]
pub struct CompactSchedule {
    machines: usize,
    groups: Vec<GroupRecord>,
    /// Items of all groups, group after group (`machine` unused).
    items: Store,
}

/// A group's header: machines and its range in the flat item buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupRecord {
    first_machine: usize,
    count: usize,
    start: usize,
    end: usize,
}

impl PartialEq for CompactSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.machines == other.machines
            && self.groups == other.groups
            && self.items.same_values(&other.items)
    }
}

impl Eq for CompactSchedule {}

impl fmt::Debug for CompactSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompactSchedule")
            .field("machines", &self.machines)
            .field(
                "groups",
                &self.groups().map(|g| g.to_group()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ToJson for CompactSchedule {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("machines".into(), Value::Int(self.machines as i128)),
            (
                "groups".into(),
                Value::Array(
                    self.groups()
                        .map(|g| g.to_group().to_json_value())
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for CompactSchedule {
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let machines = bss_json::int_from(bss_json::required(value, "machines")?, "machines")?;
        let groups: Vec<ConfigGroup> = Vec::from_json_value(bss_json::required(value, "groups")?)?;
        let items = groups.iter().flat_map(|g| &g.config.items);
        let grid = common_grid(items.flat_map(|it| [it.start, it.len]))
            .ok_or_else(|| JsonError::new("schedule times share no i128 tick grid"))?;
        let mut cs = CompactSchedule::with_grid(machines, grid);
        // Decoded groups are kept as they are, empty ones included: a
        // validator judges them.
        for g in &groups {
            cs.begin_group(g.first_machine, g.count);
            for item in &g.config.items {
                let p = Placement::new(0, item.start, item.len, item.kind);
                cs.items
                    .try_encode(&p)
                    .and_then(|r| cs.items.try_push(r))
                    .ok_or_else(|| JsonError::new("item does not fit an i128 tick record"))?;
                cs.close_item();
            }
        }
        Ok(cs)
    }
}

impl CompactSchedule {
    /// An empty compact schedule on `machines` machines, on the integer grid.
    #[must_use]
    pub fn new(machines: usize) -> Self {
        CompactSchedule::with_grid(machines, 1)
    }

    /// An empty compact schedule on `machines` machines whose times are
    /// ticks of `1/grid`.
    ///
    /// # Panics
    /// Panics if `grid < 1`.
    #[must_use]
    pub fn with_grid(machines: usize, grid: i128) -> Self {
        CompactSchedule {
            machines,
            groups: Vec::new(),
            items: Store::new(grid),
        }
    }

    /// Clears the schedule for reuse on `machines` machines and the integer
    /// grid, keeping the buffers' capacity.
    pub fn reset(&mut self, machines: usize) {
        self.reset_on_grid(machines, 1);
    }

    /// Clears the schedule for reuse on `machines` machines and the grid
    /// `1/grid`, keeping the buffers' capacity.
    ///
    /// # Panics
    /// Panics if `grid < 1`.
    pub fn reset_on_grid(&mut self, machines: usize, grid: i128) {
        self.machines = machines;
        self.groups.clear();
        self.items.reset(grid);
    }

    /// Number of machines of the instance.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The grid denominator `D`: every stored time is a multiple of `1/D`.
    #[must_use]
    pub fn grid(&self) -> i128 {
        self.items.grid
    }

    /// Counts the item just pushed to the store into the open group.
    #[inline]
    fn close_item(&mut self) {
        self.groups
            .last_mut()
            .expect("items require an open group")
            .end += 1;
    }

    /// Appends a configuration group (ignored if `count == 0` or the config is
    /// empty). Times off the current grid widen it.
    pub fn push_group(&mut self, first_machine: usize, count: usize, config: MachineConfig) {
        if count > 0 && !config.items.is_empty() {
            self.begin_group(first_machine, count);
            for item in config.items {
                self.push_open_item(item);
            }
        }
    }

    /// The configuration groups, decoded on read.
    pub fn groups(&self) -> impl ExactSizeIterator<Item = GroupRef<'_>> + Clone + '_ {
        self.groups.iter().map(|g| self.group_ref(g))
    }

    /// Streaming group builder: opens an empty group whose items arrive via
    /// [`CompactSchedule::push_open_ticks`] (or
    /// [`CompactSchedule::push_open_item`]). Close it with
    /// [`CompactSchedule::end_group`] before reading
    /// [`CompactSchedule::groups`] — an open group that never received an
    /// item would otherwise linger empty. Building in place keeps every
    /// allocation inside the output (the wrap emitters rely on this for the
    /// zero-copy pipeline).
    pub fn begin_group(&mut self, first_machine: usize, count: usize) {
        let at = self.items.records.len();
        self.groups.push(GroupRecord {
            first_machine,
            count,
            start: at,
            end: at,
        });
    }

    /// Appends an item whose times are ticks of this schedule's grid to the
    /// group opened by [`CompactSchedule::begin_group`].
    ///
    /// # Panics
    /// Panics when no group is open (programming error in the emitter), or
    /// with "Rational overflow" when `start + len` leaves `i128`.
    #[inline]
    pub fn push_open_ticks(&mut self, start: i128, len: i128, kind: ItemKind) {
        self.items.push(Record {
            start,
            len,
            machine: 0,
            kind: PackedKind::pack(kind),
        });
        self.close_item();
    }

    /// [`CompactSchedule::push_open_ticks`] for a [`ConfigItem`] value;
    /// times off the current grid widen it.
    ///
    /// # Panics
    /// Panics when no group is open (programming error in the emitter).
    pub fn push_open_item(&mut self, item: ConfigItem) {
        assert!(
            !self.groups.is_empty(),
            "push_open_item requires an open group"
        );
        let record = self
            .items
            .encode(&Placement::new(0, item.start, item.len, item.kind));
        self.items.push(record);
        self.close_item();
    }

    /// Closes the group opened by [`CompactSchedule::begin_group`], dropping
    /// it when it stayed empty (mirroring [`CompactSchedule::push_group`]).
    pub fn end_group(&mut self) {
        if matches!(
            self.groups.last(),
            Some(g) if g.count == 0 || g.start == g.end
        ) {
            let g = self.groups.pop().expect("matched above");
            self.items.records.truncate(g.start);
            self.items.refresh_max_end();
        }
    }

    /// Total number of `(item, machine)` incidences; `expand` cost is
    /// proportional to this plus `m`.
    #[must_use]
    pub fn total_items(&self) -> usize {
        self.groups
            .iter()
            .map(|g| (g.end - g.start) * g.count)
            .sum()
    }

    /// Compact size: number of stored items over all groups (what the
    /// near-linear algorithms actually write).
    #[must_use]
    pub fn stored_items(&self) -> usize {
        self.items.records.len()
    }

    /// Makespan over all groups, in `O(1)`.
    #[must_use]
    pub fn makespan(&self) -> Rational {
        self.items.makespan()
    }

    /// Total processing time assigned to job `job`, counting multiplicities.
    #[must_use]
    pub fn job_assigned(&self, job: JobId) -> Rational {
        let mut total = 0i128;
        for g in &self.groups {
            let count = i128::try_from(g.count).expect("count fits i128");
            for item in &self.items.records[g.start..g.end] {
                if item.kind.job() == Some(job) {
                    total = item
                        .len
                        .checked_mul(count)
                        .and_then(|l| total.checked_add(l))
                        .expect("Rational overflow");
                }
            }
        }
        Rational::new(total, self.items.grid)
    }

    /// The violation of a group reaching past the last machine.
    fn out_of_range(&self, g: &GroupRecord) -> Option<Violation> {
        (g.first_machine + g.count > self.machines).then(|| Violation::MachineOutOfRange {
            machine: g.first_machine + g.count - 1,
        })
    }

    /// Streams the explicit placements into `sink`, once, in group order —
    /// the single-copy replacement for the old expand-then-`absorb` pattern.
    /// Runs in `O(total_items + m)`.
    ///
    /// # Errors
    /// [`Violation::MachineOutOfRange`] when a group extends past the last
    /// machine (e.g. a hand-edited or deserialized schedule); placements
    /// emitted before the offending group remain in `sink`.
    pub fn expand_into<S: PlacementSink>(&self, sink: &mut S) -> Result<(), Violation> {
        let grid = self.items.grid;
        for g in &self.groups {
            if let Some(v) = self.out_of_range(g) {
                return Err(v);
            }
            for machine in g.first_machine..g.first_machine + g.count {
                for r in &self.items.records[g.start..g.end] {
                    sink.place(Placement {
                        machine,
                        ..r.decode(grid)
                    });
                }
            }
        }
        Ok(())
    }

    /// Materializes the explicit schedule, on this schedule's grid: a copy
    /// of the stored records with no arithmetic. Runs in
    /// `O(total_items + m)`.
    ///
    /// # Errors
    /// [`Violation::MachineOutOfRange`] when a group extends past the last
    /// machine — malformed input is reported, never aborted on.
    pub fn expand(&self) -> Result<Schedule, Violation> {
        // Range checks first: only then is `total_items` bounded by the
        // machine count, and safe to reserve.
        if let Some(v) = self.groups.iter().find_map(|g| self.out_of_range(g)) {
            return Err(v);
        }
        let mut schedule = Schedule::with_grid(self.machines, self.items.grid);
        schedule.reserve(self.total_items());
        for g in &self.groups {
            for machine in g.first_machine..g.first_machine + g.count {
                schedule.extend_records(machine, &self.items.records[g.start..g.end]);
            }
        }
        Ok(schedule)
    }

    fn group_ref(&self, g: &GroupRecord) -> GroupRef<'_> {
        GroupRef {
            first_machine: g.first_machine,
            count: g.count,
            items: &self.items.records[g.start..g.end],
            grid: self.items.grid,
        }
    }
}

/// One group of a [`CompactSchedule`]: its configuration repeated on
/// machines `first_machine .. first_machine + count`.
#[derive(Debug, Clone, Copy)]
pub struct GroupRef<'a> {
    /// First machine of the group.
    pub first_machine: usize,
    /// Number of consecutive machines.
    pub count: usize,
    items: &'a [Record],
    grid: i128,
}

impl<'a> GroupRef<'a> {
    /// The configuration's items, decoded.
    pub fn items(&self) -> impl ExactSizeIterator<Item = ConfigItem> + 'a {
        let grid = self.grid;
        self.items.iter().map(move |r| {
            let p = r.decode(grid);
            ConfigItem {
                start: p.start,
                len: p.len,
                kind: p.kind,
            }
        })
    }

    /// The group as an owned value.
    #[must_use]
    pub fn to_group(&self) -> ConfigGroup {
        ConfigGroup {
            first_machine: self.first_machine,
            count: self.count,
            config: MachineConfig {
                items: self.items().collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn piece(job: JobId, start: i128, len: i128) -> ConfigItem {
        ConfigItem {
            start: Rational::from_int(start),
            len: Rational::from_int(len),
            kind: ItemKind::Piece { job, class: 0 },
        }
    }

    fn setup(class: usize, start: i128, len: i128) -> ConfigItem {
        ConfigItem {
            start: Rational::from_int(start),
            len: Rational::from_int(len),
            kind: ItemKind::Setup(class),
        }
    }

    #[test]
    fn expand_respects_explicit_machines() {
        let mut cs = CompactSchedule::new(5);
        cs.push_group(
            1,
            2,
            MachineConfig {
                items: vec![setup(0, 0, 1), piece(0, 1, 3)],
            },
        );
        cs.push_group(
            4,
            1,
            MachineConfig {
                items: vec![setup(1, 0, 2)],
            },
        );
        let s = cs.expand().expect("in range");
        assert_eq!(s.machine_load(0), Rational::ZERO);
        assert_eq!(s.machine_load(1), Rational::from(4u64));
        assert_eq!(s.machine_load(2), Rational::from(4u64));
        assert_eq!(s.machine_load(3), Rational::ZERO);
        assert_eq!(s.machine_load(4), Rational::from(2u64));
        assert_eq!(cs.makespan(), s.makespan());
        assert_eq!(cs.total_items(), 5);
        assert_eq!(cs.stored_items(), 3);
    }

    #[test]
    fn groups_may_share_a_machine() {
        let mut cs = CompactSchedule::new(1);
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![setup(0, 0, 1)],
            },
        );
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![piece(0, 1, 2)],
            },
        );
        let s = cs.expand().expect("in range");
        assert_eq!(s.machine_load(0), Rational::from(3u64));
    }

    #[test]
    fn job_assigned_counts_multiplicity() {
        let mut cs = CompactSchedule::new(4);
        cs.push_group(
            0,
            3,
            MachineConfig {
                items: vec![piece(7, 0, 3)],
            },
        );
        assert_eq!(cs.job_assigned(7), Rational::from(9u64));
        assert_eq!(cs.job_assigned(8), Rational::ZERO);
    }

    #[test]
    fn expand_reports_out_of_range_group() {
        let mut cs = CompactSchedule::new(1);
        cs.push_group(
            1,
            1,
            MachineConfig {
                items: vec![setup(0, 0, 1)],
            },
        );
        assert_eq!(
            cs.expand().unwrap_err(),
            Violation::MachineOutOfRange { machine: 1 }
        );
        let mut sink = Schedule::new(1);
        assert!(cs.expand_into(&mut sink).is_err());
    }

    #[test]
    fn expand_into_matches_expand() {
        let mut cs = CompactSchedule::new(4);
        cs.push_group(
            0,
            3,
            MachineConfig {
                items: vec![setup(0, 0, 1), piece(0, 1, 2)],
            },
        );
        cs.push_group(
            3,
            1,
            MachineConfig {
                items: vec![setup(1, 0, 2)],
            },
        );
        let mut streamed = Schedule::new(4);
        cs.expand_into(&mut streamed).expect("in range");
        assert_eq!(streamed, cs.expand().expect("in range"));
    }

    #[test]
    fn reset_keeps_capacity_and_clears_groups() {
        let mut cs = CompactSchedule::new(2);
        cs.push_group(
            0,
            1,
            MachineConfig {
                items: vec![setup(0, 0, 1)],
            },
        );
        cs.reset(5);
        assert_eq!(cs.groups().len(), 0);
        assert_eq!(cs.machines(), 5);
    }

    #[test]
    fn expand_reports_a_huge_out_of_range_group_without_allocating_it() {
        let json = r#"{"machines": 1, "groups": [{"first_machine": 0, "count": 1099511627776,
            "config": {"items": [{"start": {"num": 0, "den": 1}, "len": {"num": 1, "den": 1},
            "kind": {"Setup": 0}}]}}]}"#;
        let cs: CompactSchedule = bss_json::decode(json).unwrap();
        assert_eq!(
            cs.expand().unwrap_err(),
            Violation::MachineOutOfRange {
                machine: (1 << 40) - 1
            }
        );
    }

    #[test]
    fn empty_groups_ignored() {
        let mut cs = CompactSchedule::new(2);
        cs.push_group(0, 0, MachineConfig::default());
        cs.push_group(
            0,
            1,
            MachineConfig::default(), // empty config
        );
        assert_eq!(cs.groups().len(), 0);
        assert_eq!(cs.makespan(), Rational::ZERO);
    }
}
