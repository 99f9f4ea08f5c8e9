//! Fixed-point storage of schedule times: one exact tick grid per schedule.
//!
//! A schedule stores every start and length as an `i128` count of ticks of
//! `1/D`, for one grid denominator `D >= 1` per schedule (see the crate docs
//! for who picks `D`). Values are decoded on read with [`Rational::new`],
//! which is canonical, so a stored time reads back exactly as the
//! [`Rational`] it encodes.

use bss_rational::{gcd, Rational};

use crate::{ItemKind, Placement};

/// Marker in [`PackedKind::job`] for a setup.
const SETUP: u32 = u32::MAX;

/// [`ItemKind`] packed into two `u32`s: `job == u32::MAX` marks a setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PackedKind {
    job: u32,
    class: u32,
}

impl PackedKind {
    /// Packs `kind`, or `None` when an id does not fit the record (job ids
    /// `>= u32::MAX`, class ids `> u32::MAX`).
    pub(crate) fn try_pack(kind: ItemKind) -> Option<Self> {
        match kind {
            ItemKind::Setup(class) => Some(PackedKind {
                job: SETUP,
                class: u32::try_from(class).ok()?,
            }),
            ItemKind::Piece { job, class } => {
                let job = u32::try_from(job).ok().filter(|&j| j != SETUP)?;
                Some(PackedKind {
                    job,
                    class: u32::try_from(class).ok()?,
                })
            }
        }
    }

    /// Packs `kind`.
    ///
    /// # Panics
    /// Panics when an id does not fit the record (an instance that large
    /// cannot be held in memory).
    #[inline]
    pub(crate) fn pack(kind: ItemKind) -> Self {
        PackedKind::try_pack(kind).expect("schedule item ids must fit in u32")
    }

    #[inline]
    pub(crate) fn unpack(self) -> ItemKind {
        if self.job == SETUP {
            ItemKind::Setup(self.class as usize)
        } else {
            ItemKind::Piece {
                job: self.job as usize,
                class: self.class as usize,
            }
        }
    }

    #[inline]
    pub(crate) fn is_setup(self) -> bool {
        self.job == SETUP
    }

    /// The job of a piece, `None` for a setup.
    #[inline]
    pub(crate) fn job(self) -> Option<usize> {
        (self.job != SETUP).then_some(self.job as usize)
    }
}

/// One stored item: times in ticks of the owning schedule's grid. Compact
/// configuration items leave `machine` at 0 (they are machine-relative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    pub start: i128,
    pub len: i128,
    pub machine: u32,
    pub kind: PackedKind,
}

impl Record {
    /// `start + len`, checked.
    #[inline]
    pub(crate) fn end(&self) -> i128 {
        self.start.checked_add(self.len).expect("Rational overflow")
    }

    /// The record as a value on grid `grid`.
    #[inline]
    pub(crate) fn decode(&self, grid: i128) -> Placement {
        Placement {
            machine: self.machine as usize,
            start: Rational::new(self.start, grid),
            len: Rational::new(self.len, grid),
            kind: self.kind.unpack(),
        }
    }
}

/// A machine index as stored in a record.
///
/// # Panics
/// Panics past `u32::MAX` (instances are bounded far below, by
/// `MAX_MACHINES`).
#[inline]
pub(crate) fn machine_u32(machine: usize) -> u32 {
    u32::try_from(machine).expect("machine index must fit in u32")
}

/// `value` (a [`Rational`] or an integer time) in ticks of `1/grid`.
///
/// # Panics
/// Panics when `value` is not on the grid (its denominator does not divide
/// `grid`), or with "Rational overflow" when the tick count leaves `i128`.
#[must_use]
#[inline]
pub fn to_ticks(value: impl Into<Rational>, grid: i128) -> i128 {
    let value = value.into();
    let den = value.denom();
    let scale = if den == 1 {
        grid
    } else {
        let scale = grid / den;
        assert!(scale * den == grid, "{value} is not on the 1/{grid} grid");
        scale
    };
    value.numer().checked_mul(scale).expect("Rational overflow")
}

/// `lcm(a, b)` of positive values, `None` on overflow.
fn checked_lcm(a: i128, b: i128) -> Option<i128> {
    if a % b == 0 {
        return Some(a);
    }
    (a / gcd(a, b)).checked_mul(b)
}

/// The smallest grid holding every value of `values`, `None` when it
/// leaves `i128` (decoders of outside input report that as an error).
pub(crate) fn common_grid(values: impl IntoIterator<Item = Rational>) -> Option<i128> {
    values
        .into_iter()
        .try_fold(1, |grid, v| checked_lcm(grid, v.denom()))
}

/// `value` in ticks of `1/grid` for a grid known to hold it, `None` on
/// overflow.
fn checked_ticks(value: Rational, grid: i128) -> Option<i128> {
    value.numer().checked_mul(grid / value.denom())
}

/// Records on one tick grid, with the largest end tracked on push — the
/// storage shared by [`Schedule`](crate::Schedule) and
/// [`CompactSchedule`](crate::CompactSchedule).
#[derive(Debug, Clone)]
pub(crate) struct Store {
    pub grid: i128,
    pub records: Vec<Record>,
    /// Largest end in ticks; `i128::MIN` while empty.
    max_end: i128,
}

impl Store {
    /// An empty store on the grid `1/grid`.
    ///
    /// # Panics
    /// Panics if `grid < 1`.
    pub(crate) fn new(grid: i128) -> Self {
        assert!(grid >= 1, "tick grid must be positive");
        Store {
            grid,
            records: Vec::new(),
            max_end: i128::MIN,
        }
    }

    /// Empties the store onto the grid `1/grid`, keeping its capacity.
    pub(crate) fn reset(&mut self, grid: i128) {
        assert!(grid >= 1, "tick grid must be positive");
        self.grid = grid;
        self.records.clear();
        self.max_end = i128::MIN;
    }

    /// Appends a record whose times are on this grid.
    ///
    /// # Panics
    /// Panics with "Rational overflow" when its end leaves `i128`.
    #[inline]
    pub(crate) fn push(&mut self, record: Record) {
        self.max_end = self.max_end.max(record.end());
        self.records.push(record);
    }

    /// [`Store::push`] for decoders of outside input: `None` instead of a
    /// panic when the record's end leaves `i128`.
    pub(crate) fn try_push(&mut self, record: Record) -> Option<()> {
        let end = record.start.checked_add(record.len)?;
        self.max_end = self.max_end.max(end);
        self.records.push(record);
        Some(())
    }

    /// Widens the grid so that multiples of `1/den` are on it, rescaling
    /// the stored ticks exactly.
    ///
    /// # Panics
    /// Panics with "Rational overflow" when the grid or a tick count leaves
    /// `i128`.
    pub(crate) fn fit(&mut self, den: i128) {
        if self.grid % den == 0 {
            return;
        }
        let grid = checked_lcm(self.grid, den).expect("Rational overflow");
        let factor = grid / self.grid;
        let scale = |v: &mut i128| *v = v.checked_mul(factor).expect("Rational overflow");
        for r in &mut self.records {
            scale(&mut r.start);
            scale(&mut r.len);
        }
        if self.max_end != i128::MIN {
            scale(&mut self.max_end);
        }
        self.grid = grid;
    }

    /// `p` as a record on this grid, widening it first when a time is off
    /// the grid.
    pub(crate) fn encode(&mut self, p: &Placement) -> Record {
        self.fit(p.start.denom());
        self.fit(p.len.denom());
        let ticks = |v| checked_ticks(v, self.grid).expect("Rational overflow");
        Record {
            start: ticks(p.start),
            len: ticks(p.len),
            machine: machine_u32(p.machine),
            kind: PackedKind::pack(p.kind),
        }
    }

    /// `p` as a record on a grid chosen to hold it (see [`common_grid`]),
    /// `None` when a tick count or an id does not fit the record.
    pub(crate) fn try_encode(&self, p: &Placement) -> Option<Record> {
        Some(Record {
            start: checked_ticks(p.start, self.grid)?,
            len: checked_ticks(p.len, self.grid)?,
            machine: u32::try_from(p.machine).ok()?,
            kind: PackedKind::try_pack(p.kind)?,
        })
    }

    /// The largest end (0 when empty), in `O(1)`.
    pub(crate) fn makespan(&self) -> Rational {
        if self.records.is_empty() {
            Rational::ZERO
        } else {
            Rational::new(self.max_end, self.grid)
        }
    }

    /// Recomputes the largest end after records were edited or removed.
    pub(crate) fn refresh_max_end(&mut self) {
        self.max_end = self
            .records
            .iter()
            .map(Record::end)
            .max()
            .unwrap_or(i128::MIN);
    }

    /// The records as values, in order.
    pub(crate) fn placements(&self) -> impl ExactSizeIterator<Item = Placement> + Clone + '_ {
        let grid = self.grid;
        self.records.iter().map(move |r| r.decode(grid))
    }

    /// Whether both stores hold the same values in the same order, whatever
    /// their grids.
    pub(crate) fn same_values(&self, other: &Store) -> bool {
        if self.grid == other.grid {
            return self.records == other.records;
        }
        self.records.len() == other.records.len() && self.placements().eq(other.placements())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_record_is_narrow() {
        assert!(core::mem::size_of::<Record>() <= 64);
        assert_eq!(core::mem::size_of::<Record>(), 48);
        assert!(core::mem::size_of::<Record>() * 2 <= core::mem::size_of::<Placement>());
    }

    #[test]
    fn kinds_round_trip_through_packing() {
        for kind in [
            ItemKind::Setup(0),
            ItemKind::Setup(u32::MAX as usize),
            ItemKind::Piece { job: 0, class: 7 },
            ItemKind::Piece {
                job: u32::MAX as usize - 1,
                class: 3,
            },
        ] {
            assert_eq!(PackedKind::pack(kind).unpack(), kind);
        }
        assert!(PackedKind::try_pack(ItemKind::Piece {
            job: u32::MAX as usize,
            class: 0
        })
        .is_none());
    }

    #[test]
    fn ticks_are_exact() {
        assert_eq!(to_ticks(Rational::new(3, 4), 8), 6);
        assert_eq!(to_ticks(Rational::from(5u64), 3), 15);
        assert_eq!(checked_lcm(4, 6), Some(12));
        assert_eq!(checked_lcm(i128::MAX, 2), None);
        assert_eq!(
            common_grid([Rational::new(1, 4), Rational::new(5, 6), Rational::ONE]),
            Some(12)
        );
    }

    #[test]
    #[should_panic(expected = "not on the 1/4 grid")]
    fn off_grid_value_panics() {
        let _ = to_ticks(Rational::new(1, 3), 4);
    }
}
