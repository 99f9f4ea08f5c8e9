//! Items of wrap sequences (Definition 2): flat batch sequences
//! `[s_i, C'_i]`, streamed into the wrapper (see [`crate::batch_items`]).
//!
//! Lengths are ticks of the wrap target's grid (see
//! [`bss_schedule::Schedule::grid`]); a caller with integral data wraps on
//! the integer grid, where a tick is one time unit.

use bss_instance::{ClassId, JobId};

/// Whether a sequence item is a setup or a job piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqKind {
    /// A setup of the item's class.
    Setup,
    /// A piece of the given job.
    Piece(JobId),
}

/// One item of a wrap sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqItem {
    /// The class of the setup / job.
    pub class: ClassId,
    /// Setup or job piece.
    pub kind: SeqKind,
    /// Length in ticks; job pieces may be fractional time units (knapsack
    /// splits), which the caller's grid represents exactly.
    pub len: i128,
}
