//! Wrap templates (Definition 2).
//!
//! Gap borders are ticks of the wrap target's grid (see
//! [`bss_schedule::Schedule::grid`]).

/// `count` identical gaps `[a, b)` on consecutive machines
/// `first_machine .. first_machine + count`.
///
/// A run with `count == 1` is an ordinary single gap; larger counts enable the
/// parallel-gap fast path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapRun {
    /// First machine of the run.
    pub first_machine: usize,
    /// Number of consecutive machines, each carrying one gap.
    pub count: usize,
    /// Lower border of each gap in ticks (`0 <= a < b`).
    pub a: i128,
    /// Upper border of each gap in ticks.
    pub b: i128,
}

impl GapRun {
    /// A single gap on `machine`.
    #[must_use]
    pub fn single(machine: usize, a: i128, b: i128) -> Self {
        GapRun {
            first_machine: machine,
            count: 1,
            a,
            b,
        }
    }

    /// Provided time of one gap, `b - a`.
    #[must_use]
    pub fn height(&self) -> i128 {
        self.b - self.a
    }

    /// Provided time of the whole run.
    #[must_use]
    pub fn capacity(&self) -> i128 {
        self.height() * self.count as i128
    }
}

/// A wrap template `ω`: a machine-ordered list of gap runs.
///
/// Invariants (checked by [`Template::new`]): machines strictly increase
/// across the flattened gap list, `0 <= a < b` in each run, counts positive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    runs: Vec<GapRun>,
}

impl Template {
    /// Builds a validated template.
    ///
    /// # Panics
    /// Panics on malformed runs (programming errors in the calling
    /// algorithm): non-positive counts, `a >= b`, negative `a`, or
    /// non-increasing machines.
    #[must_use]
    pub fn new(runs: Vec<GapRun>) -> Self {
        Template::check(&runs);
        Template { runs }
    }

    /// Asserts the template invariants on a raw run slice — used by the
    /// wrap entry points that take caller-owned (workspace-reused) run
    /// buffers instead of an owned [`Template`].
    ///
    /// # Panics
    /// Panics on malformed runs, like [`Template::new`].
    pub fn check(runs: &[GapRun]) {
        let mut next_free = 0usize;
        for run in runs {
            assert!(run.count > 0, "empty gap run");
            assert!(
                run.a >= 0 && run.a < run.b,
                "malformed gap [{}, {})",
                run.a,
                run.b
            );
            assert!(
                run.first_machine >= next_free,
                "gap machines must strictly increase (machine {} after {})",
                run.first_machine,
                next_free
            );
            next_free = run.first_machine + run.count;
        }
    }

    /// Template over single gaps, convenience for tests and simple callers.
    #[must_use]
    pub fn from_gaps(gaps: Vec<(usize, i128, i128)>) -> Self {
        Template::new(
            gaps.into_iter()
                .map(|(machine, a, b)| GapRun::single(machine, a, b))
                .collect(),
        )
    }

    /// The gap runs.
    #[must_use]
    pub fn runs(&self) -> &[GapRun] {
        &self.runs
    }

    /// Number of gaps `|ω|` (counting multiplicities).
    #[must_use]
    pub fn num_gaps(&self) -> usize {
        self.runs.iter().map(|r| r.count).sum()
    }

    /// Provided period of time `S(ω) = Σ (b_r - a_r)`.
    #[must_use]
    pub fn capacity(&self) -> i128 {
        self.runs.iter().map(GapRun::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i128) -> i128 {
        v
    }

    #[test]
    fn capacity_and_counts() {
        let t = Template::new(vec![
            GapRun::single(0, r(0), r(10)),
            GapRun {
                first_machine: 1,
                count: 3,
                a: r(2),
                b: r(10),
            },
        ]);
        assert_eq!(t.num_gaps(), 4);
        assert_eq!(t.capacity(), r(10 + 3 * 8));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn rejects_machine_reuse() {
        let _ = Template::new(vec![
            GapRun::single(0, r(0), r(1)),
            GapRun::single(0, r(2), r(3)),
        ]);
    }

    #[test]
    #[should_panic(expected = "malformed gap")]
    fn rejects_empty_gap() {
        let _ = Template::new(vec![GapRun::single(0, r(5), r(5))]);
    }

    #[test]
    #[should_panic(expected = "empty gap run")]
    fn rejects_zero_count() {
        let _ = Template::new(vec![GapRun {
            first_machine: 0,
            count: 0,
            a: r(0),
            b: r(1),
        }]);
    }

    #[test]
    fn from_gaps_builds_singles() {
        let t = Template::from_gaps(vec![(2, r(0), r(4)), (5, r(1), r(4))]);
        assert_eq!(t.runs().len(), 2);
        assert_eq!(t.num_gaps(), 2);
        assert_eq!(t.capacity(), r(7));
    }
}
