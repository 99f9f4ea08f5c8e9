//! In-memory spans for the traced run: name, start, end, parent and op id,
//! written out as a TSV file when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `json.parse`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// Self and inclusive time of one span name, summed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// The span recorder. While `on` is false every method is a pass-through,
/// so the same code path serves traced and untraced cycles.
pub struct Spans {
    epoch: Instant,
    /// Whether spans are recorded.
    pub on: bool,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder, switched off.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            on: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the op id later spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).expect("run shorter than 584 years")
    }

    /// Records an already-timed span under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
                op: self.op,
            };
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a span; spans recorded by `f` become its children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let op = self.op;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
        });
        self.stack.push(idx);
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans[idx].start_ns = self.ns(start);
        self.spans[idx].end_ns = self.ns(end);
        r
    }

    /// Per-name self and inclusive times. A span's self time is its
    /// duration minus that of its direct children, which never overlap.
    #[must_use]
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.self_ns += total.saturating_sub(children);
            entry.total_ns += total;
            entry.count += 1;
        }
        out
    }

    /// Writes every span as one TSV row.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}
