//! Clocks, memory readings and the timed phase that turns op windows into
//! the end-to-end metrics.

use std::time::{Duration, Instant};

use bss_serve::LatencyHistogram;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench calls Linux clock, affinity and resource-usage functions");

/// CPU time (user + system) consumed so far by every thread of this process,
/// in nanoseconds. The service workloads run their server in-process, so
/// this counts server and client work alike.
#[allow(unsafe_code)]
#[must_use]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers, which
    // `Timespec` mirrors with `repr(C)`; `ts` is a live, writable local for
    // the whole call, and `clock_gettime` only writes through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).expect("CPU clock is non-negative") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("CPU clock is non-negative")
}

/// Pins the calling thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on.
///
/// A closed loop has one runnable thread at a time, but each request hands
/// off between client, connection, dispatcher and worker threads. Unpinned,
/// on a 2-vCPU VM, a handoff often wakes the other, idle vCPU, and what that
/// costs depends on the host's load rather than on the program: `serve-cold`
/// swung between 135 and 220 ops/s from run to run, against 250–285 pinned.
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() {
    const SET_BYTES: usize = 128; // cpu_set_t: 1024 CPUs
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `SET_BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let Some(cpu) = (0..SET_BYTES * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
    else {
        return;
    };
    let mut one = [0u8; SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `SET_BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// The process's peak resident set size so far (`ru_maxrss`, the kernel's
/// `VmHWM`), in MiB.
#[allow(unsafe_code)]
#[must_use]
pub fn peak_rss_mb() -> f64 {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    // `struct rusage` on 64-bit Linux: two `timeval`s (four 64-bit words),
    // then fourteen `long`s, the first of which is `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of 144 bytes, the size of
    // `struct rusage` on 64-bit Linux, live for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage failed");
    usage[4] as f64 / 1024.0
}

/// Median of a non-empty sample (mean of the two middle values when even).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The timed phase of a run. Ops run in cycles; a cycle is the smallest
/// sequence of ops with the workload's full op mix, and a phase always ends
/// on a cycle boundary, so its figures do not depend on where in the mix it
/// stopped. Only op windows are timed: input generation, replays and checks
/// run between them.
pub struct Phase {
    started: Instant,
    seconds: f64,
    max_cycles: Option<usize>,
    stop_on_wall: bool,
    latency: LatencyHistogram,
    cpu_ns: u64,
    cycles: usize,
    /// Ops and their summed op windows, in untraced (`[0]`) and traced
    /// (`[1]`) cycles.
    ops: [usize; 2],
    timed: [Duration; 2],
    last: Duration,
    /// Whether the current cycle records spans (traced runs alternate).
    pub traced_cycle: bool,
}

impl Phase {
    /// A phase that stops after `seconds` of op windows — or of wall clock
    /// when `stop_on_wall` (traced runs, whose replays between ops would
    /// otherwise stretch the run) — or after exactly `max_cycles` cycles.
    #[must_use]
    pub fn new(seconds: f64, max_cycles: Option<usize>, stop_on_wall: bool) -> Self {
        Phase {
            started: Instant::now(),
            seconds,
            max_cycles,
            stop_on_wall,
            latency: LatencyHistogram::new(),
            cpu_ns: 0,
            cycles: 0,
            ops: [0; 2],
            timed: [Duration::ZERO; 2],
            last: Duration::ZERO,
            traced_cycle: false,
        }
    }

    /// Whether another cycle should run.
    #[must_use]
    pub fn more(&self) -> bool {
        if let Some(max) = self.max_cycles {
            return self.cycles < max;
        }
        let spent = if self.stop_on_wall {
            self.started.elapsed()
        } else {
            self.timed[0] + self.timed[1]
        };
        self.cycles == 0 || spent.as_secs_f64() < self.seconds
    }

    /// Completed cycles so far.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Runs one op inside a timed window (wall clock and process CPU).
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let c0 = process_cpu_ns();
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        let c1 = process_cpu_ns();
        self.latency.record(dt);
        self.cpu_ns += c1.saturating_sub(c0);
        let k = usize::from(self.traced_cycle);
        self.ops[k] += 1;
        self.timed[k] += dt;
        self.last = dt;
        r
    }

    /// The window of the last op.
    #[must_use]
    pub fn last_op(&self) -> Duration {
        self.last
    }

    /// Closes the current cycle.
    pub fn end_cycle(&mut self) {
        self.cycles += 1;
    }

    /// Ops timed so far.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.ops[0] + self.ops[1]
    }

    /// Ops per second of op windows: over all cycles (`None`), or over the
    /// untraced (`Some(false)`) or traced (`Some(true)`) ones.
    #[must_use]
    pub fn throughput(&self, traced: Option<bool>) -> f64 {
        let (ops, time) = match traced {
            None => (self.ops(), self.timed[0] + self.timed[1]),
            Some(t) => (self.ops[usize::from(t)], self.timed[usize::from(t)]),
        };
        if ops == 0 {
            0.0
        } else {
            ops as f64 / time.as_secs_f64()
        }
    }

    /// Nearest-rank latency percentile, in milliseconds.
    #[must_use]
    pub fn latency_ms(&self, p: f64) -> f64 {
        self.latency
            .percentile(p)
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// Process CPU per op, in milliseconds.
    #[must_use]
    pub fn cpu_ms_per_op(&self) -> f64 {
        if self.ops() == 0 {
            0.0
        } else {
            self.cpu_ns as f64 / 1e6 / self.ops() as f64
        }
    }
}
