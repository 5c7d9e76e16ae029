//! Zero-dependency tracing + metrics facade for the MRBC reproduction.
//!
//! The paper's evaluation is entirely about *measured* quantities —
//! rounds, message volume, compute/communication breakdown, load
//! imbalance — and Theorem 1 makes those quantities checkable online.
//! This crate provides the measurement substrate the rest of the
//! workspace threads through its execution layers:
//!
//! * **Counters / gauges / histograms** — monotonic counts (messages
//!   by class, bytes, retries), latest-value gauges (rounds, bounds),
//!   and log2-bucket [`Histogram`]s (per-round durations, batch sizes).
//! * **Spans** — scoped wall-clock timers ([`span`]) and explicitly
//!   timestamped events ([`span_at`]), exported as a Chrome-trace /
//!   Perfetto timeline. Spans carry a [`Phase`] category so the
//!   timeline distinguishes Algorithm 3 forward source-detection from
//!   Algorithm 4 finalizer traffic from Algorithm 5 reverse-timestamp
//!   accumulation.
//! * **Message classes** — every CONGEST delivery is attributed to a
//!   [`MessageClass`] (distance pairs / dependency messages /
//!   termination detection / retry+ack traffic), so aggregate counts
//!   can be decomposed the way the round-vs-message trade-off
//!   literature requires.
//! * **A global per-run [`Recorder`]** — installed with [`install`],
//!   harvested with [`uninstall`], serialized with
//!   [`Recorder::to_chrome_trace_json`] and
//!   [`Recorder::to_metrics_json`].
//!
//! Every hot-path entry point first checks one relaxed atomic; with no
//! recorder installed the cost is a load and a branch, and with the
//! `record` cargo feature disabled the entire facade compiles to
//! inline no-ops (verified by a counting-allocator test).

pub mod flight;
pub mod json;
pub mod merge;
mod recorder;

pub use recorder::{ClockProbe, Histogram, Recorder, TraceEvent, MAX_TRACE_EVENTS};

/// The process-wide monotonic trace clock. One `Instant` anchor is
/// pinned the first time anyone asks (in practice: at [`install`]
/// time), and every timestamp in the process — spans, [`now_us`], the
/// flight recorder — is µs elapsed since that anchor. Being
/// `Instant`-based it can never step backwards under NTP adjustment,
/// so span durations are always non-negative.
pub(crate) mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    static ANCHOR: OnceLock<Instant> = OnceLock::new();

    /// The shared anchor (pinned on first use).
    pub(crate) fn anchor() -> Instant {
        *ANCHOR.get_or_init(Instant::now)
    }

    /// Monotonic µs since the anchor.
    pub(crate) fn monotonic_us() -> u64 {
        anchor().elapsed().as_micros() as u64
    }
}

/// Monotonic µs since the process trace anchor, independent of whether
/// a recorder is installed — unlike [`now_us`], which reads 0 while
/// recording is disabled so the hot path stays free. Benchmarks that
/// time the facade itself (enabled vs disabled) need exactly this.
pub fn monotonic_us() -> u64 {
    clock::monotonic_us()
}

/// A process-unique 64-bit id for trace/span correlation: the OS pid
/// mixed with a per-process counter through a splitmix64 finalizer, so
/// ids drawn concurrently in different serve processes never collide in
/// practice. Never returns 0 (0 means "no context" on the wire).
/// Allocation-free and independent of whether recording is enabled.
pub fn fresh_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let seed = ((std::process::id() as u64) << 32) ^ n;
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// Algorithm phase a span or metric belongs to. Used as the
/// Chrome-trace `cat` field so Perfetto can filter per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Algorithm 3: pipelined forward source detection (APSP).
    Forward,
    /// Algorithm 4: APSP-Finalizer termination detection (BFS tree,
    /// distance-star convergecast, diameter broadcast).
    Finalizer,
    /// Algorithm 5: reverse-timestamp dependency accumulation.
    Accumulation,
    /// Gluon-style synchronization (reduce/broadcast exchange).
    Sync,
    /// Driver-level orchestration (whole runs, batches).
    Driver,
}

impl Phase {
    /// Stable lowercase tag used in trace categories and metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Finalizer => "finalizer",
            Phase::Accumulation => "accumulation",
            Phase::Sync => "sync",
            Phase::Driver => "driver",
        }
    }
}

/// Classification of a CONGEST/BSP message, for per-class accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageClass {
    /// `(source, distance, σ)` tuples of the forward APSP phase.
    DistancePair,
    /// Partial dependency (`δ`) messages of the accumulation phase.
    Dependency,
    /// Termination-detection traffic (finalizer BFS tree, counts,
    /// distance-star, diameter broadcast).
    Termination,
    /// Retransmissions and acknowledgements from the reliable-delivery
    /// layer (`crates/faults` masking).
    RetryAck,
    /// Anything else (setup, baselines, tests).
    Control,
}

impl MessageClass {
    /// Number of classes (for fixed-size per-class accumulators).
    pub const COUNT: usize = 5;

    /// All classes, indexable by [`MessageClass::index`].
    pub const ALL: [MessageClass; MessageClass::COUNT] = [
        MessageClass::DistancePair,
        MessageClass::Dependency,
        MessageClass::Termination,
        MessageClass::RetryAck,
        MessageClass::Control,
    ];

    /// Stable lowercase tag.
    pub fn as_str(self) -> &'static str {
        match self {
            MessageClass::DistancePair => "distance_pair",
            MessageClass::Dependency => "dependency",
            MessageClass::Termination => "termination",
            MessageClass::RetryAck => "retry_ack",
            MessageClass::Control => "control",
        }
    }

    /// Metric name for the per-class delivered-message counter.
    pub fn counter_name(self) -> &'static str {
        match self {
            MessageClass::DistancePair => "congest.msgs.distance_pair",
            MessageClass::Dependency => "congest.msgs.dependency",
            MessageClass::Termination => "congest.msgs.termination",
            MessageClass::RetryAck => "congest.msgs.retry_ack",
            MessageClass::Control => "congest.msgs.control",
        }
    }

    /// Dense index into a `[u64; MessageClass::COUNT]` accumulator.
    pub fn index(self) -> usize {
        match self {
            MessageClass::DistancePair => 0,
            MessageClass::Dependency => 1,
            MessageClass::Termination => 2,
            MessageClass::RetryAck => 3,
            MessageClass::Control => 4,
        }
    }
}

#[cfg(feature = "record")]
mod global {
    use std::io::{IsTerminal as _, Write as _};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    use crate::clock::anchor;
    use crate::recorder::{ClockProbe, Recorder, TraceEvent};

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static PROBES: AtomicBool = AtomicBool::new(false);
    static VERBOSE: AtomicBool = AtomicBool::new(false);
    static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

    /// Install a fresh global [`Recorder`] for the named run,
    /// replacing (and returning) any previous one.
    pub fn install(run: &str) -> Option<Recorder> {
        // Pin the monotonic anchor at install time, before enabling, so
        // `now_us` is monotone across the whole run and immune to
        // wall-clock steps (the anchor is an `Instant`, shared with the
        // flight recorder so both report on one timeline).
        let _ = anchor();
        // Poison-tolerant: a panicking instrumented thread must not take
        // observability down with it; the recorder state stays usable.
        let prev = RECORDER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .replace(Recorder::new(run));
        ENABLED.store(true, Ordering::SeqCst);
        prev
    }

    /// Disable recording and hand back the global recorder.
    pub fn uninstall() -> Option<Recorder> {
        ENABLED.store(false, Ordering::SeqCst);
        RECORDER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Whether a recorder is currently installed. Instrumentation sites
    /// with non-trivial setup should gate on this.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Microseconds since the process-wide trace epoch (0 when
    /// recording is disabled, so disabled callers pay no clock read).
    /// Monotonic: reads the `Instant` anchor pinned at install time,
    /// never the wall clock, so it cannot go backwards under NTP steps.
    #[inline]
    pub fn now_us() -> u64 {
        if !is_enabled() {
            return 0;
        }
        crate::clock::monotonic_us()
    }

    /// Run `f` against the global recorder, if one is installed.
    pub fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        if !is_enabled() {
            return None;
        }
        RECORDER
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
            .map(f)
    }

    /// Add `delta` to a global counter.
    #[inline]
    pub fn counter_add(name: &'static str, delta: u64) {
        if is_enabled() {
            with_recorder(|r| r.counter_add(name, delta));
        }
    }

    /// Set a global gauge.
    #[inline]
    pub fn gauge_set(name: &'static str, value: u64) {
        if is_enabled() {
            with_recorder(|r| r.gauge_set(name, value));
        }
    }

    /// Record one sample into a global histogram.
    #[inline]
    pub fn histogram_record(name: &'static str, value: u64) {
        if is_enabled() {
            with_recorder(|r| r.histogram_record(name, value));
        }
    }

    /// Stamp the installed recorder with this process's OS pid, so its
    /// exported trace identifies its process track to the merger.
    pub fn set_pid(pid: u64) {
        with_recorder(|r| r.set_pid(pid));
    }

    /// Record one clock-synchronization observation against a peer
    /// process (`t0`/`t2` local µs bracketing the peer's reported
    /// `t1`). The trace merger reads these back out of the exported
    /// timeline to estimate per-process clock offsets.
    #[inline]
    pub fn clock_probe(peer_pid: u64, t0_us: u64, t1_us: u64, t2_us: u64) {
        if is_enabled() {
            with_recorder(|r| {
                r.clock_probe(ClockProbe {
                    peer_pid,
                    t0_us,
                    t1_us,
                    t2_us,
                })
            });
        }
    }

    /// Record a complete trace event with explicit timestamps (µs since
    /// the trace epoch). This is the deterministic entry point: tests
    /// and post-hoc recording (e.g. per-host spans measured inside a
    /// parallel section) choose the timestamps themselves.
    pub fn span_at(
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        dur_us: u64,
        tid: u32,
        args: &[(&'static str, u64)],
    ) {
        if !is_enabled() {
            return;
        }
        with_recorder(|r| {
            r.push_event(TraceEvent {
                name,
                cat,
                ts_us,
                dur_us,
                tid,
                args: args.to_vec(),
            })
        });
    }

    /// A scoped wall-clock timer: records a trace span from creation to
    /// drop. When recording is disabled the guard is inert (no clock
    /// read, no allocation).
    #[must_use = "the span ends when this guard is dropped"]
    pub struct SpanGuard {
        start: Option<Instant>,
        name: &'static str,
        cat: &'static str,
        tid: u32,
        args: Vec<(&'static str, u64)>,
    }

    impl SpanGuard {
        /// Attach a key/value pair to the span (no-op when disabled).
        pub fn arg(mut self, key: &'static str, value: u64) -> Self {
            if self.start.is_some() {
                self.args.push((key, value));
            }
            self
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(start) = self.start else { return };
            let end = anchor().elapsed().as_micros() as u64;
            let ts = start.duration_since(anchor()).as_micros() as u64;
            let args = std::mem::take(&mut self.args);
            with_recorder(|r| {
                r.push_event(TraceEvent {
                    name: self.name,
                    cat: self.cat,
                    ts_us: ts,
                    dur_us: end.saturating_sub(ts),
                    tid: self.tid,
                    args,
                })
            });
        }
    }

    /// Open a scoped span on track 0. `cat` is usually
    /// `Phase::as_str()`.
    #[inline]
    pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
        span_on(name, cat, 0)
    }

    /// Open a scoped span on an explicit track (e.g. a host id).
    #[inline]
    pub fn span_on(name: &'static str, cat: &'static str, tid: u32) -> SpanGuard {
        let start = if is_enabled() {
            Some(Instant::now())
        } else {
            None
        };
        SpanGuard {
            start,
            name,
            cat,
            tid,
            args: Vec::new(),
        }
    }

    /// Enable/disable the online invariant probes (Theorem 1 bounds,
    /// σ consistency). Independent of trace recording.
    pub fn set_probes(on: bool) {
        PROBES.store(on, Ordering::SeqCst);
    }

    /// Whether invariant probes should run.
    #[inline]
    pub fn probes_enabled() -> bool {
        PROBES.load(Ordering::Relaxed)
    }

    /// Enable/disable the `-v` live progress line on stderr.
    pub fn set_verbose(on: bool) {
        VERBOSE.store(on, Ordering::SeqCst);
    }

    /// Whether the live progress line is enabled (callers gate their
    /// formatting on this).
    #[inline]
    pub fn verbose_enabled() -> bool {
        VERBOSE.load(Ordering::Relaxed)
    }

    /// Overwrite the live progress line on stderr (no trailing
    /// newline; each call replaces the previous line). The line is
    /// drawn only when stderr is a terminal: redirected to a pipe or a
    /// file, its carriage returns and erase codes would land mid-line
    /// in whatever else shares that stream.
    pub fn progress(msg: &str) {
        if !verbose_enabled() {
            return;
        }
        let mut err = std::io::stderr().lock();
        if !err.is_terminal() {
            return;
        }
        let _ = write!(err, "\r\x1b[K{msg}");
        let _ = err.flush();
    }

    /// Clear the live progress line (call before normal output).
    pub fn progress_done() {
        if !verbose_enabled() {
            return;
        }
        let mut err = std::io::stderr().lock();
        if !err.is_terminal() {
            return;
        }
        let _ = write!(err, "\r\x1b[K");
        let _ = err.flush();
    }
}

#[cfg(not(feature = "record"))]
mod global {
    //! No-op facade compiled when the `record` feature is disabled:
    //! every entry point is an inline empty function, so instrumented
    //! call sites vanish entirely.

    use crate::recorder::Recorder;

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn install(_run: &str) -> Option<Recorder> {
        None
    }

    /// No-op (recording compiled out); always returns `None`.
    #[inline(always)]
    pub fn uninstall() -> Option<Recorder> {
        None
    }

    /// Always `false` when recording is compiled out.
    #[inline(always)]
    pub fn is_enabled() -> bool {
        false
    }

    /// Always 0 when recording is compiled out.
    #[inline(always)]
    pub fn now_us() -> u64 {
        0
    }

    /// No-op; never runs `f`.
    #[inline(always)]
    pub fn with_recorder<R>(_f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        None
    }

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _delta: u64) {}

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn gauge_set(_name: &'static str, _value: u64) {}

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn histogram_record(_name: &'static str, _value: u64) {}

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn set_pid(_pid: u64) {}

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn clock_probe(_peer_pid: u64, _t0_us: u64, _t1_us: u64, _t2_us: u64) {}

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn span_at(
        _name: &'static str,
        _cat: &'static str,
        _ts_us: u64,
        _dur_us: u64,
        _tid: u32,
        _args: &[(&'static str, u64)],
    ) {
    }

    /// Inert guard returned by [`span`] when recording is compiled out.
    #[must_use = "the span ends when this guard is dropped"]
    pub struct SpanGuard;

    impl SpanGuard {
        /// No-op (recording compiled out).
        #[inline(always)]
        pub fn arg(self, _key: &'static str, _value: u64) -> Self {
            self
        }
    }

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn span(_name: &'static str, _cat: &'static str) -> SpanGuard {
        SpanGuard
    }

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn span_on(_name: &'static str, _cat: &'static str, _tid: u32) -> SpanGuard {
        SpanGuard
    }

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn set_probes(_on: bool) {}

    /// Always `false` when recording is compiled out.
    #[inline(always)]
    pub fn probes_enabled() -> bool {
        false
    }

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn set_verbose(_on: bool) {}

    /// Always `false` when recording is compiled out.
    #[inline(always)]
    pub fn verbose_enabled() -> bool {
        false
    }

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn progress(_msg: &str) {}

    /// No-op (recording compiled out).
    #[inline(always)]
    pub fn progress_done() {}
}

pub use global::{
    clock_probe, counter_add, gauge_set, histogram_record, install, is_enabled, now_us,
    probes_enabled, progress, progress_done, set_pid, set_probes, set_verbose, span, span_at,
    span_on, uninstall, verbose_enabled, with_recorder, SpanGuard,
};

/// A process-wide mutex tests use to serialize access to the global
/// recorder (Rust runs `#[test]`s concurrently within one binary).
pub fn test_mutex() -> &'static std::sync::Mutex<()> {
    static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
    &M
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_distinct() {
        let mut seen = [false; MessageClass::COUNT];
        for c in MessageClass::ALL {
            assert_eq!(MessageClass::ALL[c.index()], c);
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
    }

    #[cfg(feature = "record")]
    #[test]
    fn global_recorder_lifecycle() {
        // Serialize against other tests that touch the global recorder.
        let _g = crate::test_mutex().lock().unwrap();
        assert!(!is_enabled());
        counter_add("ignored.before.install", 1);
        install("lifecycle");
        assert!(is_enabled());
        counter_add("x", 2);
        counter_add("x", 3);
        gauge_set("g", 7);
        histogram_record("h", 9);
        span_at("ev", "driver", 10, 5, 0, &[("round", 1)]);
        {
            let _s = span("scoped", Phase::Driver.as_str());
        }
        clock_probe(42, 10, 500, 30);
        let r = uninstall().expect("recorder installed");
        assert!(!is_enabled());
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.counter("ignored.before.install"), 0);
        assert_eq!(r.gauge("g"), Some(7));
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].name, "ev");
        assert_eq!(r.events()[1].name, "scoped");
        assert_eq!(r.clock_probes().len(), 1);
        assert_eq!(r.clock_probes()[0].peer_pid, 42);
    }

    #[cfg(feature = "record")]
    #[test]
    fn now_us_is_monotone_across_install_cycles() {
        let _g = crate::test_mutex().lock().unwrap();
        install("mono-1");
        let a = now_us();
        let b = now_us();
        let _ = uninstall();
        install("mono-2");
        let c = now_us();
        let _ = uninstall();
        // One anchor for the whole process: a later install never
        // rewinds the clock, and consecutive reads never go backwards.
        assert!(b >= a);
        assert!(c >= b);
    }

    #[test]
    fn fresh_ids_are_nonzero_and_distinct() {
        let ids: Vec<u64> = (0..64).map(|_| fresh_id()).collect();
        assert!(ids.iter().all(|&i| i != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }
}
