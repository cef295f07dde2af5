//! In-process performance observability: a sampling profiler over the
//! [`crate::obs`] span stack, plus allocation counters.
//!
//! # Sampling design
//!
//! Every *active* span (one with a collector installed — inert spans
//! cost nothing) publishes its full semicolon-joined name path
//! (`main;dispatch;sweep;worker`) into a per-thread slot registered in a
//! global registry. Two sources feed a bounded sample table while a
//! profiling [`Session`] is running:
//!
//! 1. **Structure samples** — every span *enter* buffers one sample of
//!    the entering path in the thread's own slot. This guarantees a
//!    non-empty, structurally complete profile even for
//!    sub-millisecond commands, and makes the *set* of observed stack
//!    paths deterministic in span structure: the same command profiled
//!    under `--threads serial` and `--threads 2` yields the same frame
//!    paths (worker spans are all named `worker` regardless of chunk),
//!    though counts may differ.
//! 2. **Timer samples** — a background sampler thread walks the slot
//!    registry every [`SampleConfig::interval`], drains each thread's
//!    buffered structure samples, and records the thread's current
//!    path, weighting long-running frames.
//!
//! Overhead is *deterministic in span structure*: the per-span cost is
//! one lock of the thread's own slot (contended only by the sampler's
//! periodic drain, never by other application threads) plus two
//! `Arc` clones — no stack unwinding, no signals, no global lock on
//! the span path, no dependence on where the program counter happens
//! to be. Aggregation into the shared sample table happens on the
//! sampler thread, off the application's critical path. When no
//! session is active the only per-span cost beyond PR-5 tracing is the
//! slot store and one relaxed atomic load.
//!
//! Sessions are process-global and one-at-a-time ([`start`] returns
//! [`ProfError::Busy`] otherwise); the sample table is bounded
//! ([`SampleConfig::max_distinct`] distinct stacks, overflow counted in
//! [`Profile::samples_dropped`]), so memory stays constant regardless
//! of duration.
//!
//! # Allocation counters
//!
//! [`CountingAllocator`] (installed as the `#[global_allocator]` in
//! [`crate`]) wraps [`std::alloc::System`] and counts every allocation
//! and requested byte both process-wide ([`alloc_totals`]) and per
//! thread. [`AllocScope`] snapshots the calling thread's monotone
//! totals to report deltas for a region; nesting works naturally because
//! deltas are differences of a monotone counter. A scope sees only its
//! own thread, so concurrent work on other threads (other requests, or
//! the helper threads of a parallel sweep) never lands in its delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::obs::SpanRecord;

// ---------------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and free of destructors, so the allocator can
    // touch it without lazy setup or destructor registration — neither
    // of which may allocate from inside `GlobalAlloc::alloc`.
    static THREAD_TOTALS: Cell<AllocTotals> = const {
        Cell::new(AllocTotals { allocs: 0, bytes: 0 })
    };
}

/// Counts one allocation of `bytes` process-wide and for this thread.
fn count_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_TOTALS.try_with(|totals| {
        let mut t = totals.get();
        t.allocs += 1;
        t.bytes += bytes as u64;
        totals.set(t);
    });
}

/// A counting wrapper around the system allocator. Installed as the
/// workspace-wide `#[global_allocator]` so every Gables binary can
/// report allocations-per-operation; the only cost over
/// [`std::alloc::System`] is two relaxed atomic increments and one
/// thread-local update per allocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

// SAFETY: delegates all allocation to `System`; the counters are plain
// relaxed atomics and a destructor-free thread-local, and never touch
// the allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Monotone allocation totals (counts and requested bytes). Bytes are
/// *requested*, not resident: frees are not subtracted, so totals only
/// grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocTotals {
    /// Number of allocation calls (alloc, alloc_zeroed, realloc).
    pub allocs: u64,
    /// Total bytes requested across those calls.
    pub bytes: u64,
}

impl AllocTotals {
    /// The delta from an earlier snapshot (saturating, though the
    /// counters are monotone in practice).
    pub fn since(self, earlier: AllocTotals) -> AllocTotals {
        AllocTotals {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// The current process-wide allocation totals.
pub fn alloc_totals() -> AllocTotals {
    AllocTotals {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// A scoped allocation counter: snapshots the calling thread's totals
/// at [`AllocScope::begin`] and reports the delta on demand. It counts
/// that thread only, so it cannot leave the thread (`!Send`). Scopes
/// nest freely — an inner scope's delta is always contained in the
/// outer's.
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start: AllocTotals,
    _this_thread: PhantomData<*const ()>,
}

impl AllocScope {
    /// Opens a scope at the calling thread's current totals.
    pub fn begin() -> Self {
        AllocScope {
            start: THREAD_TOTALS.with(Cell::get),
            _this_thread: PhantomData,
        }
    }

    /// This thread's allocations and bytes since the scope opened.
    pub fn delta(&self) -> AllocTotals {
        THREAD_TOTALS.with(Cell::get).since(self.start)
    }
}

// ---------------------------------------------------------------------------
// Per-thread frame-path slots
// ---------------------------------------------------------------------------

/// Per-thread pending structure samples are bounded; the sampler tick
/// drains them every [`SampleConfig::interval`], so this is only hit if
/// a thread enters thousands of spans between two ticks.
const MAX_PENDING: usize = 4096;

/// A thread's sampling state behind one (practically uncontended) lock:
/// the published "current span path" read by the sampler, plus the
/// structure samples taken since the last drain.
#[derive(Debug, Default)]
struct SlotState {
    current: Option<Arc<str>>,
    pending: Vec<Arc<str>>,
    overflow: u64,
}

/// A thread's sampling slot. Only its own thread and the sampler ever
/// lock it, so span enter/exit never contend on a global lock — that
/// keeps profiling overhead flat under concurrent serving.
#[derive(Debug, Default)]
struct ThreadSlot {
    state: Mutex<SlotState>,
}

static REGISTRY: Mutex<Vec<Weak<ThreadSlot>>> = Mutex::new(Vec::new());

/// Owns the thread's slot; dropping it (thread exit) flushes any
/// pending structure samples so short-lived worker threads are not
/// lost between sampler ticks.
#[derive(Debug)]
struct SlotHandle(Arc<ThreadSlot>);

impl Drop for SlotHandle {
    fn drop(&mut self) {
        let (pending, overflow) = {
            let mut state = self.0.state.lock().expect("prof slot poisoned");
            (
                std::mem::take(&mut state.pending),
                std::mem::take(&mut state.overflow),
            )
        };
        record_batch(&pending, overflow);
    }
}

thread_local! {
    static SLOT: OnceCell<SlotHandle> = const { OnceCell::new() };
}

fn with_slot(f: impl FnOnce(&ThreadSlot)) {
    SLOT.with(|cell| {
        let handle = cell.get_or_init(|| {
            let slot = Arc::new(ThreadSlot::default());
            let mut registry = REGISTRY.lock().expect("prof registry poisoned");
            registry.retain(|w| w.strong_count() > 0);
            registry.push(Arc::downgrade(&slot));
            SlotHandle(slot)
        });
        f(&handle.0);
    });
}

/// Span-enter hook (called by [`crate::obs`] for every active span):
/// publishes the new path and, while a session is running, buffers one
/// structure sample of it in the thread's own slot.
pub(crate) fn on_span_enter(path: &Arc<str>) {
    with_slot(|slot| {
        let mut state = slot.state.lock().expect("prof slot poisoned");
        state.current = Some(Arc::clone(path));
        if ACTIVE.load(Ordering::Relaxed) {
            if state.pending.len() < MAX_PENDING {
                state.pending.push(Arc::clone(path));
            } else {
                state.overflow += 1;
            }
        }
    });
}

/// Span-exit hook: restores the thread's published path to the parent
/// span's (or clears it at the root).
pub(crate) fn on_span_exit(prev: Option<&Arc<str>>) {
    with_slot(|slot| {
        slot.state.lock().expect("prof slot poisoned").current = prev.map(Arc::clone);
    });
}

// ---------------------------------------------------------------------------
// Sampling sessions
// ---------------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SAMPLES_TOTAL: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

#[derive(Debug)]
struct Sink {
    counts: HashMap<Arc<str>, u64>,
    total: u64,
    dropped: u64,
    max_distinct: usize,
}

/// Records a drained batch into the sink under one lock acquisition.
/// `overflowed` samples were taken but lost to a full pending buffer;
/// they count toward the total and the dropped tally.
fn record_batch(paths: &[Arc<str>], overflowed: u64) {
    if paths.is_empty() && overflowed == 0 {
        return;
    }
    let mut sink = SINK.lock().expect("prof sink poisoned");
    let Some(sink) = sink.as_mut() else {
        return;
    };
    let taken = paths.len() as u64 + overflowed;
    sink.total += taken;
    sink.dropped += overflowed;
    SAMPLES_TOTAL.fetch_add(taken, Ordering::Relaxed);
    for path in paths {
        if let Some(count) = sink.counts.get_mut(path) {
            *count += 1;
        } else if sink.counts.len() >= sink.max_distinct {
            sink.dropped += 1;
        } else {
            sink.counts.insert(Arc::clone(path), 1);
        }
    }
}

fn registered_slots() -> Vec<Arc<ThreadSlot>> {
    let mut registry = REGISTRY.lock().expect("prof registry poisoned");
    registry.retain(|w| w.strong_count() > 0);
    registry.iter().filter_map(Weak::upgrade).collect()
}

/// One sampler tick: drains every thread's buffered structure samples
/// and, when `include_current` (the periodic tick), adds one timer
/// sample of each thread's current path.
fn drain_slots(include_current: bool) {
    let mut batch: Vec<Arc<str>> = Vec::new();
    let mut overflowed = 0u64;
    for slot in registered_slots() {
        let mut state = slot.state.lock().expect("prof slot poisoned");
        if include_current {
            if let Some(current) = &state.current {
                batch.push(Arc::clone(current));
            }
        }
        batch.append(&mut state.pending);
        overflowed += std::mem::take(&mut state.overflow);
    }
    record_batch(&batch, overflowed);
}

/// Configuration for a profiling [`Session`].
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Timer-sample period. Clamped to 100µs..=100ms.
    pub interval: Duration,
    /// Maximum distinct stack paths retained; further *new* paths are
    /// counted in [`Profile::samples_dropped`] instead.
    pub max_distinct: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            interval: Duration::from_millis(1),
            max_distinct: 8192,
        }
    }
}

/// Why a profiling session could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfError {
    /// Another session is already running (sessions are process-global
    /// and one-at-a-time).
    Busy,
}

impl std::fmt::Display for ProfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfError::Busy => write!(f, "a profiling session is already running"),
        }
    }
}

impl std::error::Error for ProfError {}

/// A running profiling session. Stop it with [`Session::stop`] to get
/// the [`Profile`]; dropping it unstopped shuts the sampler down and
/// discards the data.
#[derive(Debug)]
pub struct Session {
    sampler: Option<std::thread::JoinHandle<()>>,
    started: Instant,
    interval: Duration,
    alloc_start: AllocTotals,
}

/// Starts the process-global profiling session, spawning the background
/// sampler thread. Returns [`ProfError::Busy`] if one is already
/// running.
pub fn start(config: SampleConfig) -> Result<Session, ProfError> {
    if ACTIVE
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Err(ProfError::Busy);
    }
    let interval = config
        .interval
        .clamp(Duration::from_micros(100), Duration::from_millis(100));
    // Discard structure samples buffered after the previous session's
    // final drain — they belong to spans profiled by that session.
    for slot in registered_slots() {
        let mut state = slot.state.lock().expect("prof slot poisoned");
        state.pending.clear();
        state.overflow = 0;
    }
    *SINK.lock().expect("prof sink poisoned") = Some(Sink {
        counts: HashMap::new(),
        total: 0,
        dropped: 0,
        max_distinct: config.max_distinct.max(1),
    });
    let sampler = std::thread::Builder::new()
        .name("gables-prof".to_string())
        .spawn(move || {
            while ACTIVE.load(Ordering::Relaxed) {
                drain_slots(true);
                std::thread::sleep(interval);
            }
        })
        .expect("failed to spawn profiler sampler thread");
    Ok(Session {
        sampler: Some(sampler),
        started: Instant::now(),
        interval,
        alloc_start: alloc_totals(),
    })
}

impl Session {
    /// Stops the sampler and returns the aggregated profile.
    pub fn stop(mut self) -> Profile {
        self.finish()
    }

    fn finish(&mut self) -> Profile {
        ACTIVE.store(false, Ordering::SeqCst);
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
        // Final drain: structure samples buffered since the last tick
        // (live threads; exited threads flushed via their slot's Drop).
        drain_slots(false);
        let sink = SINK.lock().expect("prof sink poisoned").take();
        let (counts, total, dropped) = match sink {
            Some(s) => (s.counts, s.total, s.dropped),
            None => (HashMap::new(), 0, 0),
        };
        let mut samples: Vec<(String, u64)> = counts
            .into_iter()
            .map(|(path, count)| (path.as_ref().to_string(), count))
            .collect();
        samples.sort();
        Profile {
            samples,
            samples_total: total,
            samples_dropped: dropped,
            duration: self.started.elapsed(),
            interval: self.interval,
            alloc: alloc_totals().since(self.alloc_start),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.sampler.is_some() {
            let _ = self.finish();
        }
    }
}

/// An aggregated profile: folded-stack counts plus session metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Distinct semicolon-joined stack paths with sample counts, sorted
    /// by path for deterministic output.
    pub samples: Vec<(String, u64)>,
    /// Samples recorded (structure + timer), including dropped ones.
    pub samples_total: u64,
    /// Samples whose *new* stack path exceeded the distinct-path bound.
    pub samples_dropped: u64,
    /// Wall-clock duration of the session.
    pub duration: Duration,
    /// Effective timer-sample period.
    pub interval: Duration,
    /// Process-wide allocations during the session.
    pub alloc: AllocTotals,
}

impl Profile {
    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Collapsed-stack text (`path;to;frame count\n` per line), directly
    /// consumable by `flamegraph.pl` / `inferno-flamegraph`.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (path, count) in &self.samples {
            out.push_str(path);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// The profile as a JSON document (stacks, totals, alloc counters,
    /// session metadata).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "samples_total".to_string(),
                Json::num(self.samples_total as f64),
            ),
            (
                "samples_dropped".to_string(),
                Json::num(self.samples_dropped as f64),
            ),
            (
                "duration_us".to_string(),
                Json::num(self.duration.as_secs_f64() * 1e6),
            ),
            (
                "interval_us".to_string(),
                Json::num(self.interval.as_secs_f64() * 1e6),
            ),
            ("allocs".to_string(), Json::num(self.alloc.allocs as f64)),
            (
                "alloc_bytes".to_string(),
                Json::num(self.alloc.bytes as f64),
            ),
            (
                "stacks".to_string(),
                Json::Array(
                    self.samples
                        .iter()
                        .map(|(path, count)| {
                            Json::Object(vec![
                                ("stack".to_string(), Json::str(path)),
                                ("count".to_string(), Json::num(*count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Cumulative samples recorded across all sessions since process start
/// (feeds `gables_profile_samples_total`).
pub fn samples_recorded_total() -> u64 {
    SAMPLES_TOTAL.load(Ordering::Relaxed)
}

/// Prometheus text exposition for the process-global profiler and
/// allocator counters, appended to the server's `/v1/metrics?format=prom`
/// output.
pub fn prometheus_text() -> String {
    let alloc = alloc_totals();
    format!(
        "# HELP gables_profile_samples_total Profiler samples recorded since process start.\n\
         # TYPE gables_profile_samples_total counter\n\
         gables_profile_samples_total {}\n\
         # HELP gables_allocs_total Heap allocations since process start.\n\
         # TYPE gables_allocs_total counter\n\
         gables_allocs_total {}\n\
         # HELP gables_alloc_bytes_total Heap bytes requested since process start.\n\
         # TYPE gables_alloc_bytes_total counter\n\
         gables_alloc_bytes_total {}\n",
        samples_recorded_total(),
        alloc.allocs,
        alloc.bytes,
    )
}

// ---------------------------------------------------------------------------
// Self-time over span records
// ---------------------------------------------------------------------------

/// Per-span-name *self time* (duration minus direct children, clamped
/// at zero) aggregated over a trace's span records, sorted by
/// descending self time then name. Summed across threads this is the
/// trace's CPU-busy signal: under parallel workers it exceeds wall
/// latency, which is exactly the parallelism it measures.
pub fn self_times_us(spans: &[SpanRecord]) -> Vec<(String, f64)> {
    let mut child_sum: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        *child_sum.entry(s.parent_id).or_default() += s.dur_us;
    }
    let mut by_name: HashMap<&str, f64> = HashMap::new();
    for s in spans {
        let children = child_sum.get(&s.span_id).copied().unwrap_or(0.0);
        *by_name.entry(s.name.as_str()).or_default() += (s.dur_us - children).max(0.0);
    }
    let mut out: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(name, us)| (name.to_string(), us))
        .collect();
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    out
}

/// Total self time across a trace's spans in microseconds — the
/// `cpu_busy_us` reported per request by the flight recorder.
pub fn cpu_busy_us(spans: &[SpanRecord]) -> f64 {
    self_times_us(spans).iter().map(|(_, us)| us).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs;

    /// Profiling sessions are process-global; tests that start one must
    /// serialize against each other.
    static SESSION_LOCK: Mutex<()> = Mutex::new(());

    fn lock_session() -> std::sync::MutexGuard<'static, ()> {
        SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn alloc_scope_nests_and_round_trips() {
        let outer = AllocScope::begin();
        let a: Vec<u64> = vec![0; 1024];
        let inner = AllocScope::begin();
        let b: Vec<u64> = vec![0; 2048];
        let inner_delta = inner.delta();
        let outer_delta = outer.delta();
        // Scopes count this thread only, so other test threads cannot
        // perturb them: the deltas are exact.
        assert_eq!((inner_delta.allocs, inner_delta.bytes), (1, 2048 * 8));
        assert_eq!((outer_delta.allocs, outer_delta.bytes), (2, 3072 * 8));
        drop((a, b));
        // Frees never shrink the totals (monotone counters).
        assert_eq!(outer.delta(), outer_delta);
    }

    #[test]
    fn alloc_scope_ignores_other_threads_but_process_totals_do_not() {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let helper_barrier = Arc::clone(&barrier);
        let helper = std::thread::spawn(move || {
            helper_barrier.wait();
            std::hint::black_box(vec![0u8; 1 << 20]);
            helper_barrier.wait();
        });
        let (scope, process) = (AllocScope::begin(), alloc_totals());
        barrier.wait(); // the helper allocates between the two waits
        barrier.wait();
        let (here, everywhere) = (scope.delta(), alloc_totals().since(process));
        helper.join().unwrap();
        assert_eq!(here, AllocTotals::default(), "{here:?}");
        assert!(everywhere.bytes >= 1 << 20, "{everywhere:?}");
    }

    #[test]
    fn session_is_one_at_a_time() {
        let _guard = lock_session();
        let first = start(SampleConfig::default()).expect("first session starts");
        assert_eq!(start(SampleConfig::default()).unwrap_err(), ProfError::Busy);
        first.stop();
        let second = start(SampleConfig::default()).expect("restart after stop");
        drop(second);
        // Drop releases the global slot too.
        start(SampleConfig::default())
            .expect("restart after drop")
            .stop();
    }

    #[test]
    fn structure_samples_capture_span_paths() {
        let _guard = lock_session();
        let session = start(SampleConfig::default()).expect("session starts");
        let collector = obs::SpanCollector::new(64);
        {
            let _root = obs::attach_root(&collector, 7, "main");
            let _dispatch = obs::span("dispatch");
            let _cmd = obs::span("sweep");
        }
        let profile = session.stop();
        let paths: Vec<&str> = profile.samples.iter().map(|(p, _)| p.as_str()).collect();
        assert!(paths.contains(&"main"), "paths: {paths:?}");
        assert!(paths.contains(&"main;dispatch"), "paths: {paths:?}");
        assert!(paths.contains(&"main;dispatch;sweep"), "paths: {paths:?}");
        let folded = profile.to_folded();
        for line in folded.lines() {
            let (path, count) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!path.is_empty());
            count.parse::<u64>().expect("count is an integer");
        }
        assert!(profile.samples_total >= 3);
    }

    #[test]
    fn sample_table_bound_counts_dropped_paths() {
        let _guard = lock_session();
        let session = start(SampleConfig {
            interval: Duration::from_millis(50),
            max_distinct: 1,
        })
        .expect("session starts");
        let collector = obs::SpanCollector::new(64);
        {
            let _root = obs::attach_root(&collector, 9, "main");
            let _a = obs::span("alpha");
        }
        let profile = session.stop();
        assert_eq!(profile.samples.len(), 1, "bounded to one distinct path");
        assert!(profile.samples_dropped >= 1, "overflow path was counted");
        assert_eq!(
            profile.samples_total,
            profile.samples.iter().map(|(_, c)| c).sum::<u64>() + profile.samples_dropped
        );
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_cpu_busy() {
        let spans = vec![
            SpanRecord {
                name: "root".to_string(),
                trace_id: 1,
                span_id: 10,
                parent_id: 0,
                start_us: 0.0,
                dur_us: 100.0,
            },
            SpanRecord {
                name: "child".to_string(),
                trace_id: 1,
                span_id: 11,
                parent_id: 10,
                start_us: 10.0,
                dur_us: 60.0,
            },
            SpanRecord {
                name: "child".to_string(),
                trace_id: 1,
                span_id: 12,
                parent_id: 10,
                start_us: 70.0,
                dur_us: 20.0,
            },
        ];
        let self_times = self_times_us(&spans);
        assert_eq!(self_times[0], ("child".to_string(), 80.0));
        assert_eq!(self_times[1], ("root".to_string(), 20.0));
        assert!((cpu_busy_us(&spans) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn profile_json_exposes_stacks_and_counters() {
        let profile = Profile {
            samples: vec![("main;eval".to_string(), 4)],
            samples_total: 5,
            samples_dropped: 1,
            duration: Duration::from_millis(2),
            interval: Duration::from_millis(1),
            alloc: AllocTotals {
                allocs: 3,
                bytes: 96,
            },
        };
        let text = profile.to_json().to_string();
        assert!(text.contains("\"samples_total\":5"));
        assert!(text.contains("\"alloc_bytes\":96"));
        assert!(text.contains("\"stack\":\"main;eval\""));
        assert_eq!(profile.to_folded(), "main;eval 4\n");
        let parsed = Json::parse(&text).expect("profile json parses");
        assert_eq!(parsed.get("stacks").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn prometheus_text_has_the_three_series() {
        let text = prometheus_text();
        assert!(text.contains("gables_profile_samples_total "));
        assert!(text.contains("gables_allocs_total "));
        assert!(text.contains("gables_alloc_bytes_total "));
        assert!(text.contains("# TYPE gables_alloc_bytes_total counter"));
    }
}
