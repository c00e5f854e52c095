#![warn(missing_docs)]

//! Zero-dependency structured tracing and metrics.
//!
//! The estimation pipeline (device eval → root solving → ODE → chunk
//! scheduling) needs *measured* per-stage cost before any further
//! optimisation, without disturbing the workspace's two hard guarantees:
//! no external dependencies and bit-identical results at every thread
//! count. This crate provides exactly that:
//!
//! * **RAII span timers** ([`span`]) with parent/child nesting: a span's
//!   identity is the dot-joined path of the spans open on its thread
//!   (`cli.montecarlo.mc.run.mc.sample`), so aggregation preserves the
//!   call structure.
//! * **Monotonic counters** ([`add`]) and **gauges** ([`gauge`]).
//! * **Per-thread recorders**: the hot path touches only one relaxed
//!   atomic load (disabled) or thread-local state (enabled) — never a
//!   shared lock. Recorders merge into the global collector at
//!   [`flush_thread`] / thread exit; merging is commutative (sums keyed by
//!   path), so the merged [`Report`] is deterministic modulo the timing
//!   values themselves.
//! * **Two sinks**: a human-readable per-stage breakdown table
//!   ([`Report::table`]) and a machine-readable JSON-lines stream
//!   ([`Report::to_json_lines`], validated by [`json::validate_lines`]).
//!
//! Recording is process-global and off by default; a [`Session`] turns it
//! on, and sessions serialize through a global lock so concurrent tests
//! cannot interleave their measurements.
//!
//! Telemetry *never* participates in the numbers it observes: all state is
//! timing/count bookkeeping on the side, so enabling a session cannot
//! change any estimation result.
//!
//! # Examples
//!
//! ```
//! use ssn_telemetry as telemetry;
//!
//! let session = telemetry::Session::start();
//! {
//!     let _root = telemetry::span("work");
//!     for _ in 0..3 {
//!         let _inner = telemetry::span("step");
//!         telemetry::add("items", 2);
//!     }
//! }
//! let report = session.finish();
//! assert_eq!(report.span("work.step").map(|s| s.count), Some(3));
//! assert_eq!(report.counter("items"), Some(6));
//! assert!(report.table().contains("work.step"));
//! ```

pub mod json;

/// Well-known counter names shared between producers and sinks.
///
/// Counters take `&'static str` keys; centralizing the durable-execution
/// names here keeps the producer (`ssn-core::durable`), the CLI renderers,
/// and any dashboard built on the JSON sink agreeing on spelling.
pub mod names {
    /// Checkpoint commits performed this run.
    pub const DURABLE_COMMITS: &str = "durable.commits";
    /// Chunks restored from a checkpoint instead of recomputed.
    pub const DURABLE_RESUMED_CHUNKS: &str = "durable.resumed_chunks";
    /// Chunks skipped cooperatively because the run budget expired.
    pub const DURABLE_DEADLINE_SKIPPED: &str = "durable.deadline_skipped_chunks";
    /// Degradation-ladder steps applied (one per recorded downgrade).
    pub const DURABLE_DEGRADED: &str = "durable.degraded";
    /// HTTP requests the server accepted for handling.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Requests shed by admission control (503 + `Retry-After`): connection
    /// cap or full job queue.
    pub const SERVE_SHED: &str = "serve.shed";
    /// Content-addressed result-cache hits.
    pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
    /// Content-addressed result-cache misses (request was computed).
    pub const SERVE_CACHE_MISSES: &str = "serve.cache_misses";
    /// Handler panics caught and converted to typed 500s.
    pub const SERVE_PANICS: &str = "serve.panics";
    /// Current depth of the durable job queue (gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Storage faults injected by the fault plane (`SSN_FAULTS`; test/drill
    /// observability — zero in production).
    pub const STORAGE_FAULTS: &str = "storage.faults_injected";
    /// Transient storage faults retried by the durable-path retry policy.
    pub const STORAGE_RETRIES: &str = "storage.retries";
    /// Durable paths that entered declared degraded mode (checkpointing
    /// disabled, cache bypassed, or spool shedding) after persistent
    /// storage failure.
    pub const STORAGE_DEGRADED: &str = "storage.degraded";
}

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Whether a session is currently recording. Relaxed loads on the hot path.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped by every [`Session::start`]; thread-local recorders drop data
/// from a previous epoch instead of leaking it into the new session.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Serializes sessions: only one recording window exists at a time.
static SESSION_LOCK: Mutex<()> = Mutex::new(());
/// Merge target for the per-thread recorders.
static COLLECTOR: Mutex<Collected> = Mutex::new(Collected::new());

/// Aggregated timings of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
}

/// Internal span-path segment separator. Span *names* may contain dots
/// (`mc.run`), so the structural key joins stack entries with a character
/// that cannot appear in a name; the dotted display path is derived from it.
const SEP: char = '\u{1f}';

/// The global merge target (and the per-thread recorder's storage shape).
/// `BTreeMap` keeps every iteration order deterministic by construction.
#[derive(Debug)]
struct Collected {
    spans: BTreeMap<String, SpanAgg>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
}

impl Collected {
    const fn new() -> Self {
        Self {
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    fn clear(&mut self) {
        self.spans.clear();
        self.counters.clear();
        self.gauges.clear();
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }
}

/// One thread's recorder: the open-span stack plus local aggregates.
struct Local {
    epoch: u64,
    stack: Vec<&'static str>,
    data: Collected,
}

impl Local {
    /// Drops data left over from a previous session's epoch.
    fn sync_epoch(&mut self) {
        let now = EPOCH.load(Ordering::Relaxed);
        if self.epoch != now {
            self.epoch = now;
            self.stack.clear();
            self.data.clear();
        }
    }

    fn key(&self, name: &str) -> String {
        let mut key = String::with_capacity(
            self.stack.iter().map(|s| s.len() + 1).sum::<usize>() + name.len(),
        );
        for seg in &self.stack {
            key.push_str(seg);
            key.push(SEP);
        }
        key.push_str(name);
        key
    }

    /// Merges the local aggregates into the global collector. Addition is
    /// commutative, so the merged totals are independent of flush order.
    fn flush(&mut self) {
        self.sync_epoch();
        if self.data.is_empty() {
            return;
        }
        let mut global = COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner);
        for (path, agg) in std::mem::take(&mut self.data.spans) {
            let slot = global.spans.entry(path).or_default();
            slot.count += agg.count;
            slot.total_ns += agg.total_ns;
        }
        for (name, value) in std::mem::take(&mut self.data.counters) {
            *global.counters.entry(name).or_insert(0) += value;
        }
        for (name, value) in std::mem::take(&mut self.data.gauges) {
            global.gauges.insert(name, value);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Safety net for threads that never flush explicitly; engine
        // workers flush before joining so their data lands in-session.
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        epoch: 0,
        stack: Vec::new(),
        data: Collected::new(),
    });
}

/// `true` while a [`Session`] is recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An RAII span timer returned by [`span`]. Dropping it records the
/// elapsed time under the dot-joined path of the spans open on this
/// thread at creation.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Span {
    start: Option<Instant>,
}

/// Opens a timed span named `name` on the current thread.
///
/// Disabled (no active [`Session`]) this is one relaxed atomic load and a
/// no-op guard. Enabled, the span pushes `name` onto the thread's span
/// stack; its drop records `count += 1, total += elapsed` under the full
/// path. Nesting is per-thread: engine workers start their own span roots.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        l.stack.push(name);
    });
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.is_empty() {
                // The session was reset while this span was open; the
                // measurement belongs to no-one.
                return;
            }
            let key = l.stack.join(&SEP.to_string());
            l.stack.pop();
            let agg = l.data.spans.entry(key).or_default();
            agg.count += 1;
            agg.total_ns += elapsed_ns;
        });
    }
}

/// Adds `delta` to the monotonic counter `name` (thread-local; merged at
/// flush). A no-op without an active session.
pub fn add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        *l.data.counters.entry(name).or_insert(0) += delta;
    });
}

/// Sets the gauge `name` to `value` (last write wins at merge). A no-op
/// without an active session.
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        l.data.gauges.insert(name, value);
    });
}

/// Records a pre-measured duration as if a span `name` (under the current
/// span stack) had run `count` times totalling `total`. Used where the
/// measured quantity is the *absence* of work — e.g. the parallel engine's
/// queue wait, which has no scope of its own to time.
pub fn record(name: &'static str, total: Duration, count: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.sync_epoch();
        let key = l.key(name);
        let agg = l.data.spans.entry(key).or_default();
        agg.count += count;
        agg.total_ns += total.as_nanos() as u64;
    });
}

/// Merges the current thread's recorder into the global collector.
///
/// Engine workers call this before they join so their measurements land
/// inside the session that spawned them; it is harmless (and cheap) on a
/// thread with nothing recorded.
pub fn flush_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// A recording window. Holding a `Session` gives this thread (and any
/// threads it spawns) exclusive use of the global telemetry state; a
/// second `Session::start` blocks until the first finishes.
pub struct Session {
    guard: Option<MutexGuard<'static, ()>>,
}

impl Session {
    /// Enables recording. Resets the collector and bumps the epoch so
    /// leftovers from earlier sessions (including unflushed thread-locals)
    /// can never leak in.
    pub fn start() -> Self {
        let guard = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        EPOCH.fetch_add(1, Ordering::Relaxed);
        COLLECTOR
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        LOCAL.with(|l| l.borrow_mut().sync_epoch());
        ENABLED.store(true, Ordering::Relaxed);
        Self { guard: Some(guard) }
    }

    /// Disables recording, flushes the calling thread and returns the
    /// merged [`Report`]. Spans still open on other threads at this point
    /// are dropped (workers must flush before joining — the engine does).
    pub fn finish(mut self) -> Report {
        ENABLED.store(false, Ordering::Relaxed);
        flush_thread();
        let collected = {
            let mut global = COLLECTOR.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *global, Collected::new())
        };
        self.guard.take();
        Report::from_collected(collected)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.guard.is_some() {
            // Finished by drop (e.g. an error path unwound past `finish`):
            // stop recording, discard the window.
            ENABLED.store(false, Ordering::Relaxed);
        }
    }
}

/// Aggregated timings of one span path in a [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Dot-joined display path (`cli.montecarlo.mc.run`).
    pub path: String,
    /// Structural key: stack segments joined with [`SEP`]. Span names may
    /// contain dots, so nesting is derived from this, never from `path`.
    key: String,
    /// Times the span ran.
    pub count: u64,
    /// Total time spent inside the span (including children).
    pub total: Duration,
}

impl SpanStat {
    fn from_key(key: String, count: u64, total: Duration) -> Self {
        Self {
            path: key.split(SEP).collect::<Vec<_>>().join("."),
            key,
            count,
            total,
        }
    }

    /// The innermost span name (the last stack segment).
    pub fn name(&self) -> &str {
        self.key.rsplit(SEP).next().unwrap_or(&self.key)
    }

    /// Nesting depth (0 for a root span).
    pub fn depth(&self) -> usize {
        self.key.matches(SEP).count()
    }

    /// `true` when `other` is a direct child path of `self`.
    fn is_parent_of(&self, other: &SpanStat) -> bool {
        other.depth() == self.depth() + 1
            && other.key.starts_with(&self.key)
            && other.key.as_bytes().get(self.key.len()) == Some(&(SEP as u8))
    }
}

/// The merged measurements of one finished [`Session`], sorted by span
/// path / counter name (deterministic modulo the timing values).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Span aggregates, sorted by path (parents precede children).
    pub spans: Vec<SpanStat>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

impl Report {
    fn from_collected(c: Collected) -> Self {
        Self {
            spans: c
                .spans
                .into_iter()
                .map(|(key, agg)| {
                    SpanStat::from_key(key, agg.count, Duration::from_nanos(agg.total_ns))
                })
                .collect(),
            counters: c
                .counters
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            gauges: c
                .gauges
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        }
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Looks up a span aggregate by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Time spent in `spans[i]` itself, excluding its direct children.
    /// Clamped at zero (children on *other* threads can out-sum a parent).
    fn self_time(&self, i: usize) -> Duration {
        let parent = &self.spans[i];
        let children: Duration = self.spans[i + 1..]
            .iter()
            .take_while(|s| s.key.starts_with(parent.key.as_str()))
            .filter(|s| parent.is_parent_of(s))
            .map(|s| s.total)
            .sum();
        parent.total.saturating_sub(children)
    }

    /// The wall-clock reference for the table's `% wall` column: the
    /// longest root (depth-0) span, typically the CLI command span.
    fn wall(&self) -> Option<&SpanStat> {
        self.spans
            .iter()
            .filter(|s| s.depth() == 0)
            .max_by_key(|s| s.total)
    }

    /// Renders the human-readable per-stage breakdown.
    ///
    /// Each row shows a span path (indented by nesting depth), how many
    /// times it ran, its total time, its *self* time (total minus direct
    /// children — where an under-instrumented hot spot hides) and its
    /// share of the wall reference (the longest root span). Counters and
    /// gauges follow the span tree.
    pub fn table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("telemetry: nothing recorded\n");
            return out;
        }
        let wall = self.wall().map(|s| s.total.as_secs_f64()).unwrap_or(0.0);
        match self.wall() {
            Some(root) => {
                let _ = writeln!(
                    out,
                    "telemetry: per-stage breakdown (wall = {} over root `{}`)",
                    format_secs(wall),
                    root.path
                );
            }
            None => {
                let _ = writeln!(out, "telemetry: per-stage breakdown");
            }
        }
        let _ = writeln!(
            out,
            "  {:<52} {:>9} {:>11} {:>11} {:>7}",
            "span", "count", "total", "self", "% wall"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let label = format!("{}{}", "  ".repeat(s.depth()), s.path);
            let share = if wall > 0.0 {
                100.0 * s.total.as_secs_f64() / wall
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<52} {:>9} {:>11} {:>11} {:>6.1}%",
                label,
                s.count,
                format_secs(s.total.as_secs_f64()),
                format_secs(self.self_time(i).as_secs_f64()),
                share
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "    {name:<50} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "  gauges:");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "    {name:<50} {value:>12.4}");
            }
        }
        out
    }

    /// Serializes the report as JSON lines (one object per line).
    ///
    /// Schema (`"schema": 1`):
    ///
    /// * `{"type":"meta","schema":1,"source":"ssn-telemetry","spans":N,"counters":N,"gauges":N}`
    /// * `{"type":"span","path":"a.b","name":"b","count":N,"total_ns":N,"self_ns":N}`
    /// * `{"type":"counter","name":"...","value":N}`
    /// * `{"type":"gauge","name":"...","value":X}` (`null` if non-finite)
    ///
    /// Lines appear in sorted order (meta, then spans by path, counters
    /// and gauges by name), so two reports of the same run differ only in
    /// the timing fields: `total_ns`/`self_ns` on spans, and the values of
    /// counters named with the `_ns` suffix (the convention for
    /// nanosecond-valued counters).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"schema\":1,\"source\":\"ssn-telemetry\",\
             \"spans\":{},\"counters\":{},\"gauges\":{}}}",
            self.spans.len(),
            self.counters.len(),
            self.gauges.len()
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"path\":{},\"name\":{},\"count\":{},\
                 \"total_ns\":{},\"self_ns\":{}}}",
                json::escape(&s.path),
                json::escape(s.name()),
                s.count,
                s.total.as_nanos(),
                self.self_time(i).as_nanos()
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{value}}}",
                json::escape(name)
            );
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}",
                json::escape(name),
                json::number(*value)
            );
        }
        out
    }
}

/// Renders seconds with an adaptive unit.
fn format_secs(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions already serialize through `SESSION_LOCK`; tests just use
    /// the public API.
    fn spin(iters: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        acc
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        // No session: nothing sticks, guards are inert.
        {
            let _s = span("orphan");
            add("orphan.count", 3);
            gauge("orphan.gauge", 1.0);
            record("orphan.record", Duration::from_millis(1), 1);
        }
        let session = Session::start();
        let report = session.finish();
        assert!(report.is_empty(), "leaked: {report:?}");
    }

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        let session = Session::start();
        {
            let _root = span("outer");
            for _ in 0..4 {
                let _inner = span("inner");
                spin(10);
            }
        }
        let report = session.finish();
        assert_eq!(report.span("outer").unwrap().count, 1);
        let inner = report.span("outer.inner").unwrap();
        assert_eq!(inner.count, 4);
        assert_eq!(inner.name(), "inner");
        assert_eq!(inner.depth(), 1);
        assert!(report.span("outer").unwrap().total >= inner.total);
    }

    #[test]
    fn counters_gauges_and_records_merge() {
        let session = Session::start();
        add("hits", 2);
        add("hits", 3);
        gauge("level", 0.25);
        gauge("level", 0.75);
        record("virtual", Duration::from_micros(5), 7);
        let report = session.finish();
        assert_eq!(report.counter("hits"), Some(5));
        assert_eq!(report.gauges, vec![("level".to_owned(), 0.75)]);
        let v = report.span("virtual").unwrap();
        assert_eq!(v.count, 7);
        assert_eq!(v.total, Duration::from_micros(5));
    }

    #[test]
    fn worker_threads_merge_deterministically() {
        let totals: Vec<Report> = (0..2)
            .map(|_| {
                let session = Session::start();
                std::thread::scope(|scope| {
                    for _ in 0..4 {
                        scope.spawn(|| {
                            for _ in 0..8 {
                                let _s = span("worker.chunk");
                                add("chunks", 1);
                                spin(5);
                            }
                            flush_thread();
                        });
                    }
                });
                session.finish()
            })
            .collect();
        for report in &totals {
            assert_eq!(report.counter("chunks"), Some(32));
            assert_eq!(report.span("worker.chunk").unwrap().count, 32);
        }
        // Identical modulo timing: same paths, counts, counters.
        let strip = |r: &Report| {
            (
                r.spans
                    .iter()
                    .map(|s| (s.path.clone(), s.count))
                    .collect::<Vec<_>>(),
                r.counters.clone(),
            )
        };
        assert_eq!(strip(&totals[0]), strip(&totals[1]));
    }

    #[test]
    fn sessions_reset_state_between_runs() {
        let first = Session::start();
        add("stale", 1);
        let _ = first.finish();
        let second = Session::start();
        let report = second.finish();
        assert!(report.is_empty(), "second session saw: {report:?}");
    }

    #[test]
    fn table_and_json_sinks_cover_everything() {
        let session = Session::start();
        {
            let _root = span("run");
            let _child = span("stage");
            add("evals", 12);
            gauge("utilization", 0.5);
        }
        let report = session.finish();
        let table = report.table();
        assert!(table.contains("run"), "{table}");
        assert!(
            table.contains("  run.stage") || table.contains("run.stage"),
            "{table}"
        );
        assert!(table.contains("evals"), "{table}");
        assert!(table.contains("utilization"), "{table}");
        assert!(table.contains("% wall"), "{table}");

        let lines = report.to_json_lines();
        let stats = json::validate_lines(&lines).expect("valid JSON lines");
        assert_eq!(stats.meta, 1);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.gauges, 1);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let key = |segs: &[&str]| segs.join(&SEP.to_string());
        let report = Report {
            spans: vec![
                SpanStat::from_key(key(&["a"]), 1, Duration::from_millis(10)),
                SpanStat::from_key(key(&["a", "b"]), 1, Duration::from_millis(4)),
                SpanStat::from_key(key(&["a", "b", "c"]), 1, Duration::from_millis(3)),
            ],
            counters: vec![],
            gauges: vec![],
        };
        assert_eq!(report.spans[1].path, "a.b");
        assert_eq!(report.self_time(0), Duration::from_millis(6));
        assert_eq!(report.self_time(1), Duration::from_millis(1));
        assert_eq!(report.self_time(2), Duration::from_millis(3));
    }

    #[test]
    fn dotted_span_names_nest_structurally() {
        // Span NAMES may contain dots (`mc.run`); nesting must follow the
        // stack, not the dots in the display path.
        let session = Session::start();
        {
            let _root = span("cli.montecarlo");
            {
                let _run = span("mc.run");
                spin(10);
            }
        }
        let report = session.finish();
        let root = report.span("cli.montecarlo").expect("root span");
        assert_eq!(root.depth(), 0, "root must be depth 0: {root:?}");
        assert_eq!(root.name(), "cli.montecarlo");
        let run = report.span("cli.montecarlo.mc.run").expect("child span");
        assert_eq!(run.depth(), 1);
        assert_eq!(run.name(), "mc.run");
        assert!(root.is_parent_of(run));
        // The wall reference is the dotted-name root, and its self time
        // excludes the child even though the child name contains a dot.
        assert_eq!(report.wall().unwrap().path, "cli.montecarlo");
        let idx = report
            .spans
            .iter()
            .position(|s| s.path == "cli.montecarlo")
            .unwrap();
        assert_eq!(
            report.self_time(idx),
            root.total.saturating_sub(run.total),
            "self time must subtract the dotted-name child"
        );
    }

    #[test]
    fn format_secs_picks_units() {
        assert_eq!(format_secs(5e-9), "5.0 ns");
        assert_eq!(format_secs(5e-6), "5.00 us");
        assert_eq!(format_secs(5e-3), "5.00 ms");
        assert_eq!(format_secs(5.0), "5.000 s");
    }
}
