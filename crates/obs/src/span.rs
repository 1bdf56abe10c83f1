//! Hierarchical RAII spans.
//!
//! A span measures the wall time between its creation and drop and folds
//! it into a per-name aggregate ([`SpanStat`]): count, total, min, max,
//! and *self time* (total minus time spent in directly nested spans on the
//! same thread). Nesting is tracked with a thread-local stack, so spans on
//! different threads never contend; the aggregate slots are plain atomics.
//!
//! # Cross-thread nesting
//!
//! The thread-local stack cannot see spans opened inside worker threads,
//! so a parallel phase would report its workers' time as its own *self*
//! time. [`SpanGuard::handle`] fixes that: it returns a cloneable
//! [`SpanHandle`] that worker threads pass to
//! [`span_linked!`](crate::span_linked!); a linked span reports its total
//! time back to the parent as child time (and adopts the parent's trace
//! [`RunId`](crate::trace::RunId)). When workers run concurrently their
//! child times *sum*, so a fully parallel parent's self time clamps to
//! zero — self time means "time not attributable to instrumented
//! children", not "time the parent thread was idle".
//!
//! With the trace ring runtime-enabled, every guard additionally emits
//! begin/end events into the [`trace`](crate::trace) ring.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::trace;

/// Aggregated statistics for one span name.
#[derive(Debug)]
pub struct SpanStat {
    name_id: u32,
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    pub(crate) fn new(name: &'static str) -> Self {
        Self {
            name_id: trace::intern(name),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, elapsed_ns: u64, self_time_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        self.self_ns.fetch_add(self_time_ns, Ordering::Relaxed);
        self.min_ns.fetch_min(elapsed_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, name: &str) -> crate::snapshot::SpanSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        crate::snapshot::SpanSnapshot {
            name: name.to_string(),
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            self_ns: self.self_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { self.min_ns.load(Ordering::Relaxed) },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

thread_local! {
    /// One accumulator per *open* span on this thread: nanoseconds spent
    /// in its already-closed direct children.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A cloneable link to an open span on another thread, created by
/// [`SpanGuard::handle`]. Worker threads open spans against it with
/// [`span_linked!`](crate::span_linked!); each linked span's total time is
/// added to the parent's child time, and the worker adopts the parent's
/// current trace run id for the span's duration.
#[derive(Debug, Clone)]
pub struct SpanHandle {
    child_ns: Arc<AtomicU64>,
    run_id: u64,
}

/// RAII guard: measures from creation to drop and records into a
/// [`SpanStat`]. Create via the [`span!`](crate::span!) macro.
#[must_use = "a span measures until it is dropped; bind it with `let _span = span!(..)`"]
#[derive(Debug)]
pub struct SpanGuard {
    stat: &'static SpanStat,
    start: Instant,
    /// Child time reported by linked spans on other threads.
    fan_in: Option<Arc<AtomicU64>>,
    /// Parent handle a linked span reports its total time to.
    report_to: Option<SpanHandle>,
    /// Run id to restore when a *linked* span closes (only linked spans
    /// change the thread's run id).
    restore_run_id: Option<u64>,
}

impl SpanGuard {
    /// Opens a span recording into `stat`.
    pub fn enter(stat: &'static SpanStat) -> Self {
        CHILD_NS.with(|c| c.borrow_mut().push(0));
        if trace::enabled() {
            trace::record_begin(stat.name_id);
        }
        Self { stat, start: Instant::now(), fan_in: None, report_to: None, restore_run_id: None }
    }

    /// Opens a span linked to a parent span on another thread: on drop,
    /// this span's total time is added to the parent's child time. The
    /// calling thread adopts the handle's run id until the guard drops.
    /// Used via [`span_linked!`](crate::span_linked!).
    pub fn enter_linked(stat: &'static SpanStat, handle: &SpanHandle) -> Self {
        CHILD_NS.with(|c| c.borrow_mut().push(0));
        let prev_run_id = trace::set_current_run_id(handle.run_id);
        if trace::enabled() {
            trace::record_begin(stat.name_id);
        }
        Self {
            stat,
            start: Instant::now(),
            fan_in: None,
            report_to: Some(handle.clone()),
            restore_run_id: Some(prev_run_id),
        }
    }

    /// Returns a handle worker threads can link child spans to (see
    /// [`SpanHandle`]). Handles created from the same guard share one
    /// accumulator, so calling this repeatedly is cheap.
    pub fn handle(&mut self) -> SpanHandle {
        let child_ns = self.fan_in.get_or_insert_with(|| Arc::new(AtomicU64::new(0))).clone();
        SpanHandle { child_ns, run_id: trace::current_run_id() }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if trace::enabled() {
            trace::record_end(self.stat.name_id);
        }
        let mut child = CHILD_NS.with(|c| {
            let mut stack = c.borrow_mut();
            let child = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += elapsed;
            }
            child
        });
        if let Some(fan_in) = &self.fan_in {
            child += fan_in.load(Ordering::Acquire);
        }
        if let Some(parent) = &self.report_to {
            parent.child_ns.fetch_add(elapsed, Ordering::AcqRel);
        }
        if let Some(prev) = self.restore_run_id {
            trace::set_current_run_id(prev);
        }
        self.stat.record(elapsed, elapsed.saturating_sub(child));
    }
}
