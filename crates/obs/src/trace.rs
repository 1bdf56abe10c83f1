//! Event-level tracing: a lock-light, fixed-capacity ring of timestamped
//! span begin/end and instant events, plus exporters to Chrome-trace JSON
//! and folded flamegraph stacks.
//!
//! Aggregated [`SpanStat`](crate::SpanStat)s answer "where does time go on
//! average"; the trace answers "what happened *when*": a timeline of every
//! span enter/exit and instant event with a timestamp, thread id, and the
//! current [`RunId`]. The ring is per-thread and fixed-capacity, so a
//! writer never blocks and never allocates on the hot path; when a thread
//! emits more events than its ring holds, the oldest events are
//! overwritten (most-recent-wins).
//!
//! # Enabling
//!
//! Tracing is always compiled in and off by default. Turn it on with
//! `DB_TRACE=1` in the environment, or [`set_enabled`]`(true)` from code.
//! Disabled, the per-event cost is a single relaxed atomic load (guarded
//! by the overhead bench).
//!
//! # Consistency model
//!
//! Each ring slot is a tiny seqlock over plain `AtomicU64` words: the
//! owning thread bumps the slot sequence to *odd*, writes the words,
//! then publishes the matching *even* sequence. [`events`] copies the
//! words and keeps a slot only when the sequence was even and unchanged
//! across the copy — a torn (mid-overwrite) slot is dropped, never
//! surfaced. Timestamps come from one global monotonic epoch, so they are
//! comparable across threads and monotone within one.

use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------- model

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span was entered (Chrome `ph: "B"`).
    Begin,
    /// A span was exited (Chrome `ph: "E"`).
    End,
    /// A point-in-time event (Chrome `ph: "i"`).
    Instant,
}

/// One decoded trace event, as returned by [`events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process-wide trace epoch (first event).
    pub ts_ns: u64,
    /// Begin / End / Instant.
    pub kind: TraceEventKind,
    /// Small dense id of the emitting thread (not the OS tid).
    pub tid: u64,
    /// The [`RunId`] current on the emitting thread, 0 when none.
    pub run_id: u64,
    /// Span or instant name.
    pub name: &'static str,
    /// Name of the optional argument; empty when the event carries none.
    pub arg_name: &'static str,
    /// Argument value (meaningful only when `arg_name` is non-empty).
    pub arg: u64,
}

// ---------------------------------------------------------------- run ids

static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_RUN_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A process-unique pipeline-run identifier. Every trace event emitted on
/// a thread (or a worker linked via
/// [`SpanGuard::handle`](crate::SpanGuard)) while a `RunId` is entered
/// carries it, so one run's events form a self-contained trace even when
/// runs interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunId(u64);

impl RunId {
    /// Allocates the next process-unique run id (never 0).
    pub fn next() -> Self {
        RunId(NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Makes this the current run id of the calling thread until the
    /// returned guard drops (the previous id is restored).
    pub fn enter(self) -> RunIdGuard {
        let prev = CURRENT_RUN_ID.with(|c| c.replace(self.0));
        RunIdGuard { prev }
    }
}

/// Restores the thread's previous run id on drop. Created by
/// [`RunId::enter`].
#[derive(Debug)]
pub struct RunIdGuard {
    prev: u64,
}

impl Drop for RunIdGuard {
    fn drop(&mut self) {
        CURRENT_RUN_ID.with(|c| c.set(self.prev));
    }
}

/// The run id current on this thread (0 when none is entered).
pub fn current_run_id() -> u64 {
    CURRENT_RUN_ID.with(std::cell::Cell::get)
}

/// Sets the calling thread's current run id directly, returning the
/// previous one. Prefer [`RunId::enter`]; this exists for worker threads
/// that adopt a parent's id via a
/// [`SpanHandle`](crate::SpanHandle).
pub fn set_current_run_id(id: u64) -> u64 {
    CURRENT_RUN_ID.with(|c| c.replace(id))
}

// ---------------------------------------------------------------- ring

mod ring {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, Once, OnceLock};
    use std::time::Instant;

    use super::{TraceEvent, TraceEventKind};

    /// Events kept per thread ring unless `DB_TRACE_CAP` overrides it.
    pub const DEFAULT_RING_CAPACITY: usize = 16_384;

    const KIND_BEGIN: u64 = 0;
    const KIND_END: u64 = 1;
    const KIND_INSTANT: u64 = 2;

    /// One slot: a seqlock sequence plus the event payload as plain
    /// atomic words (no `UnsafeCell`, so a racing read is well-defined —
    /// it just gets rejected by the sequence check).
    struct Slot {
        /// `2 * ticket + 1` while the owner writes, `2 * ticket + 2` when
        /// the payload of that ticket is complete, 0 when never written.
        seq: AtomicU64,
        ts_ns: AtomicU64,
        run_id: AtomicU64,
        arg: AtomicU64,
        /// `name_id | kind << 32`.
        name_kind: AtomicU64,
        arg_name_id: AtomicU64,
    }

    impl Slot {
        const fn empty() -> Self {
            Slot {
                seq: AtomicU64::new(0),
                ts_ns: AtomicU64::new(0),
                run_id: AtomicU64::new(0),
                arg: AtomicU64::new(0),
                name_kind: AtomicU64::new(0),
                arg_name_id: AtomicU64::new(0),
            }
        }
    }

    struct ThreadRing {
        /// Dense thread id, assigned at ring creation.
        tid: u64,
        /// Claimed by a live thread; released (for reuse) when it exits.
        in_use: AtomicBool,
        /// Events ever written by the owning thread.
        head: AtomicU64,
        slots: Box<[Slot]>,
    }

    impl ThreadRing {
        fn new(tid: u64) -> Self {
            let cap = capacity();
            ThreadRing {
                tid,
                in_use: AtomicBool::new(true),
                head: AtomicU64::new(0),
                slots: (0..cap).map(|_| Slot::empty()).collect(),
            }
        }

        /// Owner-thread-only append.
        fn push(&self, ts_ns: u64, kind: u64, name_id: u32, arg_name_id: u32, arg: u64) {
            let ticket = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
            slot.seq.store(2 * ticket + 1, Ordering::Release);
            slot.ts_ns.store(ts_ns, Ordering::Relaxed);
            slot.run_id.store(super::current_run_id(), Ordering::Relaxed);
            slot.arg.store(arg, Ordering::Relaxed);
            slot.name_kind.store(u64::from(name_id) | (kind << 32), Ordering::Relaxed);
            slot.arg_name_id.store(u64::from(arg_name_id), Ordering::Relaxed);
            slot.seq.store(2 * ticket + 2, Ordering::Release);
            self.head.store(ticket + 1, Ordering::Release);
        }
    }

    /// All rings ever created; dead threads' rings stay here and are
    /// reclaimed by the next new thread, so the list is bounded by the
    /// peak number of concurrently tracing threads.
    static RINGS: Mutex<Vec<&'static ThreadRing>> = Mutex::new(Vec::new());

    thread_local! {
        static MY_RING: RingHandle = RingHandle(claim_ring());
    }

    /// Releases the thread's ring back to the pool on thread exit.
    struct RingHandle(&'static ThreadRing);

    impl Drop for RingHandle {
        fn drop(&mut self) {
            self.0.in_use.store(false, Ordering::Release);
        }
    }

    fn claim_ring() -> &'static ThreadRing {
        let mut rings = RINGS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for ring in rings.iter() {
            if ring
                .in_use
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return ring;
            }
        }
        let ring: &'static ThreadRing = Box::leak(Box::new(ThreadRing::new(rings.len() as u64)));
        rings.push(ring);
        ring
    }

    fn capacity() -> usize {
        static CAP: OnceLock<usize> = OnceLock::new();
        *CAP.get_or_init(|| {
            std::env::var("DB_TRACE_CAP")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&c| c >= 64)
                .unwrap_or(DEFAULT_RING_CAPACITY)
        })
    }

    // ------------------------------------------------------ global state

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static ENABLED_INIT: Once = Once::new();
    /// Events with `ts_ns` below the floor are hidden ([`clear`] raises it
    /// instead of mutating other threads' rings).
    static TS_FLOOR: AtomicU64 = AtomicU64::new(0);

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    fn now_ns() -> u64 {
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether trace events are being recorded. First call reads the
    /// `DB_TRACE` environment variable (`0` / empty = off); afterwards a
    /// single relaxed load.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED_INIT.call_once(|| {
            let on = std::env::var("DB_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
            ENABLED.store(on, Ordering::Relaxed);
        });
        ENABLED.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime (overrides `DB_TRACE`).
    pub fn set_enabled(on: bool) {
        ENABLED_INIT.call_once(|| {});
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Hides all events recorded so far (new events still record).
    pub fn clear() {
        TS_FLOOR.store(now_ns(), Ordering::Relaxed);
    }

    // ------------------------------------------------------ name interning

    /// Ring slots hold fixed-width words, so names are interned once (at
    /// span registration / instant-callsite init, both cold) and resolved
    /// back at export time.
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

    /// Interns `name`, returning its dense id. Idempotent per string; the
    /// empty string is always id 0 ("no argument").
    pub fn intern(name: &'static str) -> u32 {
        let mut names = NAMES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if names.is_empty() {
            names.push("");
        }
        if let Some(i) = names.iter().position(|&n| n == name) {
            return i as u32;
        }
        names.push(name);
        (names.len() - 1) as u32
    }

    fn resolve(id: u32) -> &'static str {
        let names = NAMES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        names.get(id as usize).copied().unwrap_or("?")
    }

    // ------------------------------------------------------ recording

    #[inline]
    fn record(kind: u64, name_id: u32, arg_name_id: u32, arg: u64) {
        let ts = now_ns();
        MY_RING.with(|h| h.0.push(ts, kind, name_id, arg_name_id, arg));
    }

    /// Records a span-begin event. Caller must check [`enabled`] first.
    #[inline]
    pub fn record_begin(name_id: u32) {
        record(KIND_BEGIN, name_id, 0, 0);
    }

    /// Records a span-end event. Caller must check [`enabled`] first.
    #[inline]
    pub fn record_end(name_id: u32) {
        record(KIND_END, name_id, 0, 0);
    }

    /// Records an instant event with an optional argument (pass the
    /// interned empty string for none). Caller must check [`enabled`].
    #[inline]
    pub fn record_instant(name_id: u32, arg_name_id: u32, arg: u64) {
        record(KIND_INSTANT, name_id, arg_name_id, arg);
    }

    // ------------------------------------------------------ reading

    /// A consistent copy of every currently readable event, sorted by
    /// timestamp (ties by thread id). Events overwritten by ring
    /// wraparound, hidden by [`clear`], or caught mid-write are omitted —
    /// never returned torn.
    pub fn events() -> Vec<TraceEvent> {
        let floor = TS_FLOOR.load(Ordering::Relaxed);
        let rings: Vec<&'static ThreadRing> = {
            let guard = RINGS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.clone()
        };
        let mut out = Vec::new();
        for ring in rings {
            let cap = ring.slots.len() as u64;
            let head = ring.head.load(Ordering::Acquire);
            for ticket in head.saturating_sub(cap)..head {
                let slot = &ring.slots[(ticket % cap) as usize];
                let want = 2 * ticket + 2;
                if slot.seq.load(Ordering::Acquire) != want {
                    continue;
                }
                let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
                let run_id = slot.run_id.load(Ordering::Relaxed);
                let arg = slot.arg.load(Ordering::Relaxed);
                let name_kind = slot.name_kind.load(Ordering::Relaxed);
                let arg_name_id = slot.arg_name_id.load(Ordering::Relaxed);
                if slot.seq.load(Ordering::Acquire) != want || ts_ns < floor {
                    continue;
                }
                let kind = match name_kind >> 32 {
                    KIND_BEGIN => TraceEventKind::Begin,
                    KIND_END => TraceEventKind::End,
                    _ => TraceEventKind::Instant,
                };
                let arg_name = if arg_name_id == 0 { "" } else { resolve(arg_name_id as u32) };
                out.push(TraceEvent {
                    ts_ns,
                    kind,
                    tid: ring.tid,
                    run_id,
                    name: resolve(name_kind as u32),
                    arg_name,
                    arg,
                });
            }
        }
        out.sort_by_key(|e| (e.ts_ns, e.tid));
        out
    }

    /// Like [`events`], filtered to one run id.
    pub fn events_for_run(run_id: u64) -> Vec<TraceEvent> {
        let mut evs = events();
        evs.retain(|e| e.run_id == run_id);
        evs
    }
}

pub use ring::{
    clear, enabled, events, events_for_run, intern, record_begin, record_end, record_instant,
    set_enabled, DEFAULT_RING_CAPACITY,
};

// ---------------------------------------------------------------- exporters

use crate::{Json, ToJson};

/// Renders events as Chrome-trace / Perfetto JSON (the "JSON Array
/// Format" object variant): load the file at `chrome://tracing` or
/// <https://ui.perfetto.dev>. Timestamps are microseconds from the trace
/// epoch; span begin/end map to `ph: "B"` / `"E"`, instants to `"i"`.
pub fn trace_json(events: &[TraceEvent]) -> String {
    let mut rows = Vec::with_capacity(events.len());
    for e in events {
        let ph = match e.kind {
            TraceEventKind::Begin => "B",
            TraceEventKind::End => "E",
            TraceEventKind::Instant => "i",
        };
        let mut args = vec![("run_id".to_string(), e.run_id.to_json())];
        if !e.arg_name.is_empty() {
            args.push((e.arg_name.to_string(), e.arg.to_json()));
        }
        let mut row = vec![
            ("name".to_string(), e.name.to_json()),
            ("cat".to_string(), "db".to_json()),
            ("ph".to_string(), ph.to_json()),
            ("ts".to_string(), Json::Num(e.ts_ns as f64 / 1_000.0)),
            ("pid".to_string(), Json::Int(1)),
            ("tid".to_string(), e.tid.to_json()),
            ("args".to_string(), Json::Obj(args)),
        ];
        if e.kind == TraceEventKind::Instant {
            // Instant scope: thread.
            row.push(("s".to_string(), "t".to_json()));
        }
        rows.push(Json::Obj(row));
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(rows)),
        ("displayTimeUnit".to_string(), "ms".to_json()),
    ])
    .render()
}

/// Renders events as folded flamegraph stacks (`a;b;c <self-nanoseconds>`
/// per line, one stack per thread forest), the input format of
/// `flamegraph.pl` / `inferno-flamegraph`. Self time is attributed to the
/// innermost open span between consecutive events on the same thread;
/// instants contribute no time. Unmatched end events (their begin was
/// overwritten by ring wraparound) are skipped, and spans still open at
/// the last event keep only the time observed so far.
pub fn folded_stacks(events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;

    let mut by_tid: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (_tid, evs) in by_tid {
        // `events()` sorts globally by ts; per-tid order is preserved.
        let mut stack: Vec<&'static str> = Vec::new();
        let mut last_ts = evs.first().map_or(0, |e| e.ts_ns);
        for e in evs {
            if !stack.is_empty() {
                *folded.entry(stack.join(";")).or_insert(0) += e.ts_ns - last_ts;
            }
            last_ts = e.ts_ns;
            match e.kind {
                TraceEventKind::Begin => stack.push(e.name),
                TraceEventKind::End => {
                    if let Some(pos) = stack.iter().rposition(|&n| n == e.name) {
                        stack.truncate(pos);
                    }
                }
                TraceEventKind::Instant => {}
            }
        }
    }
    let mut out = String::new();
    for (stack, ns) in folded {
        if ns > 0 {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: TraceEventKind, tid: u64, name: &'static str) -> TraceEvent {
        TraceEvent { ts_ns: ts, kind, tid, run_id: 1, name, arg_name: "", arg: 0 }
    }

    #[test]
    fn run_ids_are_unique_and_nest() {
        let a = RunId::next();
        let b = RunId::next();
        assert_ne!(a, b);
        assert_eq!(current_run_id(), 0);
        {
            let _g = a.enter();
            assert_eq!(current_run_id(), a.get());
            {
                let _h = b.enter();
                assert_eq!(current_run_id(), b.get());
            }
            assert_eq!(current_run_id(), a.get());
        }
        assert_eq!(current_run_id(), 0);
    }

    #[test]
    fn chrome_json_shape() {
        let evs = [
            ev(1_000, TraceEventKind::Begin, 0, "pipeline.run"),
            TraceEvent {
                ts_ns: 2_000,
                kind: TraceEventKind::Instant,
                tid: 0,
                run_id: 7,
                name: "pipeline.k",
                arg_name: "k",
                arg: 40,
            },
            ev(3_000, TraceEventKind::End, 0, "pipeline.run"),
        ];
        let json = trace_json(&evs);
        let doc = Json::parse(&json).expect("exporter output parses");
        let Json::Obj(fields) = &doc else { panic!("not an object") };
        assert!(fields.iter().any(|(k, _)| k == "traceEvents"));
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"E""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""k":40"#));
        assert!(json.contains(r#""run_id":7"#));
        // ts is microseconds.
        assert!(json.contains(r#""ts":1"#));
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        // a: [0, 100); b nested in a: [10, 40). Self: a = 70, a;b = 30.
        let evs = [
            ev(0, TraceEventKind::Begin, 0, "a"),
            ev(10, TraceEventKind::Begin, 0, "b"),
            ev(40, TraceEventKind::End, 0, "b"),
            ev(100, TraceEventKind::End, 0, "a"),
        ];
        let folded = folded_stacks(&evs);
        let mut lines: Vec<&str> = folded.lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec!["a 70", "a;b 30"]);
    }

    #[test]
    fn folded_stacks_skip_unmatched_ends() {
        // End without a Begin (wraparound loss) must not underflow or
        // corrupt the stack.
        let evs = [
            ev(0, TraceEventKind::End, 0, "lost"),
            ev(10, TraceEventKind::Begin, 0, "a"),
            ev(30, TraceEventKind::End, 0, "a"),
        ];
        assert_eq!(folded_stacks(&evs), "a 20\n");
    }
}
