//! `db-obs` — workspace-wide observability with zero dependencies.
//!
//! Three pillars, all usable from any crate in the workspace:
//!
//! 1. **Metrics** — a lock-light global registry of [`Counter`]s,
//!    [`Gauge`]s, and fixed-bucket [`Histogram`]s, addressed by static
//!    name through the [`counter!`], [`gauge!`], and [`histogram!`]
//!    macros. Each callsite caches its `&'static` handle in a `OnceLock`,
//!    so steady-state cost is one relaxed atomic op.
//! 2. **Spans** — RAII timers created with [`span!`] that nest (self-time
//!    vs total-time via a thread-local stack) and aggregate per name:
//!    count, total, self, min, max.
//! 3. **Logging** — `log_error!` … `log_trace!`, filtered by the `DB_LOG`
//!    environment variable (`DB_LOG=optics=debug`), silent by default.
//!
//! Call [`snapshot()`] for a point-in-time copy of everything, render it
//! with [`render_table`] or [`json_lines`], and [`reset()`] between
//! experiments.
//!
//! # One build configuration
//!
//! Metrics, spans and the event tracer are always compiled in. Event
//! tracing is gated at run time by `DB_TRACE` / [`trace::set_enabled`]
//! and records nothing unless asked for, so a disabled trace site costs
//! one relaxed atomic load.
//!
//! ```
//! let _guard = db_obs::span!("doc.example");
//! db_obs::counter!("doc.example_events").add(3);
//! let snap = db_obs::snapshot();
//! assert_eq!(snap.counter("doc.example_events"), Some(3));
//! println!("{}", db_obs::render_table(&snap));
//! ```

mod export;
pub mod health;
mod json;
mod logger;
mod registry;
mod snapshot;
mod span;
pub mod trace;

pub use export::{json_lines, prometheus_text, render_table};
pub use json::{Json, JsonParseError, ToJson};
pub use logger::{log_emit, log_enabled, set_filter_spec, Level};
pub use registry::{
    counter as registry_counter, gauge as registry_gauge, histogram as registry_histogram, reset,
    snapshot, span_stat as registry_span_stat, Counter, Gauge, Histogram,
};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::{SpanGuard, SpanHandle, SpanStat};
pub use trace::{folded_stacks, trace_json, RunId, RunIdGuard, TraceEvent, TraceEventKind};

/// Not part of the public API; re-exported for the expansion of the
/// metric macros.
#[doc(hidden)]
pub mod __private {
    pub use std::sync::OnceLock;
}

/// Returns the [`Counter`] named by the string literal, registering it on
/// first use and caching the handle per callsite.
///
/// ```
/// db_obs::counter!("optics.distance_calls").incr();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static __CELL: $crate::__private::OnceLock<&'static $crate::Counter> =
            $crate::__private::OnceLock::new();
        *__CELL.get_or_init(|| $crate::registry_counter($name))
    }};
}

/// Returns the [`Gauge`] named by the string literal.
///
/// ```
/// db_obs::gauge!("birch.tree_height").set(4);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static __CELL: $crate::__private::OnceLock<&'static $crate::Gauge> =
            $crate::__private::OnceLock::new();
        *__CELL.get_or_init(|| $crate::registry_gauge($name))
    }};
}

/// Returns the [`Histogram`] named by the string literal. The second form
/// supplies the bucket upper bounds (first registration of a name wins);
/// the first uses powers-of-four defaults suited to "how many items"
/// distributions.
///
/// ```
/// db_obs::histogram!("optics.neighborhood_size").record(17.0);
/// db_obs::histogram!("custom.latency_ms", [1.0, 10.0, 100.0]).record(3.2);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {
        $crate::histogram!($name, [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0])
    };
    ($name:literal, $bounds:expr) => {{
        static __CELL: $crate::__private::OnceLock<&'static $crate::Histogram> =
            $crate::__private::OnceLock::new();
        *__CELL.get_or_init(|| $crate::registry_histogram($name, &$bounds))
    }};
}

/// Opens a named RAII span; timing stops when the returned guard drops.
/// Bind it to a named variable — `let _span = span!("x")`, not `let _` —
/// or the guard drops immediately.
///
/// ```
/// {
///     let _span = db_obs::span!("pipeline.compression");
///     // ... work ...
/// } // recorded here
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __CELL: $crate::__private::OnceLock<&'static $crate::SpanStat> =
            $crate::__private::OnceLock::new();
        $crate::SpanGuard::enter(*__CELL.get_or_init(|| $crate::registry_span_stat($name)))
    }};
}

/// Opens a named RAII span *linked to a parent span on another thread*
/// via a [`SpanHandle`] from [`SpanGuard::handle`]: the linked span's
/// total time counts as the parent's child time (so parallel phases
/// report correct self time), and the thread adopts the parent's trace
/// run id for the span's duration.
///
/// ```
/// let mut phase = db_obs::span!("pipeline.compression");
/// let h = phase.handle();
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         let _worker = db_obs::span_linked!("pipeline.compression_chunk", &h);
///         // ... chunk work ...
///     });
/// });
/// ```
#[macro_export]
macro_rules! span_linked {
    ($name:literal, $handle:expr) => {{
        static __CELL: $crate::__private::OnceLock<&'static $crate::SpanStat> =
            $crate::__private::OnceLock::new();
        $crate::SpanGuard::enter_linked(
            *__CELL.get_or_init(|| $crate::registry_span_stat($name)),
            $handle,
        )
    }};
}

/// Records an instant event into the trace ring (a vertical tick in the
/// Chrome-trace timeline), optionally with one named integer argument.
/// Costs one relaxed atomic load when tracing is runtime-disabled.
///
/// ```
/// db_obs::trace_instant!("pipeline.compressed");
/// db_obs::trace_instant!("pipeline.compressed", "k", 40u64);
/// ```
#[macro_export]
macro_rules! trace_instant {
    ($name:literal) => {
        $crate::trace_instant!($name, "", 0u64)
    };
    ($name:literal, $arg_name:literal, $arg:expr) => {{
        if $crate::trace::enabled() {
            static __IDS: $crate::__private::OnceLock<(u32, u32)> =
                $crate::__private::OnceLock::new();
            let (name_id, arg_name_id) = *__IDS
                .get_or_init(|| ($crate::trace::intern($name), $crate::trace::intern($arg_name)));
            $crate::trace::record_instant(name_id, arg_name_id, $arg as u64);
        }
    }};
}

/// Logs at [`Level::Error`]; filtered by `DB_LOG`, default target
/// `module_path!()`, override with `target: "name"` as first argument.
#[macro_export]
macro_rules! log_error {
    (target: $t:expr, $($arg:tt)+) => {
        if $crate::log_enabled($t, $crate::Level::Error) {
            $crate::log_emit($t, $crate::Level::Error, format_args!($($arg)+));
        }
    };
    ($($arg:tt)+) => { $crate::log_error!(target: module_path!(), $($arg)+) };
}

/// Logs at [`Level::Warn`]; see [`log_error!`] for filtering and targets.
#[macro_export]
macro_rules! log_warn {
    (target: $t:expr, $($arg:tt)+) => {
        if $crate::log_enabled($t, $crate::Level::Warn) {
            $crate::log_emit($t, $crate::Level::Warn, format_args!($($arg)+));
        }
    };
    ($($arg:tt)+) => { $crate::log_warn!(target: module_path!(), $($arg)+) };
}

/// Logs at [`Level::Info`]; see [`log_error!`] for filtering and targets.
#[macro_export]
macro_rules! log_info {
    (target: $t:expr, $($arg:tt)+) => {
        if $crate::log_enabled($t, $crate::Level::Info) {
            $crate::log_emit($t, $crate::Level::Info, format_args!($($arg)+));
        }
    };
    ($($arg:tt)+) => { $crate::log_info!(target: module_path!(), $($arg)+) };
}

/// Logs at [`Level::Debug`]; see [`log_error!`] for filtering and targets.
#[macro_export]
macro_rules! log_debug {
    (target: $t:expr, $($arg:tt)+) => {
        if $crate::log_enabled($t, $crate::Level::Debug) {
            $crate::log_emit($t, $crate::Level::Debug, format_args!($($arg)+));
        }
    };
    ($($arg:tt)+) => { $crate::log_debug!(target: module_path!(), $($arg)+) };
}

/// Logs at [`Level::Trace`]; see [`log_error!`] for filtering and targets.
#[macro_export]
macro_rules! log_trace {
    (target: $t:expr, $($arg:tt)+) => {
        if $crate::log_enabled($t, $crate::Level::Trace) {
            $crate::log_emit($t, $crate::Level::Trace, format_args!($($arg)+));
        }
    };
    ($($arg:tt)+) => { $crate::log_trace!(target: module_path!(), $($arg)+) };
}
