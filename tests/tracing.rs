//! End-to-end event-tracing tests over real pipeline runs (the
//! acceptance checks of the tracing subsystem): per-phase trace spans
//! must agree with `PipelineTimings`, and every pipeline variant must
//! emit a self-contained, balanced trace under its own run id.
//!
//! The trace ring is process-global, so each test filters by its runs'
//! ids instead of locking.

use std::collections::HashMap;

use data_bubbles::pipeline::{
    optics_cf_bubbles, optics_cf_naive, optics_cf_weighted, optics_sa_bubbles, optics_sa_naive,
    optics_sa_weighted, PipelineOutput,
};
use db_birch::BirchParams;
use db_obs::{TraceEvent, TraceEventKind};
use db_optics::OpticsParams;
use db_spatial::Dataset;

/// Two dense squares far apart, 800 points each.
fn two_squares() -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..800 {
        let (x, y) = ((i % 40) as f64 * 0.25, (i / 40) as f64 * 0.25);
        ds.push(&[x, y]).unwrap();
        ds.push(&[x + 200.0, y]).unwrap();
    }
    ds
}

fn params() -> OpticsParams {
    OpticsParams { eps: f64::INFINITY, min_pts: 20 }
}

/// Duration of the single `name` span within `events`, in nanoseconds.
fn span_duration_ns(events: &[TraceEvent], name: &str) -> u64 {
    let begin: Vec<&TraceEvent> =
        events.iter().filter(|e| e.name == name && e.kind == TraceEventKind::Begin).collect();
    let end: Vec<&TraceEvent> =
        events.iter().filter(|e| e.name == name && e.kind == TraceEventKind::End).collect();
    assert_eq!(begin.len(), 1, "expected exactly one Begin for {name}");
    assert_eq!(end.len(), 1, "expected exactly one End for {name}");
    end[0].ts_ns - begin[0].ts_ns
}

#[test]
fn phase_trace_spans_match_pipeline_timings() {
    db_obs::trace::set_enabled(true);
    let ds = two_squares();
    let out = optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
    let events = db_obs::trace::events_for_run(out.run_id);
    assert!(!events.is_empty(), "a traced run must emit events");

    // Acceptance: each phase's Begin..End duration agrees with the
    // wall-clock `PipelineTimings` within 5% (plus a small absolute slack
    // for sub-millisecond phases, where the Instant reads and the event
    // records straddle each other).
    for (name, measured) in [
        ("pipeline.compression", out.timings.compression),
        ("pipeline.clustering", out.timings.clustering),
        ("pipeline.recovery", out.timings.recovery),
    ] {
        let traced_ns = span_duration_ns(&events, name) as f64;
        let measured_ns = measured.as_nanos() as f64;
        let tolerance = measured_ns * 0.05 + 200_000.0;
        assert!(
            (traced_ns - measured_ns).abs() <= tolerance,
            "{name}: trace {traced_ns} ns vs timing {measured_ns} ns (tolerance {tolerance} ns)"
        );
    }

    // The run span encloses the phases.
    let run_ns = span_duration_ns(&events, "pipeline.run");
    let phases_ns: u64 = ["pipeline.compression", "pipeline.clustering", "pipeline.recovery"]
        .iter()
        .map(|n| span_duration_ns(&events, n))
        .sum();
    assert!(run_ns >= phases_ns, "run {run_ns} ns < phase sum {phases_ns} ns");

    // Instant markers carry their arguments through.
    let start = events
        .iter()
        .find(|e| e.name == "pipeline.start" && e.kind == TraceEventKind::Instant)
        .expect("pipeline.start instant");
    assert_eq!((start.arg_name, start.arg), ("n_points", ds.len() as u64));
    let compressed = events
        .iter()
        .find(|e| e.name == "pipeline.compressed")
        .expect("pipeline.compressed instant");
    assert_eq!(compressed.arg, out.n_representatives as u64);
}

/// Asserts `events` form a well-nested trace: on every thread each End
/// matches the most recent unmatched Begin, and nothing stays open.
fn assert_balanced(events: &[TraceEvent]) {
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            TraceEventKind::Begin => stack.push(e.name),
            TraceEventKind::End => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("End of {} on tid {} without a Begin", e.name, e.tid)
                });
                assert_eq!(open, e.name, "mismatched End on tid {}", e.tid);
            }
            TraceEventKind::Instant => {}
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }
}

#[test]
fn every_pipeline_variant_emits_a_self_contained_trace() {
    db_obs::trace::set_enabled(true);
    let ds = two_squares();
    let birch = BirchParams::default();
    let p = params();

    let outs: Vec<(&str, PipelineOutput)> = vec![
        ("sa_naive", optics_sa_naive(&ds, 40, 7, &p).unwrap()),
        ("cf_naive", optics_cf_naive(&ds, 40, &birch, &p).unwrap()),
        ("sa_weighted", optics_sa_weighted(&ds, 40, 7, &p).unwrap()),
        ("cf_weighted", optics_cf_weighted(&ds, 40, &birch, &p).unwrap()),
        ("sa_bubbles", optics_sa_bubbles(&ds, 40, 7, &p).unwrap()),
        ("cf_bubbles", optics_cf_bubbles(&ds, 40, &birch, &p).unwrap()),
    ];

    // Run ids are distinct across the six runs.
    let mut ids: Vec<u64> = outs.iter().map(|(_, o)| o.run_id).collect();
    ids.dedup();
    assert_eq!(ids.len(), 6, "run ids must be unique per run");

    for (variant, out) in &outs {
        let events = db_obs::trace::events_for_run(out.run_id);
        assert!(!events.is_empty(), "{variant}: no events");
        assert!(events.iter().all(|e| e.run_id == out.run_id));
        assert!(
            events.iter().any(|e| e.name == "pipeline.run"),
            "{variant}: missing pipeline.run span"
        );
        assert_balanced(&events);
    }

    // The member-recovering variants fan classification out to workers;
    // their linked chunk spans must record under the parent's run id.
    let sa_bubbles = &outs.iter().find(|(v, _)| *v == "sa_bubbles").unwrap().1;
    let events = db_obs::trace::events_for_run(sa_bubbles.run_id);
    if std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1) > 1 {
        assert!(
            events.iter().any(|e| e.name == "sampling.classify_chunk"),
            "worker spans missing from the parent run's trace"
        );
    }
}

#[test]
fn trace_export_of_a_run_is_valid_chrome_json() {
    db_obs::trace::set_enabled(true);
    let ds = two_squares();
    let out = optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
    let events = db_obs::trace::events_for_run(out.run_id);

    let json = db_obs::trace_json(&events);
    let doc = db_obs::Json::parse(&json).expect("valid Chrome trace JSON");
    let evs = doc.get("traceEvents").and_then(db_obs::Json::as_arr).unwrap();
    assert_eq!(evs.len(), events.len());

    let folded = db_obs::folded_stacks(&events);
    assert!(
        folded.lines().any(|l| l.starts_with("pipeline.run;pipeline.compression")),
        "folded stacks missing the phase hierarchy:\n{folded}"
    );
}
