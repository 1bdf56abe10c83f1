//! Integration tests for the metrics registry, spans, and exporters.
//!
//! The registry is a process-wide singleton, so every test that records
//! or snapshots takes `TEST_LOCK` and starts with `db_obs::reset()`.

use std::sync::Mutex;
use std::time::Duration;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_counter_increments_are_lossless() {
    let _g = locked();
    db_obs::reset();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    db_obs::counter!("test.concurrent").incr();
                }
            });
        }
    });
    assert_eq!(db_obs::counter!("test.concurrent").get(), THREADS as u64 * PER_THREAD);
    assert_eq!(db_obs::snapshot().counter("test.concurrent"), Some(THREADS as u64 * PER_THREAD));
}

#[test]
fn counter_handles_are_shared_across_callsites() {
    let _g = locked();
    db_obs::reset();
    db_obs::counter!("test.shared").add(2);
    db_obs::counter!("test.shared").add(3);
    assert_eq!(db_obs::snapshot().counter("test.shared"), Some(5));
}

#[test]
fn gauge_set_add_max() {
    let _g = locked();
    db_obs::reset();
    let g = db_obs::gauge!("test.gauge");
    g.set(10);
    g.add(-3);
    assert_eq!(g.get(), 7);
    g.max(5);
    assert_eq!(g.get(), 7);
    g.max(9);
    assert_eq!(g.get(), 9);
}

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper() {
    let _g = locked();
    db_obs::reset();
    let h = db_obs::histogram!("test.hist", [1.0, 10.0, 100.0]);
    // Exactly on a bound lands in that bound's bucket (v <= bound).
    for v in [0.5, 1.0] {
        h.record(v); // bucket 0: <= 1
    }
    h.record(1.0000001); // bucket 1: <= 10
    h.record(10.0); // bucket 1
    h.record(99.9); // bucket 2: <= 100
    h.record(100.0); // bucket 2
    h.record(100.1); // overflow
    h.record(1e12); // overflow
    let snap = db_obs::snapshot();
    let hs = snap.histograms.iter().find(|h| h.name == "test.hist").unwrap();
    assert_eq!(hs.buckets, vec![2, 2, 2, 2]);
    assert_eq!(hs.count, 8);
    assert_eq!(hs.bounds, vec![1.0, 10.0, 100.0]);
    let expected_sum = 0.5 + 1.0 + 1.0000001 + 10.0 + 99.9 + 100.0 + 100.1 + 1e12;
    assert!((hs.sum - expected_sum).abs() < 1e-6 * expected_sum);
}

#[test]
fn histogram_concurrent_records_keep_count_consistent() {
    let _g = locked();
    db_obs::reset();
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                for i in 0..1_000 {
                    db_obs::histogram!("test.hist_conc", [8.0, 64.0])
                        .record((t * 1_000 + i) as f64 % 100.0);
                }
            });
        }
    });
    let snap = db_obs::snapshot();
    let hs = snap.histograms.iter().find(|h| h.name == "test.hist_conc").unwrap();
    assert_eq!(hs.count, 4_000);
    assert_eq!(hs.buckets.iter().sum::<u64>(), 4_000);
    // Sum of 0..100 repeated 40 times, via CAS accumulation.
    assert!((hs.sum - 40.0 * 4950.0).abs() < 1e-6);
}

#[test]
fn span_aggregation_counts_and_totals() {
    let _g = locked();
    db_obs::reset();
    for _ in 0..3 {
        let _span = db_obs::span!("test.outer_span");
        std::thread::sleep(Duration::from_millis(2));
    }
    let snap = db_obs::snapshot();
    let sp = snap.span("test.outer_span").unwrap();
    assert_eq!(sp.count, 3);
    assert!(sp.total_ns >= 3 * 2_000_000, "total {} ns", sp.total_ns);
    assert!(sp.min_ns >= 2_000_000);
    assert!(sp.max_ns >= sp.min_ns);
    assert!(sp.total_ns >= sp.max_ns);
}

#[test]
fn nested_spans_attribute_self_time_to_the_parent() {
    let _g = locked();
    db_obs::reset();
    {
        let _outer = db_obs::span!("test.nest_outer");
        std::thread::sleep(Duration::from_millis(4));
        {
            let _inner = db_obs::span!("test.nest_inner");
            std::thread::sleep(Duration::from_millis(8));
        }
    }
    let snap = db_obs::snapshot();
    let outer = snap.span("test.nest_outer").unwrap();
    let inner = snap.span("test.nest_inner").unwrap();
    assert!(inner.total_ns >= 8_000_000);
    // Outer total includes the inner 8ms; outer self excludes it.
    assert!(outer.total_ns >= 12_000_000, "outer total {} ns", outer.total_ns);
    assert!(
        outer.self_ns < outer.total_ns - inner.total_ns / 2,
        "outer self {} not discounted by inner {}",
        outer.self_ns,
        inner.total_ns
    );
    // Inner is a leaf: self ~ total.
    assert_eq!(inner.self_ns, inner.total_ns);
}

#[test]
fn sibling_spans_on_other_threads_do_not_nest() {
    let _g = locked();
    db_obs::reset();
    {
        let _outer = db_obs::span!("test.thread_outer");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _inner = db_obs::span!("test.thread_inner");
                std::thread::sleep(Duration::from_millis(3));
            });
        });
    }
    let snap = db_obs::snapshot();
    let outer = snap.span("test.thread_outer").unwrap();
    // The other thread's span is not this thread's child, so outer
    // keeps its full self-time.
    assert_eq!(outer.self_ns, outer.total_ns);
}

#[test]
fn reset_zeroes_but_keeps_registrations() {
    let _g = locked();
    db_obs::reset();
    db_obs::counter!("test.reset_me").add(9);
    {
        let _span = db_obs::span!("test.reset_span");
    }
    db_obs::reset();
    let snap = db_obs::snapshot();
    assert_eq!(snap.counter("test.reset_me"), Some(0));
    let sp = snap.span("test.reset_span").unwrap();
    assert_eq!((sp.count, sp.total_ns, sp.min_ns, sp.max_ns), (0, 0, 0, 0));
    // Cached handles still work after reset.
    db_obs::counter!("test.reset_me").incr();
    assert_eq!(db_obs::snapshot().counter("test.reset_me"), Some(1));
}

#[test]
fn exporters_cover_live_data() {
    let _g = locked();
    db_obs::reset();
    db_obs::counter!("test.export_counter").add(7);
    {
        let _span = db_obs::span!("test.export_span");
    }
    let snap = db_obs::snapshot();
    let table = db_obs::render_table(&snap);
    assert!(table.contains("test.export_counter"));
    assert!(table.contains("test.export_span"));
    let jsonl = db_obs::json_lines(&snap);
    assert!(jsonl.contains(r#""name":"test.export_counter","value":7"#));
}

mod logger {
    use super::locked;

    #[test]
    fn filter_spec_gates_targets_and_levels() {
        let _g = locked();
        db_obs::set_filter_spec("optics=debug,info");
        assert!(db_obs::log_enabled("db_optics::algorithm", db_obs::Level::Debug));
        assert!(!db_obs::log_enabled("db_optics::algorithm", db_obs::Level::Trace));
        assert!(db_obs::log_enabled("db_birch::tree", db_obs::Level::Info));
        assert!(!db_obs::log_enabled("db_birch::tree", db_obs::Level::Debug));

        db_obs::set_filter_spec("");
        assert!(!db_obs::log_enabled("db_optics::algorithm", db_obs::Level::Error));
        // Macros still compile and do nothing when silent.
        db_obs::log_debug!("invisible {}", 1);
        db_obs::log_error!(target: "optics", "also invisible");
    }
}
