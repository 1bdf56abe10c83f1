//! Pipeline-level observability tests: after a real pipeline run the
//! registry must hold the algorithm counters, and the per-phase spans must
//! agree with the wall-clock `PipelineTimings`.
//!
//! The registry is process-global, so these tests serialize on a lock and
//! reset before each run.

mod support;

use std::sync::Mutex;

use data_bubbles::pipeline::{optics_sa_bubbles, PipelineTimings};
use data_bubbles::{BubbleSpace, DataBubble};
use db_optics::{optics, ClusterOrdering, OpticsParams};
use db_spatial::Dataset;
use support::{assert_bitwise_equal, random_bubbles, HeapWalk};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

#[test]
fn sa_bubbles_records_algorithm_counters() {
    let _g = locked();
    db_obs::reset();
    let ds = two_squares();
    let out = optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
    let snap = db_obs::snapshot();

    // At ε = ∞ every bubble is a core object, so the dense walk evaluates
    // each of the k(k−1)/2 pairs once, plus a full row of k for each
    // sub-MinPts bubble's core-distance.
    let sub_min_pts =
        out.rep_ordering.entries.iter().filter(|e| e.weight < params().min_pts as u64).count();
    let expected = 40 * 39 / 2 + 40 * sub_min_pts as u64;
    assert_eq!(snap.counter("optics.distance_calls"), Some(expected), "optics.distance_calls");
    // One neighbourhood query per bubble processed.
    assert_eq!(snap.counter("optics.neighborhood_queries"), Some(40));
    // Sampling classified every original object.
    assert_eq!(snap.counter("sampling.points_classified"), Some(ds.len() as u64));
    assert_eq!(snap.counter("sampling.reps_sampled"), Some(40));
    // Exactly one pipeline run.
    assert_eq!(snap.counter("pipeline.runs"), Some(1));
}

#[test]
fn dense_walk_counters_match_the_heap_walk() {
    // The dense walk reports the heap walk's seed updates (every lowered
    // reachability) and neighbourhood queries (one per processed bubble),
    // and exactly the distances it evaluates.
    let _g = locked();
    let mut rng = db_datagen::Rng::new(99);
    for it in 0..40 {
        let k = 1 + rng.below(30);
        let dim = 1 + rng.below(3);
        let bubbles = random_bubbles(&mut rng, k, dim);
        let total: u64 = bubbles.iter().map(DataBubble::n).sum();
        let space = BubbleSpace::new(bubbles);
        let min_pts = 1 + rng.below(40);
        for eps in [rng.uniform_in(0.5, 15.0), f64::INFINITY] {
            let params = OpticsParams { eps, min_pts };
            let count = |run: &dyn Fn() -> ClusterOrdering| {
                db_obs::reset();
                let ordering = run();
                let snap = db_obs::snapshot();
                let get = |name| snap.counter(name).unwrap_or(0);
                (
                    ordering,
                    get("optics.seed_updates"),
                    get("optics.neighborhood_queries"),
                    get("optics.distance_calls"),
                )
            };
            let (dense, dense_seeds, dense_queries, dense_dists) =
                count(&|| optics(&space, &params));
            let (heap, heap_seeds, heap_queries, _) = count(&|| optics(&HeapWalk(&space), &params));
            let ctx = format!("iter {it}: k={k} eps={eps:e} MinPts={min_pts}");
            assert_bitwise_equal(&heap, &dense, &ctx);
            assert_eq!(dense_seeds, heap_seeds, "{ctx}: seed updates");
            assert_eq!(dense_queries, k as u64, "{ctx}: dense neighbourhood queries");
            assert_eq!(heap_queries, k as u64, "{ctx}: heap neighbourhood queries");
            if eps.is_infinite() {
                let k = k as u64;
                let expected = if total < min_pts as u64 {
                    0 // no core object: no distance is needed
                } else {
                    let sub = space.bubbles().iter().filter(|b| b.n() < min_pts as u64);
                    k * (k - 1) / 2 + k * sub.count() as u64
                };
                assert_eq!(dense_dists, expected, "{ctx}: distance calls");
            }
        }
    }
}

#[test]
fn phase_spans_match_pipeline_timings() {
    let _g = locked();
    db_obs::reset();
    let ds = two_squares();
    let out = optics_sa_bubbles(&ds, 40, 7, &params()).unwrap();
    let snap = db_obs::snapshot();

    // Each phase span fired exactly once and its total agrees with the
    // wall-clock timing within 5% (plus a small absolute slack for very
    // short phases, where the two Instant reads straddle the span's).
    let timings: &PipelineTimings = &out.timings;
    for (name, measured) in [
        ("pipeline.compression", timings.compression),
        ("pipeline.clustering", timings.clustering),
        ("pipeline.recovery", timings.recovery),
    ] {
        let span = snap.span(name).unwrap_or_else(|| panic!("span {name} missing"));
        assert_eq!(span.count, 1, "{name} fired {} times", span.count);
        let measured_ns = measured.as_nanos() as f64;
        let span_ns = span.total_ns as f64;
        let tolerance = measured_ns * 0.05 + 200_000.0;
        assert!(
            (span_ns - measured_ns).abs() <= tolerance,
            "{name}: span {span_ns} ns vs timing {measured_ns} ns (tolerance {tolerance} ns)"
        );
    }

    // The enclosing pipeline.run span covers all three phases.
    let run = snap.span("pipeline.run").unwrap();
    let phases_ns: u64 = ["pipeline.compression", "pipeline.clustering", "pipeline.recovery"]
        .iter()
        .map(|n| snap.span(n).unwrap().total_ns)
        .sum();
    assert!(run.total_ns >= phases_ns, "run {} < phases {}", run.total_ns, phases_ns);
    // Phase spans are children of pipeline.run: its self-time excludes them.
    assert!(run.self_ns <= run.total_ns - phases_ns + 200_000);
}

#[test]
fn linked_worker_spans_attribute_into_parent() {
    let _g = locked();
    db_obs::reset();
    // Big enough to cross nn_classify_parallel's sequential cutoff (1024)
    // so the classification actually fans out to worker threads.
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..4096 {
        ds.push(&[(i % 64) as f64, (i / 64) as f64]).unwrap();
    }
    let mut reps = Dataset::new(2).unwrap();
    for i in 0..8 {
        reps.push(&[(i * 8) as f64, (i * 8) as f64]).unwrap();
    }
    let threads = std::num::NonZeroUsize::new(4);
    db_sampling::nn_classify_parallel(&ds, &reps, threads);
    let snap = db_obs::snapshot();

    let parent = snap.span("sampling.nn_classify").expect("parent span");
    assert_eq!(parent.count, 1);
    let chunks = snap.span("sampling.classify_chunk").expect("worker spans");
    assert_eq!(chunks.count, 4, "one linked span per worker");
    assert!(chunks.total_ns > 0);

    // Cross-thread attribution: the workers' time reports into the parent
    // as child time, so the parent's self-time excludes it (clamped at
    // zero — concurrent workers can sum past the parent's wall time).
    assert!(
        parent.self_ns <= parent.total_ns.saturating_sub(chunks.total_ns),
        "parent self {} ns must exclude the {} ns of linked worker time (total {} ns)",
        parent.self_ns,
        chunks.total_ns,
        parent.total_ns
    );
}

#[test]
fn exporters_render_pipeline_metrics() {
    let _g = locked();
    db_obs::reset();
    let ds = two_squares();
    optics_sa_bubbles(&ds, 30, 1, &params()).unwrap();
    let snap = db_obs::snapshot();
    let table = db_obs::render_table(&snap);
    assert!(table.contains("optics.distance_calls"));
    assert!(table.contains("pipeline.clustering"));
    let jsonl = db_obs::json_lines(&snap);
    assert!(jsonl.lines().any(|l| l.contains(r#""kind":"span""#)));
    assert!(jsonl.lines().any(|l| l.contains(r#""name":"pipeline.runs""#)));
}
