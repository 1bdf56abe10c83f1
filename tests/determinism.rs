//! Bit-for-bit determinism of the threaded pipeline paths.
//!
//! The parallel classification and statistics accumulation promise outputs
//! identical to the sequential path for *every* thread count. These tests
//! pin that contract end to end: all six paper pipelines run with 1, 2 and
//! 4 worker threads and with the knob left to available parallelism, and
//! every run must equal the single-threaded baseline exactly — same walk,
//! same reachabilities to the last bit. A second suite pins the dense
//! OPTICS walk over Data Bubbles against the heap walk, with and without
//! the precomputed distance matrix, on random bubble sets and on the
//! bubbles of adversarial corpora.

mod support;

use std::num::NonZeroUsize;
use std::time::Duration;

use data_bubbles::pipeline::{
    run_pipeline, CancelToken, Compressor, PipelineConfig, PipelineError, PipelineOutput, Recovery,
    RunBudget,
};
use data_bubbles::{bubble_distance, BubbleSpace, DataBubble};
use db_birch::BirchParams;
use db_datagen::Rng;
use db_optics::{optics, OpticsParams};
use db_spatial::Dataset;
use support::{assert_bitwise_equal, random_bubbles, HeapWalk};

/// Matrix build thread counts the heap walk is checked with.
const MATRIX_THREADS: [Option<NonZeroUsize>; 3] =
    [NonZeroUsize::new(1), NonZeroUsize::new(2), None];

/// Two dense squares far apart — structured enough that the walk order,
/// core-distances and expansion all carry signal.
fn two_squares() -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..900 {
        let (x, y) = ((i % 30) as f64 * 0.3, (i / 30) as f64 * 0.3);
        ds.push(&[x, y]).unwrap();
        ds.push(&[x + 150.0, y * 1.5]).unwrap();
    }
    ds
}

fn params() -> OpticsParams {
    OpticsParams { eps: f64::INFINITY, min_pts: 12 }
}

fn assert_identical(base: &PipelineOutput, other: &PipelineOutput, ctx: &str) {
    assert_eq!(base.n_representatives, other.n_representatives, "{ctx}: representative count");
    assert_eq!(base.rep_ordering, other.rep_ordering, "{ctx}: rep ordering differs");
    assert_eq!(base.expanded, other.expanded, "{ctx}: expanded ordering differs");
}

fn six_pipelines(k: usize, seed: u64) -> Vec<(String, Compressor, Recovery)> {
    let mut out = Vec::new();
    for (cname, compressor) in
        [("SA", Compressor::Sample { seed }), ("CF", Compressor::Birch(BirchParams::default()))]
    {
        for recovery in [Recovery::Naive, Recovery::Weighted, Recovery::Bubbles] {
            out.push((format!("OPTICS-{cname}-{recovery:?} k={k}"), compressor.clone(), recovery));
        }
    }
    out
}

#[test]
fn all_six_pipelines_are_thread_count_invariant() {
    let ds = two_squares();
    for (ctx, compressor, recovery) in six_pipelines(40, 7) {
        let mut cfg = PipelineConfig::new(40, compressor, recovery, params());
        cfg.threads = NonZeroUsize::new(1);
        let base = run_pipeline(&ds, &cfg).unwrap();
        for threads in [NonZeroUsize::new(2), NonZeroUsize::new(4), None] {
            cfg.threads = threads;
            let other = run_pipeline(&ds, &cfg).unwrap();
            assert_identical(&base, &other, &format!("{ctx} threads={threads:?}"));
        }
    }
}

#[test]
fn dense_walk_equals_heap_walk_with_and_without_matrix() {
    // Property: on random bubble sets — verbatim duplicates (exact ties),
    // sub-MinPts bubbles, and a MinPts above the total weight (every bubble
    // a walk start) — the dense walk reproduces the heap walk bit for bit,
    // whether the heap walk's neighbourhoods are scanned on the fly or
    // served from the matrix, for every ε from 0 to ∞.
    let iters: usize =
        std::env::var("ORACLE_ITERS").ok().and_then(|s| s.parse().ok()).unwrap_or(100);
    let mut rng = Rng::new(4242);
    for it in 0..iters {
        let k = 1 + rng.below(40);
        let dim = 1 + rng.below(4);
        let bubbles = random_bubbles(&mut rng, k, dim);
        let total: u64 = bubbles.iter().map(DataBubble::n).sum();
        let (i, j) = (rng.below(k), rng.below(k));
        // A realized distance in both orientations: Def. 6 is not bitwise
        // symmetric, so ε can sit exactly between the two.
        let eps_values = [
            0.0,
            bubble_distance(&bubbles[i], &bubbles[j], i == j),
            bubble_distance(&bubbles[j], &bubbles[i], i == j),
            rng.uniform_in(0.5, 15.0),
            f64::INFINITY,
        ];
        let min_pts_values = [1, 2 + rng.below(40), total as usize + 1];

        let plain = BubbleSpace::new(bubbles);
        let with_matrix: Vec<BubbleSpace> = MATRIX_THREADS
            .iter()
            .map(|&threads| {
                let mut s = plain.clone();
                assert!(s.precompute_matrix(threads, usize::MAX));
                s
            })
            .collect();
        for eps in eps_values {
            for min_pts in min_pts_values {
                let params = OpticsParams { eps, min_pts };
                let ctx = format!("iter {it}: k={k} dim={dim} eps={eps:e} MinPts={min_pts}");
                let dense = optics(&plain, &params);
                assert_bitwise_equal(&optics(&HeapWalk(&plain), &params), &dense, &ctx);
                for (space, threads) in with_matrix.iter().zip(MATRIX_THREADS) {
                    let heap = optics(&HeapWalk(space), &params);
                    assert_bitwise_equal(
                        &heap,
                        &dense,
                        &format!("{ctx} matrix threads={threads:?}"),
                    );
                }
            }
        }
    }
}

#[test]
fn pipeline_walk_equals_heap_walk_on_adversarial_corpora() {
    // The pipeline's clustering phase (the dense walk) against the heap
    // walk over the same bubbles, rebuilt outside the pipeline from the
    // same sample, on corpora built to stress distance ties (duplicate
    // floods) and far offsets — at every thread setting.
    let corpora: Vec<(&str, Dataset)> = vec![
        ("two_squares", two_squares()),
        ("far_offset", db_datagen::adversarial::far_offset_clusters(42).build().unwrap()),
        ("duplicates", db_datagen::adversarial::zero_variance_duplicates(0).build().unwrap()),
        ("singletons", db_datagen::adversarial::singleton_flood(3).build().unwrap()),
    ];
    for (name, ds) in corpora {
        let k = (ds.len() / 8).clamp(2, 40);
        let mut cfg =
            PipelineConfig::new(k, Compressor::Sample { seed: 11 }, Recovery::Bubbles, params());
        cfg.threads = NonZeroUsize::new(1);
        let base = run_pipeline(&ds, &cfg).unwrap();
        let sample = db_sampling::compress_by_sampling(&ds, k, 11).unwrap();
        let bubbles: Vec<DataBubble> =
            sample.stats.iter().map(|cf| DataBubble::try_from_cf(cf).unwrap()).collect();
        let space = BubbleSpace::new(bubbles);
        let heap = optics(&HeapWalk(&space), &params());
        assert_bitwise_equal(&heap, &base.rep_ordering, &format!("{name}: on-the-fly heap walk"));
        for threads in MATRIX_THREADS {
            cfg.threads = threads;
            let out = run_pipeline(&ds, &cfg).unwrap();
            assert_identical(&base, &out, &format!("{name}: threads={threads:?}"));
            let mut with_matrix = space.clone();
            assert!(with_matrix.precompute_matrix(threads, usize::MAX));
            let heap = optics(&HeapWalk(&with_matrix), &params());
            assert_bitwise_equal(
                &heap,
                &base.rep_ordering,
                &format!("{name}: matrix heap walk, threads={threads:?}"),
            );
        }
    }
}

#[test]
fn an_armed_but_unfired_budget_changes_nothing() {
    // Supervision's determinism contract: arming a deadline and a
    // cancellation token that are never hit must leave every one of the
    // six variants bit-for-bit identical to the unsupervised run.
    let ds = two_squares();
    for (ctx, compressor, recovery) in six_pipelines(40, 7) {
        let mut cfg = PipelineConfig::new(40, compressor, recovery, params());
        let base = run_pipeline(&ds, &cfg).unwrap();
        cfg.budget = RunBudget::with_deadline(Duration::from_secs(3600));
        cfg.cancel = Some(CancelToken::new());
        let supervised = run_pipeline(&ds, &cfg).unwrap();
        assert_identical(&base, &supervised, &format!("{ctx} under an idle budget"));
    }
}

#[test]
fn mid_run_cancellation_is_typed_and_a_retry_is_bit_identical() {
    // A second thread flips the token while the pipeline runs. Whatever
    // phase the cancellation lands in, the run must stop with the typed
    // error — never a panic, never partial output — and an immediately
    // retried run (fresh token) must be bit-identical to the baseline.
    let ds = two_squares();
    for (ctx, compressor, recovery) in six_pipelines(40, 7) {
        let mut cfg = PipelineConfig::new(40, compressor, recovery, params());
        let base = run_pipeline(&ds, &cfg).unwrap();

        // Scan cancellation delays until one lands mid-run; a pre-
        // cancelled token (delay 0) guarantees at least one typed hit
        // even on a machine fast enough to outrun every sleep.
        let mut saw_cancelled = false;
        for delay_us in [0u64, 50, 200, 1000, 5000] {
            let token = CancelToken::new();
            cfg.cancel = Some(token.clone());
            let result = std::thread::scope(|s| {
                let canceller = s.spawn(move || {
                    if delay_us > 0 {
                        std::thread::sleep(Duration::from_micros(delay_us));
                    }
                    token.cancel();
                });
                if delay_us == 0 {
                    // Guarantee the flip lands before the first check.
                    canceller.join().expect("canceller thread");
                }
                run_pipeline(&ds, &cfg)
            });
            match result {
                Err(PipelineError::Cancelled { .. }) => saw_cancelled = true,
                // The run beat the cancel to the finish line; that race
                // is legal, and the output must still be untouched.
                Ok(out) => assert_identical(&base, &out, &format!("{ctx} outran cancel")),
                other => panic!("{ctx}: expected Cancelled or success, got {other:?}"),
            }
        }
        assert!(saw_cancelled, "{ctx}: the pre-cancelled token must yield a typed Cancelled");

        // Retry with a fresh, uncancelled token: bit-identical.
        cfg.cancel = Some(CancelToken::new());
        let retried = run_pipeline(&ds, &cfg).unwrap();
        assert_identical(&base, &retried, &format!("{ctx} retried after cancellation"));
    }
}

#[test]
fn explicit_thread_counts_exceeding_the_machine_still_agree() {
    // Oversubscription (more threads than cores, more than work chunks)
    // must not change anything either.
    let ds = two_squares();
    let mut cfg =
        PipelineConfig::new(25, Compressor::Sample { seed: 3 }, Recovery::Bubbles, params());
    cfg.threads = NonZeroUsize::new(1);
    let base = run_pipeline(&ds, &cfg).unwrap();
    cfg.threads = NonZeroUsize::new(64);
    let wide = run_pipeline(&ds, &cfg).unwrap();
    assert_identical(&base, &wide, "threads=64");
}
