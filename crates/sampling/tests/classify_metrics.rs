//! Metrics trail of `nn_classify_parallel`: the <1024-point sequential
//! fallback must leave the same span and counter trail as the threaded
//! path.
//!
//! The metrics registry is process-global and these assertions are
//! exact, so this test lives in its own binary: no sibling test can
//! classify points between its `reset()` and its `snapshot()`.

use std::num::NonZeroUsize;

use db_sampling::nn_classify_parallel;
use db_spatial::Dataset;

fn data(n: usize) -> Dataset {
    let mut ds = Dataset::new(2).unwrap();
    for i in 0..n {
        ds.push(&[(i % 173) as f64, ((i * 31) % 97) as f64]).unwrap();
    }
    ds
}

#[test]
fn both_paths_emit_identical_metrics() {
    let reps = data(1_200).subset(&[0, 600]);
    let check = |n: usize, threads: Option<NonZeroUsize>| {
        db_obs::reset();
        nn_classify_parallel(&data(n), &reps, threads);
        let snap = db_obs::snapshot();
        assert_eq!(snap.counter("sampling.points_classified"), Some(n as u64));
        assert!(snap.span("sampling.nn_classify").is_some(), "span missing (n = {n})");
    };
    check(100, NonZeroUsize::new(4)); // sequential fallback
    check(2_000, NonZeroUsize::new(2)); // threaded path
    check(2_000, NonZeroUsize::new(1)); // explicit single thread
}
