//! Unit tests of the benchmark's own pieces: the percentile rule, the
//! ladder stop rule, the load schedule and the output fingerprint.

use std::num::NonZeroUsize;

use data_bubbles::pipeline::run_pipeline;
use perfbench::batch::WORKLOADS;
use perfbench::fingerprint::{fingerprint, orderings_identical};
use perfbench::serve::schedule;
use perfbench::stats::{ladder_max, percentile, tail_percentile, Step};

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled order: the rule must not depend on the input order.
    (1..=n).rev().map(|i| i as f64).collect()
}

#[test]
fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
    let p = tail_percentile(&ramp(1000)).unwrap();
    assert_eq!((p.pct, p.value, p.samples, p.beyond), (99.0, 990.0, 1000, 10));

    // One sample short of p99: falls back to p90.
    let p = tail_percentile(&ramp(999)).unwrap();
    assert_eq!((p.pct, p.value, p.samples, p.beyond), (90.0, 900.0, 999, 99));

    let p = tail_percentile(&ramp(10_000)).unwrap();
    assert_eq!((p.pct, p.value, p.beyond), (99.9, 9990.0, 10));

    let p = tail_percentile(&ramp(20)).unwrap();
    assert_eq!((p.pct, p.value, p.beyond), (50.0, 10.0, 10));
    assert_eq!(tail_percentile(&ramp(19)), None);
    assert_eq!(tail_percentile(&[]), None);
}

#[test]
fn failures_count_as_infinite_latency_in_the_tail() {
    let mut xs = ramp(989);
    xs.extend([f64::INFINITY; 11]);
    let p = tail_percentile(&xs).unwrap();
    assert_eq!(p.pct, 99.0);
    assert!(p.value.is_infinite(), "a failed request must reach the p99 rank");
    assert_eq!(percentile(&xs, 50.0).unwrap().value, 500.0);
}

fn step(latency_ms: f64, backlog: usize) -> Step {
    Step { achieved: 1.0, latencies_ms: vec![latency_ms; 40], backlog }
}

#[test]
fn ladder_stops_at_the_first_step_that_misses_its_limit() {
    let limit = 100.0;
    let pass = step(10.0, 0);
    let slow = step(150.0, 0);
    assert_eq!(
        ladder_max(&[pass.clone(), pass.clone(), slow.clone(), pass.clone()], limit),
        Some(1)
    );
    assert_eq!(ladder_max(&[slow.clone(), pass.clone()], limit), None);
    assert_eq!(ladder_max(&[pass.clone(), pass.clone(), pass.clone()], limit), Some(2));
    assert_eq!(ladder_max(&[], limit), None);

    // A growing backlog fails a step whose latencies are fine.
    assert!(step(10.0, 1).meets(limit));
    assert!(!step(10.0, 2).meets(limit));
    assert_eq!(ladder_max(&[pass.clone(), step(10.0, 3)], limit), Some(0));

    // Failed requests are infinite latencies. With 40 samples the tail is
    // the median: one failure lies beyond it, twenty-one reach it.
    let mut failing = pass.clone();
    failing.latencies_ms[0] = f64::INFINITY;
    assert!(failing.meets(limit));
    failing.latencies_ms[..21].fill(f64::INFINITY);
    assert!(!failing.meets(limit));

    // Too few samples to judge the tail: the step does not count as met.
    let sparse = Step { latencies_ms: vec![1.0; 5], ..pass };
    assert!(!sparse.meets(limit));
}

#[test]
fn fingerprint_is_identical_at_one_and_two_threads() {
    let w = WORKLOADS.iter().find(|w| w.name == "ds1-f1000").unwrap();
    let n = 20_000;
    let data = w.generate(n, 7);
    let mut cfg = w.config(n, 7);
    cfg.k = 200;
    let mut prints = Vec::new();
    let mut orderings = Vec::new();
    for t in [1, 2] {
        cfg.threads = NonZeroUsize::new(t);
        let out = run_pipeline(&data.data, &cfg).unwrap();
        prints.push(fingerprint(&out.rep_ordering, out.expanded.as_ref()));
        orderings.push(out.rep_ordering);
    }
    assert_eq!(prints[0], prints[1]);
    assert!(orderings_identical(&orderings[0], &orderings[1]));

    // The fingerprint sees a single flipped bit.
    let mut flipped = orderings[0].clone();
    let e = flipped.entries.iter_mut().find(|e| e.reachability.is_finite()).unwrap();
    e.reachability = f64::from_bits(e.reachability.to_bits() ^ 1);
    assert_ne!(fingerprint(&flipped, None), fingerprint(&orderings[0], None));
    assert!(!orderings_identical(&flipped, &orderings[0]));
}

#[test]
fn schedules_keep_one_batch_per_interval_inside_the_step() {
    let fixed = schedule(0.1, 1.0, None);
    assert_eq!(fixed.len(), 10);
    assert!(fixed.iter().enumerate().all(|(k, &t)| (t - k as f64 * 0.1).abs() < 1e-12));

    let jittered = schedule(0.1, 100.0, Some(5));
    assert_eq!(jittered, schedule(0.1, 100.0, Some(5)), "same seed, same due times");
    assert_ne!(jittered, schedule(0.1, 100.0, Some(6)));
    assert_eq!(jittered.len(), 1000);
    for (k, &t) in jittered.iter().enumerate() {
        assert!((k as f64 * 0.1..(k + 1) as f64 * 0.1).contains(&t), "batch {k} due at {t}");
    }
    assert!(schedule(0.3, 1.0, Some(1)).iter().all(|&t| t < 1.0));
}
