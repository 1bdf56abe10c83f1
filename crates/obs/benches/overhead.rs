//! Benchmark guard: instrumentation cost per operation.
//!
//! ```text
//! cargo bench -p db-obs --bench overhead
//! ```
//!
//! Prints the per-op cost of a counter, a histogram and a span, then runs
//! a realistic chunked workload (simulating a pipeline phase that does
//! ~20k arithmetic ops per instrumented chunk) bare, instrumented and
//! under idle supervision. It asserts supervised/bare stays under 1.05,
//! and instrumented/bare too whenever per-event recording is not active,
//! i.e. with tracing runtime-disabled (`DB_TRACE` unset).
//!
//! The three loops run interleaved, one pass of each per round, and each
//! guard gates on the median of its per-round ratios: every ratio divides
//! two passes timed back to back, so machine drift over the run (clock
//! scaling, a noisy neighbour) cancels instead of reading as overhead.

use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 10_000_000;

/// Median-of-5 ns/op of `f` over `ITERS` iterations.
fn measure(f: impl Fn(u64)) -> f64 {
    let mut runs = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..ITERS {
            f(black_box(i));
        }
        runs.push(start.elapsed().as_secs_f64() * 1e9 / ITERS as f64);
    }
    median(runs)
}

fn main() {
    let baseline = measure(|i| {
        black_box(i.wrapping_mul(31));
    });
    let counter = measure(|i| {
        db_obs::counter!("bench.overhead_counter").add(i & 1);
        black_box(());
    });
    let histogram = measure(|i| {
        db_obs::histogram!("bench.overhead_histogram").record((i & 0xff) as f64);
        black_box(());
    });
    let span = measure(|_| {
        let _span = db_obs::span!("bench.overhead_span");
        black_box(());
    });

    println!("overhead, ns/op, median of 5 x {ITERS} iters:");
    println!("  baseline (mul)     {baseline:8.3}");
    println!("  counter.add        {:8.3} (+{:.3})", counter, counter - baseline);
    println!("  histogram.record   {:8.3} (+{:.3})", histogram, histogram - baseline);
    println!("  span enter/drop    {:8.3} (+{:.3})", span, span - baseline);

    workload_guard();
}

/// One "chunk" of pipeline-shaped work: ~20k dependent arithmetic ops,
/// the coarsest granularity at which the real pipelines wrap spans
/// around work (a worker's chunk of points, not a single distance).
#[inline(never)]
fn chunk(seed: u64) -> u64 {
    let mut acc = seed | 1;
    for i in 0..20_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

const CHUNKS: u64 = 2_000;
const ROUNDS: usize = 15;

/// Seconds for one pass of `CHUNKS` evaluations of `f`.
fn time_pass(seed: u64, mut f: impl FnMut(u64) -> u64) -> f64 {
    let start = Instant::now();
    let mut acc = seed;
    for c in 0..CHUNKS {
        acc = f(black_box(acc ^ c));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The chunk wrapped in the instrumentation a pipeline worker carries:
/// a span, a counter and a (runtime-disabled) trace instant.
fn instrumented(seed: u64) -> u64 {
    let _span = db_obs::span!("bench.workload_chunk");
    db_obs::counter!("bench.workload_items").add(1);
    db_obs::trace_instant!("bench.workload_mark", "chunk", seed & 0xff);
    chunk(seed)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs the bare, instrumented and supervised loops interleaved and
/// asserts each instrumented variant is within 5% of the bare one.
///
/// Instrumented: recording stays runtime-disabled here (the bench never
/// sets `DB_TRACE` or calls `set_enabled(true)`), so the only cost on top
/// of plain metrics is one predictable branch per span.
///
/// Supervised: the span and counter under an armed-but-idle supervisor
/// (no deadline, token never cancelled — the default for every pipeline
/// run without a budget). The per-chunk cost is one `Ticker::tick` — a
/// decrement and, every 64 chunks, a relaxed atomic load plus an
/// `Instant::now` — which is the densest check cadence the pipelines use
/// relative to their chunk sizes.
fn workload_guard() {
    use db_supervise::{Supervisor, Ticker};

    // Warm the callsite caches outside the timed region.
    {
        let _s = db_obs::span!("bench.workload_chunk");
        db_obs::counter!("bench.workload_items").add(0);
        db_obs::trace_instant!("bench.workload_mark", "chunk", 0u64);
    }
    let sup = Supervisor::unlimited();
    let mut ticker = Ticker::new(&sup, 64);
    // Warm: first tick consults the supervisor immediately.
    assert!(ticker.tick().is_ok());
    let mut supervised = |seed: u64| {
        if ticker.tick().is_err() {
            unreachable!("unlimited supervisor never stops");
        }
        let _span = db_obs::span!("bench.workload_chunk");
        db_obs::counter!("bench.workload_items").add(1);
        chunk(seed)
    };

    let (mut bare_s, mut instr_ratios, mut sup_ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        // Rotate the order so no variant always runs first in a round.
        let mut t = [0.0f64; 3];
        for slot in 0..3 {
            let which = (round + slot) % 3;
            let seed = round as u64;
            t[which] = match which {
                0 => time_pass(seed, chunk),
                1 => time_pass(seed, instrumented),
                _ => time_pass(seed, &mut supervised),
            };
        }
        let [bare, instr, sup] = t;
        bare_s.push(bare);
        instr_ratios.push(instr / bare);
        sup_ratios.push(sup / bare);
    }
    let instr_ratio = median(instr_ratios);
    let sup_ratio = median(sup_ratios);

    println!("workload, median of {ROUNDS} interleaved rounds x {CHUNKS} chunks:");
    println!("  bare               {:8.4} s", median(bare_s));
    println!("  instrumented/bare  {instr_ratio:8.4} (tracing runtime-disabled)");
    println!("  supervised/bare    {sup_ratio:8.4} (idle supervision)");

    if !db_obs::trace::enabled() {
        assert!(
            instr_ratio <= 1.05,
            "instrumented/bare ratio {instr_ratio:.4} exceeds 1.05 with recording inactive"
        );
        println!(
            "guard passed: instrumentation overhead {:.2}% <= 5%",
            (instr_ratio - 1.0) * 100.0
        );
    }
    assert!(
        sup_ratio <= 1.05,
        "supervised/bare ratio {sup_ratio:.4} exceeds 1.05 with no budget set"
    );
    println!("guard passed: idle supervision overhead {:.2}% <= 5%", (sup_ratio - 1.0) * 100.0);
}
