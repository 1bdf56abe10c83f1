//! Distance-kernel benchmark: scalar loop vs the batched, cache-blocked
//! kernels in `db_spatial::kernels`, per dimensionality.
//!
//! ```text
//! cargo bench -p db-bench --bench distance_kernels
//! ```
//!
//! The scalar baseline is a local reimplementation of the historic
//! strict left-to-right accumulation loop (the order `Metric::dist` used
//! before the kernels): its loop-carried dependency chain is exactly
//! what the kernels' fixed 4-lane reduction breaks, so the comparison
//! isolates the reduction-order change the kernels bought.
//!
//! Ends with `kernel_guard`: the d=8 one-to-many kernel must beat the
//! scalar loop by ≥1.3×. On single-CPU runners a failing ratio is
//! reported as a skip (noisy shared cores make the ratio unstable), not
//! an error; on anything bigger it aborts the bench. The end-to-end
//! effect of the kernels on classification and on a full pipeline is
//! timed by `perfbench` (`gauss20-k256`, `ds1-f1000`).

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use db_spatial::kernels::dists_to_block;

/// The historic scalar distance: strict left-to-right accumulation.
#[inline(never)]
fn scalar_sq(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

fn rand_block(rng: &mut db_rng::Rng, rows: usize, dim: usize) -> Vec<f64> {
    (0..rows * dim).map(|_| rng.gen_f64(-100.0, 100.0)).collect()
}

/// Median-of-`reps` seconds of `f`.
fn median_s(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut runs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        runs.push(t0.elapsed().as_secs_f64());
    }
    runs.sort_by(f64::total_cmp);
    runs[reps / 2]
}

/// ns/distance of the scalar loop and the block kernel on one query vs
/// `rows` points of dimension `dim`, plus the scalar/kernel ratio.
fn per_dim(rng: &mut db_rng::Rng, dim: usize, rows: usize, passes: usize) -> (f64, f64, f64) {
    let q = rand_block(rng, 1, dim);
    let block = rand_block(rng, rows, dim);
    let mut out = vec![0.0f64; rows];
    let n_dists = (rows * passes) as f64;

    let scalar_s = median_s(5, || {
        let mut acc = 0.0;
        for _ in 0..passes {
            for (r, o) in block.chunks_exact(dim).zip(out.iter_mut()) {
                *o = scalar_sq(black_box(&q), black_box(r));
            }
            acc += out[rows - 1];
        }
        acc
    });
    let kernel_s = median_s(5, || {
        let mut acc = 0.0;
        for _ in 0..passes {
            dists_to_block(black_box(&q), black_box(&block), dim, &mut out);
            acc += out[rows - 1];
        }
        acc
    });
    (scalar_s * 1e9 / n_dists, kernel_s * 1e9 / n_dists, scalar_s / kernel_s)
}

fn main() -> ExitCode {
    let mut rng = db_rng::Rng::seed_from_u64(9);
    let rows = 2048usize;
    let passes = 200usize;

    // Per-dimension throughput: the specialised small dims, the d=8
    // guard point, and two chunked general dims.
    println!("one-to-many, {rows} rows x {passes} passes, ns/dist (median of 5):");
    let mut guard_ratio = 0.0;
    for dim in [2usize, 3, 4, 8, 16, 32] {
        let (scalar_ns, kernel_ns, ratio) = per_dim(&mut rng, dim, rows, passes);
        println!(
            "  d={dim:>2}: scalar {scalar_ns:7.3}  kernel {kernel_ns:7.3}  speedup {ratio:5.2}x"
        );
        if dim == 8 {
            guard_ratio = ratio;
        }
    }

    // kernel_guard: the batched kernel must actually pay for itself.
    const GUARD_MIN_RATIO: f64 = 1.3;
    let single_cpu = std::thread::available_parallelism().map(|p| p.get() <= 1).unwrap_or(false);
    if guard_ratio >= GUARD_MIN_RATIO {
        println!("kernel_guard passed: d=8 kernel {guard_ratio:.2}x >= {GUARD_MIN_RATIO}x scalar");
    } else if single_cpu {
        println!(
            "kernel_guard SKIPPED: d=8 ratio {guard_ratio:.2}x < {GUARD_MIN_RATIO}x on a \
             single-CPU runner — timings on shared single cores are too noisy to gate on"
        );
    } else {
        eprintln!(
            "kernel_guard FAILED: d=8 kernel only {guard_ratio:.2}x scalar \
             (need {GUARD_MIN_RATIO}x)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
