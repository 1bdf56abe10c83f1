//! Quickstart: compress a data set into Data Bubbles, run OPTICS on the
//! bubbles, and recover the full clustering structure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Pass `--trace-out run.trace.json` to record an event-level trace of
//! the run and write it as Chrome trace JSON (open in Perfetto or
//! `chrome://tracing`); `DB_TRACE=1` in the environment does the same
//! recording without the file.

use data_bubbles::pipeline::optics_sa_bubbles;
use db_datagen::{ds2, Ds2Params};
use db_eval::adjusted_rand_index;
use db_optics::{extract_dbscan, optics_points, OpticsParams};

fn main() {
    let trace_out = {
        let mut args = std::env::args().skip(1);
        match (args.next().as_deref().map(str::to_owned), args.next()) {
            (Some(flag), Some(path)) if flag == "--trace-out" => Some(path),
            (None, _) => None,
            _ => {
                eprintln!("usage: quickstart [--trace-out FILE]");
                std::process::exit(2);
            }
        }
    };
    if trace_out.is_some() {
        db_obs::trace::set_enabled(true);
    }
    // A 50,000-point data set with five Gaussian clusters (the paper's DS2,
    // scaled down 2x).
    let data = ds2(&Ds2Params { n: 50_000, ..Ds2Params::default() }, 42);
    println!("data set: {} points in {} clusters", data.len(), data.n_clusters());

    // --- The expensive way: OPTICS on all 50,000 points. ---------------
    let params = OpticsParams { eps: 7.0, min_pts: 10 };
    let t = std::time::Instant::now();
    let full = optics_points(&data.data, &params);
    let full_time = t.elapsed();
    let full_labels = extract_dbscan(&full, 2.0, data.len());
    println!(
        "full OPTICS:     {:>8.3}s   ARI vs truth = {:.3}",
        full_time.as_secs_f64(),
        adjusted_rand_index(&data.labels, &full_labels)
    );

    // --- The Data Bubbles way: 250 bubbles (compression factor 200). ---
    let bubble_params = OpticsParams { eps: f64::INFINITY, min_pts: 10 };
    let t = std::time::Instant::now();
    let out = optics_sa_bubbles(&data.data, 250, 42, &bubble_params)
        .expect("valid pipeline configuration");
    let bubble_time = t.elapsed();

    // The expanded ordering contains *every* original object, in cluster
    // order, with estimated reachabilities — cut it like a normal plot.
    let expanded = out.expanded.as_ref().expect("bubble pipelines expand");
    assert_eq!(expanded.len(), data.len());
    let labels = expanded.extract_dbscan(2.0);
    println!(
        "SA-Bubbles:      {:>8.3}s   ARI vs truth = {:.3}   speed-up = {:.0}x",
        bubble_time.as_secs_f64(),
        adjusted_rand_index(&data.labels, &labels),
        full_time.as_secs_f64() / bubble_time.as_secs_f64()
    );
    println!(
        "agreement with the full run: ARI = {:.3}",
        adjusted_rand_index(&full_labels, &labels)
    );

    // Cluster sizes recovered from 0.5% of the data:
    let mut sizes = std::collections::HashMap::new();
    for &l in &labels {
        if l >= 0 {
            *sizes.entry(l).or_insert(0usize) += 1;
        }
    }
    let mut sizes: Vec<usize> = sizes.into_values().collect();
    sizes.sort_unstable();
    println!("recovered cluster sizes: {sizes:?} (truth: 5 x 10,000)");

    // --- The same run under a budget. ----------------------------------
    // A deadline aborts (or degrades, via run_pipeline_supervised) a run
    // that overruns it. A generous value here, so this run completes
    // untouched; shrink the deadline to see a typed
    // `PipelineError::DeadlineExceeded` instead of a hung process.
    use data_bubbles::pipeline::{
        run_pipeline_supervised, Compressor, PipelineConfig, Recovery, RunBudget,
    };
    let mut cfg =
        PipelineConfig::new(250, Compressor::Sample { seed: 42 }, Recovery::Bubbles, bubble_params);
    cfg.budget = RunBudget::with_deadline(std::time::Duration::from_secs(60));
    match run_pipeline_supervised(&data.data, &cfg) {
        Ok(budgeted) => {
            let budgeted_labels =
                budgeted.expanded.as_ref().expect("bubble pipelines expand").extract_dbscan(2.0);
            println!(
                "under budget:    degradations = {}   agreement with unbudgeted run: ARI = {:.3}",
                budgeted.degradations.len(),
                adjusted_rand_index(&labels, &budgeted_labels)
            );
        }
        Err(e) => println!("under budget:    did not finish: {e}"),
    }

    if let Some(path) = trace_out {
        let json = db_obs::trace_json(&db_obs::trace::events());
        std::fs::write(&path, &json).expect("write trace file");
        println!(
            "wrote event trace to {path} ({} bytes — open in Perfetto / chrome://tracing)",
            json.len()
        );
    }
}
