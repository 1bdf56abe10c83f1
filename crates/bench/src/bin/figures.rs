//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures [--scale quick|default|paper] [--out DIR] [--seed N] [--threads N]
//!         [--trace-out FILE] [--serve ADDR] [--serve-linger SECS] <figure>...|all
//! ```
//!
//! Reports are written to `<out>/<figure>.txt` (+ `.json` series) and
//! echoed to stdout. Each figure also prints the db-obs metrics table and
//! writes `<out>/<figure>.metrics.jsonl`;
//! metrics are reset between figures so each file covers one figure only.
//!
//! `--trace-out` records event-level traces (Chrome trace JSON, open in
//! Perfetto / `chrome://tracing`); `--serve` exposes live `/metrics`,
//! `/trace` and `/healthz` while the figures run (see `db-obsd`).

use std::path::PathBuf;
use std::process::ExitCode;

use db_bench::config::{RunConfig, Scale};
use db_bench::telemetry::TelemetryOptions;
use db_bench::{run_figure, ALL_FIGURES};

fn usage() -> String {
    format!(
        "usage: figures [--scale quick|default|paper] [--out DIR] [--seed N] [--threads N] \
         [--trace-out FILE] [--serve ADDR] [--serve-linger SECS] <figure>...|all\n\
         figures: {}",
        ALL_FIGURES.join(", ")
    )
}

fn main() -> ExitCode {
    let mut cfg = RunConfig::default();
    let mut telemetry_opts = TelemetryOptions::default();
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match telemetry_opts.consume_arg(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        match arg.as_str() {
            "--scale" => {
                let Some(v) = args.next().and_then(|v| Scale::parse(&v)) else {
                    eprintln!("--scale needs one of quick|default|paper\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg.scale = v;
            }
            "--out" => {
                let Some(v) = args.next() else {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg.out_dir = PathBuf::from(v);
            }
            "--seed" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg.seed = v;
            }
            "--threads" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threads needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                cfg.threads = Some(v);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_FIGURES.iter().map(|s| s.to_string()).collect();
    }

    // A busy port (or any bind failure) is an expected operational error:
    // report it cleanly instead of panicking.
    let telemetry = match telemetry_opts.start() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    };

    for t in &targets {
        println!("\n================ {t} ================");
        let started = std::time::Instant::now();
        db_obs::reset();
        if let Err(e) = run_figure(t, &cfg) {
            eprintln!("{t} failed: {e}");
            return ExitCode::FAILURE;
        }
        println!("[{t} done in {:.1}s]", started.elapsed().as_secs_f64());
        let snap = db_obs::snapshot();
        if !snap.is_empty() {
            println!("\n-- metrics ({t}) --");
            print!("{}", db_obs::render_table(&snap));
            let path = cfg.out_dir.join(format!("{t}.metrics.jsonl"));
            if let Err(e) = std::fs::write(&path, db_obs::json_lines(&snap)) {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = telemetry.finish() {
        eprintln!("figures: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
