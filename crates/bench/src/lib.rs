//! The experiment harness of the Data Bubbles reproduction.
//!
//! The paper's evaluation consists of Figures 4, 6, 7, 9, 10 and 14–22
//! (there are no numbered tables). For each figure this crate provides a
//! runner that regenerates the figure's rows/series — reachability plots
//! are rendered as ASCII sparkline panels, runtime figures as text tables —
//! and writes them under `results/`.
//!
//! Run everything with
//!
//! ```text
//! cargo run --release -p db-bench --bin figures -- all
//! ```
//!
//! or a single figure with `-- fig16`, at a different scale with
//! `-- --scale quick all` (see [`config::Scale`]). Benches mirroring the
//! runtime figures live in `benches/` (run with `cargo bench -p db-bench`).

#![warn(missing_docs)]

pub mod ascii;
pub mod config;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod telemetry;

use std::io;

use config::RunConfig;

/// All figure ids known to the harness, in paper order.
pub const ALL_FIGURES: &[&str] = &[
    "fig4",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "ablations",
    "ext_compressors",
    "ext_hierarchy",
];

/// Runs one figure by id. Returns an error for unknown ids.
pub fn run_figure(id: &str, cfg: &RunConfig) -> io::Result<()> {
    match id {
        "fig4" => experiments::fig4::run(cfg),
        "fig6" => experiments::fig6_7::run_fig6(cfg),
        "fig7" => experiments::fig6_7::run_fig7(cfg),
        "fig9" => experiments::fig9_10::run_fig9(cfg),
        "fig10" => experiments::fig9_10::run_fig10(cfg),
        "fig14" => experiments::fig14_15::run_fig14(cfg),
        "fig15" => experiments::fig14_15::run_fig15(cfg),
        "fig16" => experiments::fig16::run(cfg),
        "fig17" => experiments::fig17::run(cfg),
        "fig18" => experiments::fig18::run(cfg),
        "fig19" => experiments::fig19::run(cfg),
        "fig20" => experiments::fig20::run(cfg),
        "fig21" => experiments::fig21_22::run_fig21(cfg),
        "fig22" => experiments::fig21_22::run_fig22(cfg),
        "ablations" => experiments::ablations::run(cfg),
        "ext_compressors" => experiments::extensions::run_compressors(cfg),
        "ext_hierarchy" => experiments::extensions::run_hierarchy(cfg),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown figure id '{other}'; known: {}", ALL_FIGURES.join(", ")),
        )),
    }
}
