//! The repository benchmark: four named workloads over the Data Bubbles
//! workspace, end-to-end metrics from untraced runs and per-layer metrics
//! from a traced run. See `README.md` for the metric definitions.

pub mod batch;
pub mod data;
pub mod fingerprint;
pub mod http;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
