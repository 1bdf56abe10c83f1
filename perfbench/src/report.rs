//! Metric names, the result line and process-level measurements.

use db_obs::Json;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// in an untraced run; their meaning per workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pipeline_s", "s"),
    ("quality_ari", "ARI"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ingest_max_pts_s", "pts/s"),
    ("freshness_p50_s", "s"),
    ("freshness_p90_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// in a traced run; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("label_p50_ms", "ms"),
    ("label_p99_ms", "ms"),
    ("spatial.dist_evals_per_point", "count"),
    ("spatial.nodes_visited_per_point", "count"),
    ("spatial.scan_fraction", "ratio"),
    ("spatial.nearest_us", "us"),
    ("spatial.index_build_s", "s"),
    ("sampling.compress_s", "s"),
    ("sampling.nn_classify_s", "s"),
    ("sampling.accumulate_stats_s", "s"),
    ("sampling.absorb_pts_per_s", "pts/s"),
    ("core.matrix_build_s", "s"),
    ("core.matrix_bytes", "bytes"),
    ("core.expand_s", "s"),
    ("core.recluster_s", "s"),
    ("optics.walk_s", "s"),
    ("optics.distance_calls", "count"),
    ("optics.neighborhood_queries", "count"),
    ("optics.seed_updates", "count"),
    ("hierarchical.dendrogram_s", "s"),
    ("serve.ingest_call_ms", "ms"),
    ("serve.label_call_us", "us"),
    ("serve.artifact_build_s", "s"),
    ("serve.reclusters_completed", "count"),
    ("http.json_parse_ms", "ms"),
    ("http.ingest_overhead_ms", "ms"),
    ("http.label_overhead_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_batches", "count"),
    ("loadgen.label_samples", "count"),
    ("loadgen.freshness_samples", "count"),
];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (pipeline runs and requests).
    pub attempted: u64,
    /// Operations that failed: an `Err`, a refused request or a timeout.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The result line: every metric of `names`, in order, and whether
    /// the run was correct. A layer metric the workload never recorded
    /// reads 0 (`fill_missing`); a missing or non-finite end-to-end metric
    /// marks the run incorrect.
    pub fn result_line(&self, names: &[(&str, &str)], fill_missing: bool) -> (bool, String) {
        let mut correct = self.correct;
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                None if fill_missing => 0.0,
                other => {
                    eprintln!("metric {name} is {other:?}: run marked incorrect");
                    correct = false;
                    0.0
                }
            };
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        let line = Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render();
        (correct, line)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Makes every thread allocate from one malloc arena (glibc's
/// `M_ARENA_MAX`), so `peak_rss_mb` counts the program's memory rather
/// than per-thread arena slack. With the default of up to eight arenas per
/// CPU, the serving workload's short-lived connection and recluster
/// threads left 25–45 % of its peak in idle arenas, and that share moved
/// with thread timing: 165–212 MB over five seeds, against 115–125 MB with
/// one arena. The batch workloads keep the default: there two pipeline
/// threads allocating at once slowed `ds1-f1000` by 1.6–2× on one arena,
/// and their peaks already held within 1 %. Call it before any thread
/// starts.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets an allocator tunable, and no other
        // thread exists yet to allocate concurrently.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Number of CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Writes a traced run's report under `perfbench/out/`.
pub fn write_trace(workload: &str, seed: u64, doc: &Json) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}
