//! Batch workloads: `run_pipeline` at its shipped defaults on one
//! generated database (OPTICS-SA-Bubbles, `Compressor::Sample`,
//! `Recovery::Bubbles`, ε = ∞, MinPts from the dataset's setup, default
//! threads and matrix cap, no budget).

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

use data_bubbles::pipeline::{
    expand_bubbles, run_pipeline, Compressor, ExpandedOrdering, PipelineConfig, PipelineOutput,
    Recovery,
};
use data_bubbles::{BubbleSpace, DataBubble};
use db_bench::experiments::common::{ds1_setup, family_setup, Setup};
use db_datagen::{ds1, gaussian_family, Ds1Params, GaussianFamilyParams, LabeledDataset};
use db_eval::adjusted_rand_index;
use db_obs::Json;
use db_optics::{extract_dbscan, optics};
use db_sampling::{accumulate_stats_parallel, compress_by_sampling_threaded, nn_classify_parallel};
use db_spatial::{auto_index, Dataset, SpatialIndex};

use crate::data::{derive_seed, split_holdout, Split};
use crate::fingerprint::{expansions_identical, fingerprint, orderings_identical};
use crate::report::{nproc, peak_rss_mb, write_trace, Outcome};
use crate::spans::Recorder;
use crate::stats::{median, percentile, quantile};

/// Held-out points labelled against each run's result, all of them in
/// each label request: new points are labelled in batches, through the
/// same classification entry point the pipeline uses, which takes its
/// parallel route at this size.
pub const PROBES: usize = 4_096;

/// Label requests in the traced run: enough for ten beyond the p99.
const TRACED_LABELS: usize = 1_024;

/// Passes over the probes for the per-query `nearest` cost.
const NEAREST_PASSES: usize = 16;

/// Cuts, as multiples of the dataset's setup cut, at which the expanded
/// ordering is flattened for `quality_ari`.
const CUT_FACTORS: [f64; 5] =
    [0.5, std::f64::consts::FRAC_1_SQRT_2, 1.0, std::f64::consts::SQRT_2, 2.0];

/// Times the input `Dataset` is built per run; `setup_s` is the median.
const SETUP_REPS: usize = 25;

/// Pipeline repetitions always run, whatever `--seconds` says.
const MIN_REPS: usize = 2;

/// The generator behind a batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// The paper's DS1 (2-d, nested clusters over a noise floor).
    Ds1,
    /// The §9.1 dimension-scaling Gaussian family at d = 20.
    Gauss20,
}

/// One batch operating point.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Data generator.
    pub data: Data,
    /// Objects in the database.
    pub n: usize,
    /// Number of Data Bubbles.
    pub k: usize,
}

/// The batch workloads.
pub const WORKLOADS: [Workload; 3] = [
    // Compression-bound: k > 256 takes the kd-tree classify route, which is most of the run; a clustering-layer change should show no change here.
    Workload { name: "ds1-f1000", data: Data::Ds1, n: 1_000_000, k: 1_000 },
    // Clustering-bound: the only workload where the k² bubble-distance matrix dominates time and memory; a matrix replacement has to win here.
    // n = 5·10⁵, k = 5 000 keeps the compression factor at 100 and the matrix (300 MB, ~77 % of the run) dominant, with about 12 repetitions per 25 s run to take a median over; at n = 10⁶, k = 10⁴ a run held 3 repetitions of 8 s, and the median of 10 runs spread by 0.19–0.28.
    Workload { name: "ds1-f100", data: Data::Ds1, n: 500_000, k: 5_000 },
    // The only workload on the dense-kernel classify route (k ≤ NN_KERNEL_MAX_REPS) at d = 20, where classification is the whole run: the bypass side for index and matrix changes.
    Workload { name: "gauss20-k256", data: Data::Gauss20, n: 1_000_000, k: 256 },
];

impl Workload {
    /// OPTICS parameters and extraction cut for this database.
    pub fn setup(&self, n: usize) -> Setup {
        match self.data {
            Data::Ds1 => ds1_setup(n),
            Data::Gauss20 => family_setup(n, 20),
        }
    }

    /// Generates `n` labelled objects from `seed`.
    pub fn generate(&self, n: usize, seed: u64) -> LabeledDataset {
        match self.data {
            Data::Ds1 => ds1(&Ds1Params { n, ..Ds1Params::default() }, seed),
            Data::Gauss20 => {
                gaussian_family(&GaussianFamilyParams { n, dim: 20, ..Default::default() }, seed)
            }
        }
    }

    /// The pipeline configuration at the shipped defaults.
    pub fn config(&self, n: usize, seed: u64) -> PipelineConfig {
        PipelineConfig::new(
            self.k,
            Compressor::Sample { seed: derive_seed(seed, 3) },
            Recovery::Bubbles,
            self.setup(n).bubble_optics(),
        )
    }
}

/// Generated inputs of one run.
struct Inputs {
    dim: usize,
    split: Split,
}

fn inputs(w: &Workload, n: usize, seed: u64) -> Inputs {
    let all = w.generate(n + PROBES, derive_seed(seed, 1));
    let split = split_holdout(&all, PROBES, derive_seed(seed, 2));
    Inputs { dim: all.data.dim(), split }
}

/// Builds the input `Dataset` through the validated constructor
/// `SETUP_REPS` times; returns the last one and the median build time.
fn build_dataset(inp: &Inputs) -> Result<(Dataset, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let flat = inp.split.flat.clone();
        drop(built.take());
        let t = Instant::now();
        let ds = Dataset::from_flat(inp.dim, flat).map_err(|e| format!("dataset: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        built = Some(ds);
    }
    let ds = built.ok_or("no dataset built")?;
    Ok((ds, median(&times)))
}

/// The best ARI against `truth` of the expansion flattened at each of
/// [`CUT_FACTORS`] times `cut`. At the setup cut alone DS1 at k = 10⁴ sits
/// on a cliff: one seed reads 0.55, the next 0.31, with the structure in
/// the ordering unchanged.
fn best_ari(expanded: &ExpandedOrdering, cut: f64, truth: &[i32]) -> f64 {
    CUT_FACTORS
        .iter()
        .map(|f| adjusted_rand_index(&expanded.extract_dbscan(cut * f), truth))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Sends `count` label requests: each classifies the probes to their
/// nearest representative and reads off that representative's cluster
/// label. Returns the latencies in ms.
fn label_latencies(
    reps: &Dataset,
    labels: &[i32],
    probes: &Dataset,
    count: usize,
    threads: Option<NonZeroUsize>,
) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let t = Instant::now();
            let nearest = nn_classify_parallel(probes, reps, threads);
            black_box(nearest.iter().map(|&r| labels[r as usize]).max());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Runs one batch workload; `trace` selects the per-layer run.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let inp = inputs(w, w.n, seed);
    let (ds, setup_s) = build_dataset(&inp)?;
    let cfg = w.config(w.n, seed);
    eprintln!(
        "{}: n={} d={} k={} min_pts={} nproc={} threads=default",
        w.name,
        ds.len(),
        ds.dim(),
        w.k,
        cfg.optics.min_pts,
        nproc()
    );
    if trace {
        traced(w, &inp, &ds, &cfg, seed)
    } else {
        untraced(w, &inp, ds, &cfg, setup_s, seconds)
    }
}

fn untraced(
    w: &Workload,
    inp: &Inputs,
    ds: Dataset,
    cfg: &PipelineConfig,
    setup_s: f64,
    seconds: f64,
) -> Result<Outcome, String> {
    db_obs::trace::set_enabled(false);
    let mut o = Outcome { correct: true, ..Outcome::default() };
    let started = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<(PipelineOutput, u64)> = None;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let next = times.last().copied().unwrap_or(0.0);
        if times.len() >= MIN_REPS && elapsed + next > seconds {
            break;
        }
        o.attempted += 1;
        let t = Instant::now();
        let out = run_pipeline(&ds, cfg);
        let dt = t.elapsed().as_secs_f64();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                // The pipeline is deterministic: a failed run would fail again.
                eprintln!("pipeline failed: {e}");
                o.failed += 1;
                break;
            }
        };
        times.push(dt);
        let fp = fingerprint(&out.rep_ordering, out.expanded.as_ref());
        match &first {
            None => first = Some((out, fp)),
            Some((_, want)) if *want != fp => {
                eprintln!("repetition {} fingerprint {fp:016x} != {want:016x}", times.len());
                o.correct = false;
            }
            Some(_) => {}
        }
    }
    let Some((out, fp)) = first else {
        return Err("no pipeline run succeeded".into());
    };
    eprintln!(
        "{}: {} repetitions, fingerprint {fp:016x}, times {:?}",
        w.name,
        times.len(),
        times.iter().map(|t| format!("{t:.3}")).collect::<Vec<_>>()
    );
    let expanded = out.expanded.as_ref().ok_or("bubble recovery returned no expansion")?;
    let ari = best_ari(expanded, w.setup(ds.len()).cut, &inp.split.labels);

    let pipeline_s = median(&times);
    let fresh: Vec<f64> = times.iter().map(|t| setup_s + t).collect();
    o.set("pipeline_s", pipeline_s);
    o.set("quality_ari", ari);
    o.set("setup_s", setup_s);
    o.set("peak_rss_mb", peak_rss_mb()?);
    o.set("ingest_max_pts_s", ds.len() as f64 / pipeline_s);
    o.set("freshness_p50_s", quantile(&fresh, 0.5));
    o.set("freshness_p90_s", quantile(&fresh, 0.9));
    Ok(o)
}

fn seed_of(cfg: &PipelineConfig) -> u64 {
    match cfg.compressor {
        Compressor::Sample { seed } => seed,
        _ => unreachable!("batch workloads sample"),
    }
}

/// The per-layer run: the pipeline's stages called one after another,
/// each in its own span, then `run_pipeline` untraced for the bit-for-bit
/// comparison and the tracing overhead.
fn traced(
    w: &Workload,
    inp: &Inputs,
    ds: &Dataset,
    cfg: &PipelineConfig,
    seed: u64,
) -> Result<Outcome, String> {
    let mut o = Outcome { correct: true, ..Outcome::default() };
    let run_id = db_obs::RunId::next().get();
    let mut rec = Recorder::new(run_id);
    let setup = w.setup(ds.len());
    db_obs::trace::clear();
    db_obs::trace::set_enabled(true);
    let stitched = rec.span("pipeline", |rec| -> Result<_, String> {
        let c = rec.span("sampling.compress", |_| {
            compress_by_sampling_threaded(ds, w.k, seed_of(cfg), cfg.threads)
        });
        let c = c.map_err(|e| format!("compress: {e}"))?;
        let assignment =
            rec.span("sampling.nn_classify", |_| nn_classify_parallel(ds, &c.reps, cfg.threads));
        let stats = rec.span("sampling.accumulate_stats", |_| {
            accumulate_stats_parallel(ds, &assignment, c.reps.len(), cfg.threads)
        });
        if assignment != c.assignment || stats.len() != c.stats.len() {
            return Err("classification probes disagree with the compression".into());
        }
        let mut space = rec.span("core.bubble_space", |_| -> Result<_, String> {
            let bubbles: Vec<DataBubble> = c
                .stats
                .iter()
                .map(DataBubble::try_from_cf)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("bubble: {e}"))?;
            BubbleSpace::try_new(bubbles).map_err(|e| format!("bubble space: {e}"))
        })?;
        let built = rec
            .span("core.matrix_build", |_| space.precompute_matrix(cfg.threads, cfg.matrix_max_k));
        let ordering = rec.span("optics.walk", |_| optics(&space, &cfg.optics));
        let expanded = rec.span("core.expand", |_| {
            let mut members = vec![Vec::new(); c.reps.len()];
            for (i, &a) in c.assignment.iter().enumerate() {
                members[a as usize].push(i);
            }
            expand_bubbles(&ordering, &members, &space, cfg.optics.min_pts)
        });
        Ok((c.reps, ordering, expanded, built))
    })?;
    let program_events = db_obs::trace::events().len();
    db_obs::trace::set_enabled(false);
    let (reps, ordering, expanded, matrix_built) = stitched;

    let t = Instant::now();
    let out = run_pipeline(ds, cfg).map_err(|e| format!("pipeline: {e}"))?;
    let untraced_s = t.elapsed().as_secs_f64();
    o.attempted += 1;
    let same = orderings_identical(&ordering, &out.rep_ordering)
        && out.expanded.as_ref().is_some_and(|x| expansions_identical(&expanded, x));
    if !same {
        eprintln!("stitched stages differ from run_pipeline");
        o.correct = false;
    }

    let index = rec.span("spatial.index_build", |_| auto_index(&reps, None));
    let probes = &inp.split.held_out;
    let queries = rec.span("spatial.nearest", |_| {
        let mut found = 0usize;
        for p in (0..NEAREST_PASSES).flat_map(|_| probes.iter()) {
            found += usize::from(black_box(index.nearest(&reps, p)).is_some());
        }
        found
    });
    if queries != NEAREST_PASSES * probes.len() {
        return Err("a nearest-representative query found nothing".into());
    }
    let labels = extract_dbscan(&out.rep_ordering, setup.cut, reps.len());
    let lat = label_latencies(&reps, &labels, probes, TRACED_LABELS, cfg.threads);
    o.attempted += lat.len() as u64;

    // The stages `run_pipeline` itself runs; the classify and accumulate
    // probes are extra calls and stay out of the comparison.
    let traced_s = [
        "sampling.compress",
        "core.bubble_space",
        "core.matrix_build",
        "optics.walk",
        "core.expand",
    ]
    .iter()
    .map(|s| rec.seconds(s))
    .sum::<f64>();
    let classify = rec.get("sampling.nn_classify").ok_or("classify span missing")?;
    let n = ds.len() as f64;
    let dist_evals = classify.delta("spatial.dist_evals") as f64;
    o.set("spatial.dist_evals_per_point", dist_evals / n);
    o.set("spatial.nodes_visited_per_point", classify.delta("spatial.nodes_visited") as f64 / n);
    o.set("spatial.scan_fraction", dist_evals / (reps.len() as f64 * n));
    o.set("spatial.nearest_us", rec.seconds("spatial.nearest") * 1e6 / queries as f64);
    o.set("spatial.index_build_s", rec.seconds("spatial.index_build"));
    o.set("label_p50_ms", percentile(&lat, 50.0).map_or(0.0, |p| p.value));
    o.set("label_p99_ms", percentile(&lat, 99.0).map_or(0.0, |p| p.value));
    o.set("sampling.compress_s", rec.seconds("sampling.compress"));
    o.set("sampling.nn_classify_s", rec.seconds("sampling.nn_classify"));
    o.set("sampling.accumulate_stats_s", rec.seconds("sampling.accumulate_stats"));
    let matrix = rec.get("core.matrix_build").ok_or("matrix span missing")?;
    o.set("core.matrix_build_s", matrix.duration_s());
    let bytes = if matrix_built { matrix.gauge("optics.matrix_bytes").unwrap_or(0) } else { 0 };
    o.set("core.matrix_bytes", bytes as f64);
    o.set("core.expand_s", rec.seconds("core.expand"));
    let walk = rec.get("optics.walk").ok_or("walk span missing")?;
    o.set("optics.walk_s", walk.duration_s());
    o.set("optics.distance_calls", walk.delta("optics.distance_calls") as f64);
    o.set("optics.neighborhood_queries", walk.delta("optics.neighborhood_queries") as f64);
    o.set("optics.seed_updates", walk.delta("optics.seed_updates") as f64);
    o.set("obs.trace_overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0);
    eprintln!(
        "{}: traced stages {traced_s:.3} s, untraced run_pipeline {untraced_s:.3} s, \
         stitched output identical: {same}",
        w.name
    );

    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("seed".into(), Json::Int(seed as i64)),
        ("nproc".into(), Json::Int(nproc() as i64)),
        ("pipeline_threads".into(), Json::Str("default (available parallelism)".into())),
        ("stitched_identical".into(), Json::Bool(same)),
        ("program_trace_events".into(), Json::Int(program_events as i64)),
        ("spans".into(), rec.to_json()),
    ]);
    write_trace(w.name, seed, &doc);
    Ok(o)
}
