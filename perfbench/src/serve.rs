//! The serving workload: `db-serve` in-process, bootstrapped from the
//! Corel-like data, driven over HTTP by an open-loop load generator of
//! two threads — this one POSTs `/ingest` batches on a ladder of offered
//! rates, the other sends `GET /label` at a fixed rate.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use data_bubbles::pipeline::{
    expand_bubbles, recluster_from_compression, Compressor, PipelineConfig, Recovery,
};
use data_bubbles::{try_bubble_dendrogram, BubbleSpace, DataBubble};
use db_bench::experiments::common::corel_setup;
use db_datagen::{corel_like, CorelParams};
use db_eval::adjusted_rand_index;
use db_obs::Json;
use db_optics::optics;
use db_rng::Rng;
use db_sampling::{
    accumulate_stats_parallel, compress_by_sampling_threaded, nn_classify_parallel,
    IncrementalCompression,
};
use db_serve::{BubbleService, ServeServer, ServiceConfig};
use db_spatial::{auto_index, Dataset, SpatialIndex};

use crate::data::{batches, derive_seed, ingest_body, split_holdout};
use crate::http;
use crate::report::{nproc, peak_rss_mb, single_malloc_arena, write_trace, Outcome};
use crate::spans::Recorder;
use crate::stats::{ladder_max, median, percentile, quantile, tail_percentile, Step};

/// Workload name.
// The only workload with writes beside reads and the only one on the ball tree (auto-selected at d > 8): ingest throughput, /label latency and artifact freshness under load.
pub const NAME: &str = "serve-corel9";

/// Bootstrap objects (the size of the real Corel feature set).
const BOOT_N: usize = 68_040;
/// Dimensionality (nine colour moments).
const DIM: usize = 9;
/// Tiny-cluster size per [`BOOT_N`] objects, as in the Corel substitute.
const TINY_PER_BOOT: usize = 150;
/// Data Bubbles (compression factor 100).
const K: usize = 680;
/// Points per `POST /ingest` request.
pub const BATCH: usize = 1_024;
/// Held-out points the label thread cycles through.
const PROBES: usize = 2_048;
/// Probes whose HTTP answers are checked against the direct call.
const CHECK_PROBES: usize = 256;
/// Offered `/label` rate, requests per second.
const LABEL_HZ: f64 = 500.0;
/// Offered ingest rates of the ladder, points per second, lowest first.
pub const LADDER: [f64; 4] = [6_144.0, 12_288.0, 24_576.0, 65_536.0];
/// The step whose acks give the freshness samples. A recluster is always
/// in flight there (a batch every 83 ms on average against a rebuild of
/// ≈ 0.2 s), while the two CPUs still have room. At lower rates the next
/// rebuild waits for the next batch to find the cache stale, so freshness
/// follows the phase of the batch schedule. At higher rates the CPUs
/// saturate and freshness follows every wobble in their speed.
///
/// Each of its batches is due at a seeded random point of its own period
/// (see [`schedule`]). On a fixed period the next rebuild starts at the
/// first batch after the last one ends, so freshness jumps by a whole
/// period whenever the rebuild time crosses a multiple of it; its median
/// spread by 0.21 and 0.27 of itself over two sets of runs of the same
/// code. A Poisson process would break that lock too, but in a simulation
/// of the step its bunched arrivals left the median about three times the
/// sampling noise.
const FRESHNESS_STEP: usize = 1;
/// Ingest-batch latency limit, ms from each batch's due time, on the
/// step's tail percentile (see [`tail_percentile`]).
pub const INGEST_LIMIT_MS: f64 = 250.0;
/// Requests a step may fall behind its schedule before it is cut short
/// (it has failed by then: the backlog is growing).
const ABORT_BACKLOG: usize = 8;
/// Times the service is set up per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Idle artifact rebuilds timed after the ladder.
const REBUILDS: usize = 5;
/// Artifact rebuilds timed with tracing on, for the tracing overhead.
const TRACED_REBUILDS: usize = 3;
/// Direct calls timed per layer probe in the traced run.
const DIRECT_CALLS: usize = 8;
/// How long acknowledged batches of the freshness step may wait for a
/// covering artifact after the ladder before they are dropped.
const DRAIN: Duration = Duration::from_secs(5);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Share of the ladder's time each step gets. The lowest step gives the
/// label latencies (2 000 of them at 25 s), the freshness step its
/// samples; the top two only decide the ladder.
const STEP_WEIGHTS: [f64; 4] = [4.0, 12.0, 2.2, 0.8];

/// Batches each step offers at least: 24 for a median with ten samples
/// beyond it, 104 at the freshness step for a p90 with ten beyond it.
const MIN_STEP_BATCHES: [f64; 4] = [24.0, 104.0, 24.0, 24.0];

/// Ladder step durations for a run of `seconds`: 70 % of the run, the
/// rest being set-up, the rebuilds and the output checks.
fn step_seconds(seconds: f64) -> [f64; 4] {
    let total: f64 = STEP_WEIGHTS.iter().sum();
    let mut out = [0.0; 4];
    for (i, s) in out.iter_mut().enumerate() {
        let share = seconds * 0.7 * STEP_WEIGHTS[i] / total;
        *s = share.max(MIN_STEP_BATCHES[i] * BATCH as f64 / LADDER[i]);
    }
    out
}

/// Due times of one ladder step's batches, seconds from the step's
/// start, every one before `step_s`: one per `interval`, at its start, or,
/// with `jitter` set, at a uniform point within it drawn from that seed.
pub fn schedule(interval: f64, step_s: f64, jitter: Option<u64>) -> Vec<f64> {
    let mut rng = jitter.map(Rng::seed_from_u64);
    (0..(step_s / interval).ceil() as usize)
        .map(|slot| (slot as f64 + rng.as_mut().map_or(0.0, Rng::next_f64)) * interval)
        .filter(|&t| t < step_s)
        .collect()
}

/// The due times of every ladder step for a run of `seconds`.
fn schedules(seconds: f64, seed: u64) -> Vec<Vec<f64>> {
    let step_s = step_seconds(seconds);
    (0..LADDER.len())
        .map(|i| {
            let jitter = (i == FRESHNESS_STEP).then(|| derive_seed(seed, 4));
            schedule(BATCH as f64 / LADDER[i], step_s[i], jitter)
        })
        .collect()
}

/// One `/label` request as seen by the generator.
#[derive(Debug, Clone, Copy)]
struct LabelSample {
    step: usize,
    /// From due time to the full response, ms (`inf` when it failed).
    latency_ms: f64,
    /// From due time to the send, ms.
    late_ms: f64,
    /// From send to response, ms.
    service_ms: f64,
}

/// Acknowledged ingests waiting for an installed artifact that covers
/// them, and the freshness samples of those already covered.
#[derive(Debug, Default)]
struct Freshness {
    pending: Vec<(usize, Instant, usize)>,
    samples: Vec<(usize, f64)>,
}

/// Locks the freshness book. Every update is one push or one `retain`,
/// so a panic elsewhere cannot leave it half-written.
fn book(m: &Mutex<Freshness>) -> MutexGuard<'_, Freshness> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Freshness {
    /// Resolves every pending ack covered by an artifact of `built`
    /// objects observed at `now`.
    fn observe(&mut self, built: usize, now: Instant) {
        let samples = &mut self.samples;
        self.pending.retain(|&(n_objects, acked, step)| {
            let covered = n_objects <= built;
            if covered {
                samples.push((step, now.duration_since(acked).as_secs_f64()));
            }
            !covered
        });
    }
}

/// Objects in the installed artifact, observed from outside. This reads
/// the artifact handle rather than `BubbleService::stats`, which waits on
/// the live-compression lock an ingest holds while it absorbs; polling it
/// from the label thread would delay the next label by a whole absorb.
fn installed_objects(svc: &BubbleService) -> usize {
    svc.artifact().n_objects
}

/// Generated inputs: bootstrap, ingest stream and probes, with truth.
struct Inputs {
    boot_flat: Vec<f64>,
    boot_labels: Vec<i32>,
    stream: Vec<Dataset>,
    stream_labels: Vec<i32>,
    probes: Dataset,
}

fn inputs(seed: u64, stream_n: usize) -> Inputs {
    let total = BOOT_N + stream_n + PROBES;
    let params = CorelParams {
        n: total,
        dim: DIM,
        tiny_cluster_size: (TINY_PER_BOOT * total).div_ceil(BOOT_N),
    };
    let all = corel_like(&params, derive_seed(seed, 1));
    let split = split_holdout(&all, stream_n + PROBES, derive_seed(seed, 2));
    let held = split.held_out.as_flat();
    let probes = Dataset::from_flat_unchecked(DIM, held[..PROBES * DIM].to_vec());
    let stream_ds = Dataset::from_flat_unchecked(DIM, held[PROBES * DIM..].to_vec());
    Inputs {
        boot_flat: split.flat,
        boot_labels: split.labels,
        stream: batches(&stream_ds, BATCH),
        stream_labels: split.held_out_labels[PROBES..].to_vec(),
        probes,
    }
}

fn service_config() -> ServiceConfig {
    let setup = corel_setup(BOOT_N);
    ServiceConfig::new(setup.bubble_optics(), setup.cut)
}

/// Bootstrap compression, `BubbleService::new` and bind.
fn start_service(boot: &Dataset, seed: u64) -> Result<ServeServer, String> {
    let c = compress_by_sampling_threaded(boot, K, derive_seed(seed, 3), None)
        .map_err(|e| format!("bootstrap compression: {e}"))?;
    let svc = BubbleService::new(IncrementalCompression::from_sample(&c), service_config())
        .map_err(|e| format!("service: {e}"))?;
    ServeServer::start("127.0.0.1:0", Arc::new(svc)).map_err(|e| format!("bind: {e}"))
}

/// Forces a recluster and waits for its artifact; returns the build time.
fn rebuild(svc: &BubbleService) -> Result<f64, String> {
    let t = Instant::now();
    let generation = svc.force_recluster();
    if !svc.wait_for_generation(generation, Duration::from_secs(60)) {
        return Err(format!("artifact generation {generation} never installed"));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// What the ladder produced.
struct Ladder {
    steps: Vec<Step>,
    /// Per-step ingest send lateness and service time, ms.
    ingest_late_ms: Vec<Vec<f64>>,
    ingest_service_ms: Vec<Vec<f64>>,
    labels: Vec<LabelSample>,
    freshness: Vec<(usize, f64)>,
    /// Stream batches accepted, in the order the service absorbed them.
    accepted: Vec<usize>,
    attempted: u64,
    failed: u64,
}

fn label_target(p: &[f64]) -> String {
    let coords: Vec<String> = p.iter().map(|c| format!("{c:?}")).collect();
    format!("/label?point={}", coords.join(","))
}

/// The label thread: open loop at [`LABEL_HZ`] from `start` until `stop`,
/// observing the installed artifact after every request.
fn label_loop(
    server: &ServeServer,
    targets: &[String],
    start: Instant,
    step: &AtomicUsize,
    stop: &AtomicBool,
    fresh: &Mutex<Freshness>,
) -> Vec<LabelSample> {
    let addr = server.addr();
    let svc = server.service();
    let mut out = Vec::new();
    let mut j = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let due = start + Duration::from_secs_f64(j as f64 / LABEL_HZ);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let at_step = step.load(Ordering::Relaxed);
        let sent = Instant::now();
        let ok = http::request(addr, "GET", &targets[j % targets.len()], "")
            .is_ok_and(|r| r.status == 200);
        let done = Instant::now();
        out.push(LabelSample {
            step: at_step,
            latency_ms: if ok { ms(done - due) } else { f64::INFINITY },
            late_ms: ms(sent - due),
            service_ms: ms(done - sent),
        });
        let built = installed_objects(svc);
        book(fresh).observe(built, Instant::now());
        j += 1;
    }
    out
}

/// Runs the ingest ladder with the label thread alongside.
///
/// # Errors
///
/// When the label thread panicked.
fn ladder(
    server: &ServeServer,
    inp: &Inputs,
    step_s: [f64; 4],
    dues: &[Vec<f64>],
) -> Result<Ladder, String> {
    let addr = server.addr();
    let bodies: Vec<String> = inp.stream.iter().map(ingest_body).collect();
    let targets: Vec<String> = inp.probes.iter().map(label_target).collect();
    let step_idx = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let fresh = Mutex::new(Freshness::default());
    let mut out = Ladder {
        steps: Vec::new(),
        ingest_late_ms: Vec::new(),
        ingest_service_ms: Vec::new(),
        labels: Vec::new(),
        freshness: Vec::new(),
        accepted: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    std::thread::scope(|scope| -> Result<(), String> {
        let start = Instant::now();
        let (targets, step_idx, stop, fresh) = (&targets, &step_idx, &stop, &fresh);
        let labels = scope.spawn(move || label_loop(server, targets, start, step_idx, stop, fresh));
        let mut next_batch = 0usize;
        for (i, (&rate, &step_s)) in LADDER.iter().zip(&step_s).enumerate() {
            step_idx.store(i, Ordering::Relaxed);
            let step_dur = Duration::from_secs_f64(step_s);
            let dues = &dues[i];
            let step_start = Instant::now();
            let step_end = step_start + step_dur;
            let mut lat = Vec::new();
            let mut late = Vec::new();
            let mut service = Vec::new();
            let mut accepted_pts = 0usize;
            let mut sent = 0usize;
            let mut last_done = None;
            loop {
                let Some(&offset) = dues.get(sent) else { break };
                if next_batch >= bodies.len() {
                    break;
                }
                let due = step_start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let send = Instant::now();
                // Past the step's end, or so far behind that the step has
                // failed already: stop offering (what is due stays backlog).
                let since = send.duration_since(step_start).as_secs_f64();
                let behind = dues.partition_point(|&d| d <= since).saturating_sub(sent + 1);
                if send >= step_end || behind > ABORT_BACKLOG {
                    break;
                }
                let reply = http::request(addr, "POST", "/ingest", &bodies[next_batch]);
                let done = Instant::now();
                last_done = Some(done);
                let n_objects = reply.as_ref().ok().filter(|r| r.status == 200).and_then(|r| {
                    Json::parse(&r.body).ok()?.get("n_objects")?.as_f64().map(|v| v as usize)
                });
                out.attempted += 1;
                match n_objects {
                    Some(n) => {
                        lat.push(ms(done - due));
                        accepted_pts += inp.stream[next_batch].len();
                        out.accepted.push(next_batch);
                        book(fresh).pending.push((n, done, i));
                    }
                    None => {
                        eprintln!("ingest batch {next_batch} failed: {reply:?}");
                        out.failed += 1;
                        lat.push(f64::INFINITY);
                    }
                }
                late.push(ms(send - due));
                service.push(ms(done - send));
                next_batch += 1;
                sent += 1;
            }
            let due_by_end = dues.len();
            let busy_s = last_done.map_or(step_s, |t| t.duration_since(step_start).as_secs_f64());
            let step = Step {
                achieved: accepted_pts as f64 / busy_s,
                latencies_ms: lat,
                backlog: due_by_end.saturating_sub(sent),
            };
            let meets = step.meets(INGEST_LIMIT_MS);
            eprintln!(
                "{NAME}: step {i} offered {rate:.0} pts/s achieved {:.0}, batches {}, backlog {}, \
                 tail {:?}, meets limit: {meets}",
                step.achieved,
                step.latencies_ms.len(),
                step.backlog,
                tail_percentile(&step.latencies_ms).map(|p| (p.pct, p.value, p.samples)),
            );
            out.steps.push(step);
            out.ingest_late_ms.push(late);
            out.ingest_service_ms.push(service);
            if !meets {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        out.labels = labels.join().map_err(|_| "the label thread panicked")?;
        Ok(())
    })?;
    // Let the freshness step's last acks meet their artifact. Later steps'
    // acks may never be covered: a rebuild starts only when an ingest
    // finds the cache stale, and the ingests have stopped.
    let svc = server.service();
    let drain_end = Instant::now() + DRAIN;
    loop {
        let built = installed_objects(svc);
        let mut f = book(&fresh);
        f.observe(built, Instant::now());
        let waiting = f.pending.iter().any(|&(_, _, step)| step == FRESHNESS_STEP);
        if !waiting || Instant::now() >= drain_end {
            out.freshness = std::mem::take(&mut f.samples);
            break;
        }
        drop(f);
        std::thread::sleep(Duration::from_secs_f64(1.0 / LABEL_HZ));
    }
    for l in &out.labels {
        out.attempted += 1;
        if !l.latency_ms.is_finite() {
            out.failed += 1;
        }
    }
    Ok(out)
}

/// Runs the serving workload; `trace` selects the per-layer run.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    single_malloc_arena();
    db_obs::trace::set_enabled(false);
    let step_s = step_seconds(seconds);
    let dues = schedules(seconds, seed);
    let stream_n = dues.iter().map(Vec::len).sum::<usize>() * BATCH;
    let inp = inputs(seed, stream_n);
    let boot = Dataset::from_flat(DIM, inp.boot_flat.clone()).map_err(|e| format!("boot: {e}"))?;
    eprintln!(
        "{NAME}: bootstrap n={} d={DIM} k={K}, stream {} batches of {BATCH}, probes {PROBES}, \
         label {LABEL_HZ}/s, ladder {LADDER:?} pts/s for {step_s:.2?} s, nproc={}, \
         pipeline threads=default, generator threads=2",
        boot.len(),
        inp.stream.len(),
        nproc()
    );

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut old) = server.take() {
            ServeServer::shutdown(&mut old);
        }
        let t = Instant::now();
        server = Some(start_service(&boot, seed)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut server = server.ok_or("no service started")?;
    let mut o = Outcome { correct: true, ..Outcome::default() };
    let svc = Arc::clone(server.service());
    let cut = corel_setup(BOOT_N).cut;
    let bootstrap_labels = svc
        .artifact()
        .output
        .expanded
        .as_ref()
        .ok_or("artifact has no expansion")?
        .extract_dbscan(cut);
    let completed_before = counter("serve.recluster.completed");
    let latency_before = recluster_latency();

    let lad = ladder(&server, &inp, step_s, &dues)?;
    let reclusters = counter("serve.recluster.completed") - completed_before;
    let latency_after = recluster_latency();
    let n_lat = latency_after.0 - latency_before.0;
    let mean_recluster_s = match n_lat {
        0 => f64::NAN,
        n => (latency_after.1 - latency_before.1) / n as f64 / 1e3,
    };
    o.attempted += lad.attempted;
    o.failed += lad.failed;
    if lad.failed > 0 {
        eprintln!("{NAME}: {} of {} requests failed", lad.failed, lad.attempted);
        o.correct = false;
    }

    // Correctness: the final artifact covers every accepted point, and
    // HTTP answers equal the direct calls on it.
    let mut rebuilds = Vec::with_capacity(REBUILDS);
    for _ in 0..REBUILDS {
        rebuilds.push(rebuild(&svc)?);
    }
    let accepted_pts: usize = lad.accepted.iter().map(|&b| inp.stream[b].len()).sum();
    let art = svc.artifact();
    let stats = svc.stats();
    if stats.n_objects != BOOT_N + accepted_pts || art.n_objects != stats.n_objects {
        eprintln!(
            "{NAME}: n_objects {} (artifact {}) != bootstrap {BOOT_N} + accepted {accepted_pts}",
            stats.n_objects, art.n_objects
        );
        o.correct = false;
    }
    for p in inp.probes.iter().take(CHECK_PROBES) {
        o.attempted += 1;
        let direct = svc.label(p).map_err(|e| format!("direct label: {e}"))?;
        let reply = http::request(server.addr(), "GET", &label_target(p), "");
        let same = reply.as_ref().ok().filter(|r| r.status == 200).and_then(|r| {
            let doc = Json::parse(&r.body).ok()?;
            let field = |k: &str| doc.get(k).and_then(Json::as_f64);
            Some(
                field("label")? == f64::from(direct.label)
                    && field("representative")? == direct.representative as f64
                    && field("generation")? == direct.generation as f64,
            )
        });
        if same != Some(true) {
            eprintln!("{NAME}: /label answer {reply:?} != direct {direct:?}");
            o.failed += u64::from(same.is_none());
            o.correct = false;
        }
    }
    let mut truth = inp.boot_labels.clone();
    for &b in &lad.accepted {
        truth.extend_from_slice(&inp.stream_labels[b * BATCH..b * BATCH + inp.stream[b].len()]);
    }
    let final_labels =
        art.output.expanded.as_ref().ok_or("artifact has no expansion")?.extract_dbscan(cut);
    // Quality preserved under streaming: the bootstrap objects' clusters
    // in the final artifact against those the service started with.
    // (Against the generator's truth, a seed whose sample of 680 misses a
    // tiny cluster reads 0.64 instead of 1, which no code change causes.)
    let ari = adjusted_rand_index(&final_labels[..BOOT_N], &bootstrap_labels);
    let truth_ari = adjusted_rand_index(&final_labels, &truth);

    // End-to-end metrics.
    let lowest: Vec<&LabelSample> = lad.labels.iter().filter(|l| l.step == 0).collect();
    let label_lat: Vec<f64> = lowest.iter().map(|l| l.latency_ms).collect();
    let p50 = percentile(&label_lat, 50.0).ok_or("no label samples")?;
    let p99 = percentile(&label_lat, 99.0).ok_or("no label samples")?;
    let best = ladder_max(&lad.steps, INGEST_LIMIT_MS);
    let fresh: Vec<f64> = match best {
        Some(b) if b >= FRESHNESS_STEP => {
            lad.freshness.iter().filter(|(s, _)| *s == FRESHNESS_STEP).map(|&(_, f)| f).collect()
        }
        _ => Vec::new(),
    };
    let (f50, f90) = match fresh.is_empty() {
        true => (f64::NAN, f64::NAN),
        false => (quantile(&fresh, 0.5), quantile(&fresh, 0.9)),
    };
    eprintln!(
        "{NAME}: label p50 {:.3} ms / p99 {:.3} ms over {} samples ({} beyond p99); \
         ingest max step {best:?}; freshness p50 {f50:.3} s / p90 {f90:.3} s over {} samples; \
         idle rebuilds {rebuilds:.3?} s; {reclusters} reclusters, \
         mean latency {:.3} s over {n_lat}; ARI {ari:.4} preserved, \
         {truth_ari:.4} against truth",
        p50.value,
        p99.value,
        p99.samples,
        p99.beyond,
        fresh.len(),
        mean_recluster_s
    );
    // The mean of every background recluster the ladder triggered: they
    // are spread over the whole ladder, where a handful of rebuilds in a
    // row would all land in whatever stretch the machine is in.
    o.set("pipeline_s", mean_recluster_s);
    o.set("quality_ari", ari);
    o.set("setup_s", median(&setup_times));
    o.set("label_p50_ms", p50.value);
    o.set("label_p99_ms", p99.value);
    o.set("ingest_max_pts_s", best.map_or(0.0, |b| lad.steps[b].achieved));
    o.set("freshness_p50_s", f50);
    o.set("freshness_p90_s", f90);

    if trace {
        let top = best.unwrap_or(0);
        let mut late: Vec<f64> = lowest.iter().map(|l| l.late_ms).collect();
        late.extend_from_slice(&lad.ingest_late_ms[0]);
        o.set("loadgen.late_p99_ms", percentile(&late, 99.0).map_or(0.0, |p| p.value));
        o.set("loadgen.backlog_batches", lad.steps[top].backlog as f64);
        o.set("loadgen.label_samples", label_lat.len() as f64);
        o.set("loadgen.freshness_samples", fresh.len() as f64);
        o.set("serve.reclusters_completed", reclusters as f64);
        let label_service = median(&lowest.iter().map(|l| l.service_ms).collect::<Vec<_>>());
        let ingest_service = median(&lad.ingest_service_ms[0]);
        let idle_build_s = median(&rebuilds);
        layers(&mut o, &svc, &boot, &inp, seed, idle_build_s, label_service, ingest_service)?;
    }
    server.shutdown();
    o.set("peak_rss_mb", peak_rss_mb()?);
    Ok(o)
}

fn counter(name: &str) -> u64 {
    db_obs::snapshot().counter(name).unwrap_or(0)
}

/// Count and sum (ms) of the service's recluster-latency histogram.
fn recluster_latency() -> (u64, f64) {
    db_obs::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "serve.recluster.latency_ms")
        .map_or((0, 0.0), |h| (h.count, h.sum))
}

/// Median wall time of `DIRECT_CALLS` calls of `f`, seconds.
fn median_call(mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..DIRECT_CALLS)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Direct-call layer metrics on the final compression snapshot, after
/// the ladder and with no load running.
#[allow(clippy::too_many_arguments)]
fn layers(
    o: &mut Outcome,
    svc: &BubbleService,
    boot: &Dataset,
    inp: &Inputs,
    seed: u64,
    untraced_build_s: f64,
    label_service_ms: f64,
    ingest_service_ms: f64,
) -> Result<(), String> {
    let snapshot = svc.compression();
    let cfg = service_config();
    let mut rec = Recorder::new(db_obs::RunId::next().get());
    db_obs::trace::clear();
    db_obs::trace::set_enabled(true);
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    let c = rec
        .span("sampling.compress", |_| {
            compress_by_sampling_threaded(boot, K, derive_seed(seed, 3), None)
        })
        .map_err(|e| err("compress", &e))?;
    let assignment =
        rec.span("sampling.nn_classify", |_| nn_classify_parallel(boot, &c.reps, None));
    rec.span("sampling.accumulate_stats", |_| {
        accumulate_stats_parallel(boot, &assignment, c.reps.len(), None)
    });

    let reps = snapshot.representatives();
    let index = rec.span("spatial.index_build", |_| auto_index(reps, None));
    rec.span("spatial.nearest", |_| {
        for p in inp.probes.iter() {
            std::hint::black_box(index.nearest(reps, p));
        }
    });
    let absorb: &[Dataset] = &inp.stream[..inp.stream.len().min(32)];
    let absorbed: usize = absorb.iter().map(Dataset::len).sum();
    rec.span("sampling.absorb", |_| -> Result<(), String> {
        let mut inc = snapshot.clone();
        for b in absorb {
            inc.try_absorb_all(b).map_err(|e| err("absorb", &e))?;
        }
        Ok(())
    })?;

    let mut pcfg =
        PipelineConfig::new(K, Compressor::Sample { seed: 0 }, Recovery::Bubbles, cfg.optics);
    pcfg.threads = cfg.threads;
    pcfg.matrix_max_k = cfg.matrix_max_k;
    rec.span("core.recluster", |_| recluster_from_compression(&snapshot, &pcfg))
        .map_err(|e| err("recluster", &e))?;
    let mut space = rec
        .span("core.bubble_space", |_| {
            let bubbles: Result<Vec<DataBubble>, _> =
                snapshot.stats().iter().map(DataBubble::try_from_cf).collect();
            bubbles.and_then(BubbleSpace::try_new)
        })
        .map_err(|e| err("bubble space", &e))?;
    rec.span("core.matrix_build", |_| space.precompute_matrix(pcfg.threads, pcfg.matrix_max_k));
    let ordering = rec.span("optics.walk", |_| optics(&space, &pcfg.optics));
    let members = snapshot.members();
    rec.span("core.expand", |_| expand_bubbles(&ordering, &members, &space, pcfg.optics.min_pts));
    rec.span("hierarchical.dendrogram", |_| {
        try_bubble_dendrogram(&space, cfg.linkage).map(|d| d.cut_at_distance(cfg.label_cut))
    })
    .map_err(|e| err("dendrogram", &e))?;

    // The service layer, called directly: ingest on a second service over
    // the same snapshot with its staleness triggers off, so no background
    // recluster runs beside the timed calls.
    let mut quiet = service_config();
    quiet.max_absorbed = usize::MAX;
    quiet.max_mass_fraction = f64::INFINITY;
    let side = BubbleService::new(snapshot.clone(), quiet).map_err(|e| err("service", &e))?;
    let ingest_s = rec.span("serve.ingest_call", |_| {
        median_call(|i| {
            std::hint::black_box(side.ingest(&inp.stream[i % inp.stream.len()]).is_ok());
        })
    });
    side.shutdown();
    let label_s = rec.span("serve.label_call", |_| {
        let times: Vec<f64> = inp
            .probes
            .iter()
            .map(|p| {
                let t = Instant::now();
                std::hint::black_box(svc.label(p).is_ok());
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    });
    let traced_build_s = rec.span("serve.artifact_build", |_| -> Result<f64, String> {
        let times = (0..TRACED_REBUILDS).map(|_| rebuild(svc)).collect::<Result<Vec<_>, _>>()?;
        Ok(median(&times))
    })?;
    let body = ingest_body(&inp.stream[0]);
    let parse_s = rec.span("http.json_parse", |_| {
        median_call(|_| {
            std::hint::black_box(Json::parse(&body).is_ok());
        })
    });
    let program_events = db_obs::trace::events().len();
    db_obs::trace::set_enabled(false);

    let span = |name: &str| rec.get(name).ok_or(format!("span {name} missing"));
    let absorb_span = span("sampling.absorb")?;
    let evals = absorb_span.delta("spatial.dist_evals") as f64;
    o.set("spatial.dist_evals_per_point", evals / absorbed as f64);
    o.set(
        "spatial.nodes_visited_per_point",
        absorb_span.delta("spatial.nodes_visited") as f64 / absorbed as f64,
    );
    o.set("spatial.scan_fraction", evals / (reps.len() * absorbed) as f64);
    o.set("spatial.nearest_us", rec.seconds("spatial.nearest") * 1e6 / inp.probes.len() as f64);
    o.set("spatial.index_build_s", rec.seconds("spatial.index_build"));
    o.set("sampling.compress_s", rec.seconds("sampling.compress"));
    o.set("sampling.nn_classify_s", rec.seconds("sampling.nn_classify"));
    o.set("sampling.accumulate_stats_s", rec.seconds("sampling.accumulate_stats"));
    o.set("sampling.absorb_pts_per_s", absorbed as f64 / absorb_span.duration_s());
    let matrix = span("core.matrix_build")?;
    o.set("core.matrix_build_s", matrix.duration_s());
    o.set("core.matrix_bytes", matrix.gauge("optics.matrix_bytes").unwrap_or(0) as f64);
    o.set("core.expand_s", rec.seconds("core.expand"));
    o.set("core.recluster_s", rec.seconds("core.recluster"));
    let walk = span("optics.walk")?;
    o.set("optics.walk_s", walk.duration_s());
    o.set("optics.distance_calls", walk.delta("optics.distance_calls") as f64);
    o.set("optics.neighborhood_queries", walk.delta("optics.neighborhood_queries") as f64);
    o.set("optics.seed_updates", walk.delta("optics.seed_updates") as f64);
    o.set("hierarchical.dendrogram_s", rec.seconds("hierarchical.dendrogram"));
    o.set("serve.ingest_call_ms", ingest_s * 1e3);
    o.set("serve.label_call_us", label_s * 1e6);
    o.set("serve.artifact_build_s", untraced_build_s);
    o.set("http.json_parse_ms", parse_s * 1e3);
    o.set("http.ingest_overhead_ms", ingest_service_ms - ingest_s * 1e3);
    o.set("http.label_overhead_ms", label_service_ms - label_s * 1e3);
    o.set("obs.trace_overhead_pct", (traced_build_s - untraced_build_s) / untraced_build_s * 100.0);

    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(NAME.into())),
        ("seed".into(), Json::Int(seed as i64)),
        ("nproc".into(), Json::Int(nproc() as i64)),
        ("pipeline_threads".into(), Json::Str("default (available parallelism)".into())),
        ("generator_threads".into(), Json::Int(2)),
        ("program_trace_events".into(), Json::Int(program_events as i64)),
        ("spans".into(), rec.to_json()),
    ]);
    write_trace(NAME, seed, &doc);
    Ok(())
}
