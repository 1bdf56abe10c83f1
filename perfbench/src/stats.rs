//! Order statistics and the load-ladder rules.
//!
//! Latency percentiles use the nearest-rank definition: the `p`-th
//! percentile of `n` samples is the `ceil(p/100 · n)`-th smallest, so
//! exactly `n - rank` samples lie beyond it. A percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it; a failed request is
//! recorded as an infinite latency, so it always counts as missing the
//! limit.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Median by linear interpolation between the two middle values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile (`q` in `[0, 1]`) by linear interpolation between
/// closest ranks; used for run-level summaries such as repetition times.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A nearest-rank percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in percent.
    pub pct: f64,
    /// Its value (`inf` when a failed request reached this rank).
    pub value: f64,
    /// Total samples.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank `pct`-th percentile of `xs`, or `None` for no samples.
pub fn percentile(xs: &[f64], pct: f64) -> Option<Percentile> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Round before `ceil` so 99 % of 1000 is rank 990, not 991.
    let exact = (pct / 100.0 * n as f64 * 1e9).round() / 1e9;
    let rank = (exact.ceil() as usize).clamp(1, n);
    Some(Percentile { pct, value: v[rank - 1], samples: n, beyond: n - rank })
}

/// The highest of p99.9, p99, p90 and p50 with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn tail_percentile(xs: &[f64]) -> Option<Percentile> {
    TAIL_CANDIDATES.iter().filter_map(|&p| percentile(xs, p)).find(|p| p.beyond >= MIN_BEYOND)
}

/// The outcome of one step of an open-loop load ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Accepted points per second over the step.
    pub achieved: f64,
    /// Per-request latency from each request's due time, ms (`inf` for a
    /// failed request).
    pub latencies_ms: Vec<f64>,
    /// Requests that were due by the end of the step but never sent.
    pub backlog: usize,
}

impl Step {
    /// Whether the step met `limit_ms` at its tail percentile, with no
    /// growing backlog (at most one request still due) and no failures
    /// (a failure is an infinite latency, so it exceeds any limit).
    pub fn meets(&self, limit_ms: f64) -> bool {
        let tail_ok = tail_percentile(&self.latencies_ms).is_some_and(|p| p.value <= limit_ms);
        tail_ok && self.backlog <= 1
    }
}

/// Index of the highest step meeting `limit_ms`, scanning from the lowest
/// rate and stopping at the first step that misses it (a later step is
/// never run in that case, and would not count if it were).
pub fn ladder_max(steps: &[Step], limit_ms: f64) -> Option<usize> {
    steps.iter().take_while(|s| s.meets(limit_ms)).count().checked_sub(1)
}
