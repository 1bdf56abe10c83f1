//! Point-in-time copies of the metric state, as returned by
//! [`crate::snapshot()`].

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds; the implicit overflow bucket follows.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, overflow last (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation within the bucket holding the target rank, in the
    /// style of Prometheus `histogram_quantile`: the first bucket's lower
    /// edge is 0 (or its own bound when that is negative), and any rank
    /// landing in the overflow bucket reports the last finite bound (the
    /// estimate cannot exceed what the buckets resolve). Returns `NaN`
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return f64::NAN;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let below = cum;
            cum += c;
            if c > 0 && cum as f64 >= target {
                let Some(&hi) = self.bounds.get(i) else {
                    // Overflow bucket: no upper edge to interpolate to.
                    return *self.bounds.last().unwrap();
                };
                let lo = if i == 0 { self.bounds[0].min(0.0) } else { self.bounds[i - 1] };
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        *self.bounds.last().unwrap()
    }

    /// Estimated median (see [`Self::quantile`]).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile (see [`Self::quantile`]).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile (see [`Self::quantile`]).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// A point-in-time copy of one span's aggregated timing statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Completed span instances.
    pub count: u64,
    /// Total wall time, nanoseconds (includes time in child spans).
    pub total_ns: u64,
    /// Total wall time minus time spent in directly nested spans.
    pub self_ns: u64,
    /// Shortest single instance, nanoseconds (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest single instance, nanoseconds.
    pub max_ns: u64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// Every registered histogram.
    pub histograms: Vec<HistogramSnapshot>,
    /// Every registered span, aggregated per name.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// The value of counter `name`, or `None` if never registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The aggregated statistics of span `name`.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// True when nothing has been recorded (all zeros or no registrations).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(bounds: &[f64], buckets: &[u64]) -> HistogramSnapshot {
        HistogramSnapshot {
            name: "h".into(),
            bounds: bounds.to_vec(),
            buckets: buckets.to_vec(),
            count: buckets.iter().sum(),
            sum: 0.0,
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 10 observations: 2 in (0,10], 6 in (10,20], 2 in (20,30].
        let h = hist(&[10.0, 20.0, 30.0], &[2, 6, 2, 0]);
        // Hand-computed: rank 5 of 10 sits 3/6 into bucket (10,20] -> 15.
        assert_eq!(h.p50(), 15.0);
        // Rank 9.5 sits 1.5/2 into bucket (20,30] -> 27.5.
        assert_eq!(h.p95(), 27.5);
        // Rank 9.9 sits 1.9/2 into bucket (20,30] -> 29.5.
        assert_eq!(h.p99(), 29.5);
    }

    #[test]
    fn quantile_edges() {
        // First bucket interpolates from 0.
        let h = hist(&[4.0], &[4, 0]);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 4.0);
        // Everything in the overflow bucket: report the last finite bound.
        let h = hist(&[10.0, 20.0], &[0, 0, 5]);
        assert_eq!(h.p50(), 20.0);
        // Empty histogram has no quantiles.
        assert!(hist(&[10.0], &[0, 0]).p50().is_nan());
    }

    #[test]
    fn quantile_skips_empty_buckets() {
        // All mass in the last finite bucket; empty buckets before it must
        // not capture the rank.
        let h = hist(&[1.0, 2.0, 3.0], &[0, 0, 8, 0]);
        assert_eq!(h.p50(), 2.5);
        assert_eq!(h.quantile(1.0), 3.0);
    }
}
