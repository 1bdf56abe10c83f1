//! The traced run's span recorder.
//!
//! Spans are recorded from outside the program, around each call into a
//! crate's public functions: name, start, end, parent span and the run id
//! they belong to, plus the delta of every `db-obs` counter that moved
//! during the call. Spans stay in memory and are written out once, when
//! the run ends.

use std::time::Instant;

use db_obs::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Run the span belongs to.
    pub run_id: u64,
    /// Span name: the layer and the call it wraps.
    pub name: &'static str,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
    /// Counters that moved during the span, with their deltas.
    pub counter_deltas: Vec<(String, u64)>,
    /// Gauges as read when the span ended.
    pub gauges: Vec<(String, i64)>,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// Delta of counter `name` over the span (0 when it did not move).
    pub fn delta(&self, name: &str) -> u64 {
        self.counter_deltas.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    }

    /// Gauge `name` as read at the span's end.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// In-memory span recorder for one run.
#[derive(Debug)]
pub struct Recorder {
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: u64) -> Self {
        Recorder { run_id, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let before = db_obs::snapshot();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent,
            run_id: self.run_id,
            name,
            start_s,
            end_s: start_s,
            counter_deltas: Vec::new(),
            gauges: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_s = self.origin.elapsed().as_secs_f64();
        let after = db_obs::snapshot();
        let counter_deltas = after
            .counters
            .iter()
            .filter_map(|(n, v)| {
                let d = v.saturating_sub(before.counter(n).unwrap_or(0));
                (d > 0).then(|| (n.clone(), d))
            })
            .collect();
        let span = &mut self.spans[id];
        span.end_s = end_s;
        span.counter_deltas = counter_deltas;
        span.gauges = after.gauges;
        out
    }

    /// The first span named `name`.
    pub fn get(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Wall time of the first span named `name`, 0 when absent.
    pub fn seconds(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, Span::duration_s)
    }

    /// A span's duration minus the part of it its direct children cover.
    pub fn self_time_s(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_s).sum();
        self.spans[id].duration_s() - children
    }

    /// All spans as a JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Int(s.id as i64)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Int(p as i64))),
                    ("run_id".into(), Json::Int(s.run_id as i64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_s".into(), Json::Num(s.start_s)),
                    ("end_s".into(), Json::Num(s.end_s)),
                    ("self_s".into(), Json::Num(self.self_time_s(s.id))),
                    (
                        "counter_deltas".into(),
                        Json::Obj(
                            s.counter_deltas
                                .iter()
                                .map(|(n, v)| (n.clone(), Json::Int(*v as i64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("run_id".into(), Json::Int(self.run_id as i64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}
