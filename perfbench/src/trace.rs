//! Benchmark-side span recording and small order statistics.
//!
//! Spans are recorded by the benchmark around each call into a library
//! layer: name, start, end and the enclosing span. They are kept in
//! memory and written out once the run ends. A span's *self time* is its
//! duration minus the part of that interval its children cover.

use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer name (`replication`, `sim.run`, ...).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Times layer calls; keeps span records only when tracing is on.
///
/// Durations are measured either way (the untraced pass needs its
/// engine time for `events_per_s`); an untraced tracer just stores
/// nothing.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<SpanRec>>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that measures but records no spans.
    pub fn off(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: None,
            stack: Vec::new(),
        }
    }

    /// A tracer recording spans relative to `origin`.
    pub fn on(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Some(Vec::new()),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.spans.as_ref().map(|s| s.len());
        if let Some(id) = id {
            let rec = SpanRec {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
            };
            self.spans.as_mut().expect("tracing is on").push(rec);
            self.stack.push(id);
        }
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.stack.pop();
            let end_ns = self.ns(end);
            self.spans.as_mut().expect("tracing is on")[id].end_ns = end_ns;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Records an aggregate child span of the innermost open span:
    /// `total_ns` of work that happened in many small slices from
    /// `start` on (e.g. every pull from an arrival source).
    pub fn record_aggregate(&mut self, name: &'static str, start: Instant, total_ns: u64) {
        let start_ns = self.ns(start);
        let parent = self.stack.last().copied();
        if let Some(spans) = self.spans.as_mut() {
            spans.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns + total_ns,
                parent,
            });
        }
    }

    /// The recorded spans (empty when tracing is off).
    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans.unwrap_or_default()
    }
}

/// Total seconds of spans named `name` in `spans`.
pub fn busy_secs(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::secs)
        .sum()
}

/// Number of spans named `name` in `spans`.
pub fn calls(spans: &[SpanRec], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Share (0–1) of root span `root`'s duration covered by its direct
/// children.
pub fn child_coverage(spans: &[SpanRec], root: usize) -> f64 {
    let total = spans[root].secs();
    if total <= 0.0 {
        return 0.0;
    }
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(SpanRec::secs)
        .sum();
    covered / total
}

/// The `q`-quantile (0–1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_cover() {
        let mut tr = Tracer::on(Instant::now());
        tr.span("pass", |tr| {
            tr.span("a", |_| std::hint::black_box((0..1000).sum::<u64>()));
            tr.span("b", |tr| tr.record_aggregate("b.pull", Instant::now(), 10));
        });
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].end_ns - spans[3].start_ns, 10);
        assert!(child_coverage(&spans, 0) <= 1.0);
        assert_eq!(calls(&spans, "a"), 1);
    }

    #[test]
    fn untraced_tracer_still_times() {
        let mut tr = Tracer::off(Instant::now());
        let (v, secs) = tr.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.into_spans().is_empty());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
