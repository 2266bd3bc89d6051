//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the program (the program itself carries no tracing). Each span has
//! a name, a start and an end (nanoseconds since the run's origin), the
//! index of the span that caused it, and a request id shared by every
//! span of one operation. Counts are kept at the same boundaries. All of
//! it stays in memory and is written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use layerbem_serve::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`core.assembly`, `serve.cache`, ...).
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<usize>,
    /// Operation (pass, request, edit) the span belongs to.
    pub request: u64,
    /// Whether the interval was placed from a duration measured
    /// elsewhere (a replay, or a time the program reported itself) rather
    /// than timed around the call where it sits.
    pub reported: bool,
}

impl Span {
    /// Span length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A replay stage: the layer it called into and how long the call took.
pub type Stage = (&'static str, Duration);

/// Times one replay stage, appending it to `stages`.
pub fn stage<T>(stages: &mut Vec<Stage>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    stages.push((name, t.elapsed()));
    out
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    index: usize,
}

/// In-memory recorder. One per thread; merged at the end of the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder timing against `origin` (shared by all of a run's
    /// recorders so their spans share one clock).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<Open>, request: u64) -> Open {
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: parent.map(|p| p.index),
            request,
            reported: false,
        });
        Open {
            index: self.spans.len() - 1,
        }
    }

    /// Closes a span now and returns its length in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[open.index];
        span.end_ns = end;
        span.seconds()
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span measured elsewhere (a client thread's round trip).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Open {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.map(|p| p.index),
            request,
            reported: false,
        });
        Open {
            index: self.spans.len() - 1,
        }
    }

    /// Places a child span of a duration measured elsewhere (a replay, or
    /// a time the program reported itself), starting `offset` after its
    /// parent's start. Its length is kept as measured; the parent's self
    /// time counts only the part inside the parent.
    pub fn reported(
        &mut self,
        name: &'static str,
        parent: Open,
        offset: Duration,
        length: Duration,
    ) -> Open {
        let p = &self.spans[parent.index];
        let start = p.start_ns + offset.as_nanos() as u64;
        let end = start + length.as_nanos() as u64;
        let request = p.request;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent.index),
            request,
            reported: true,
        });
        Open {
            index: self.spans.len() - 1,
        }
    }

    /// Records a request's client round trip `[t0, t1]` as a
    /// `serve.server` span and places its in-process replays inside it:
    /// the `serve.service` call at the end of the round trip (the rest is
    /// socket time), and the stages one after another from the service's
    /// start. Returns the stage spans, in order.
    pub fn round_trip(
        &mut self,
        request: u64,
        t0: Instant,
        t1: Instant,
        service: Duration,
        stages: &[Stage],
    ) -> Vec<Open> {
        let rt = t1 - t0;
        let root = self.record("serve.server", None, request, t0, t1);
        let service = service.min(rt);
        let svc = self.reported("serve.service", root, rt - service, service);
        let mut offset = Duration::ZERO;
        stages
            .iter()
            .map(|&(name, d)| {
                let span = self.reported(name, svc, offset, d);
                offset += d;
                span
            })
            .collect()
    }

    /// Adds to a count kept at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// A count's total (0 when never counted).
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Moves another recorder's spans and counts into this one.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds of every span: its length minus the part of its
    /// interval its children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                covered.sort_unstable();
                let mut union = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in covered {
                    let a = a.max(reach);
                    if b > a {
                        union += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - union) as f64 * 1e-9
            })
            .collect()
    }

    /// Total self seconds per layer name.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_seconds()) {
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The spans and counts as one JSON document (one object per span).
    pub fn to_json(&self) -> Json {
        let own = self.self_seconds();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request", Json::Num(s.request as f64)),
                    ("reported", Json::Bool(s.reported)),
                    ("self_s", Json::Num(own)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect();
        Json::obj(vec![
            ("spans", Json::Arr(spans)),
            ("counts", Json::Obj(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let root = t.record("root", None, 0, at(0), at(10));
        t.record("a", Some(root), 0, at(1), at(4));
        t.record("b", Some(root), 0, at(3), at(6));
        t.record("c", Some(root), 0, at(8), at(12));
        let own = t.self_seconds();
        assert!((own[0] - 0.003).abs() < 1e-9, "{own:?}");
        assert!((own[1] - 0.003).abs() < 1e-9);
        let by = t.self_seconds_by_layer();
        assert!((by["root"] - 0.003).abs() < 1e-9);
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record("x", None, 0, origin, origin);
        let mut b = Tracer::new(origin);
        let p = b.record("y", None, 1, origin, origin);
        b.record("z", Some(p), 1, origin, origin);
        b.count("n", 2.0);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.total("n"), 2.0);
    }
}
