//! In-memory span recorder: the benchmark's own tracing, wrapped
//! around calls into each crate's public functions (never inside the
//! program under test).
//!
//! A span is `{id, parent, name, start_ns, end_ns}`; the recorder keeps
//! a stack of open spans, so a span's parent is whatever was open when
//! it started. Spans live in memory and are written out once, when the
//! run ends. A span's *self time* is its duration minus the part its
//! children cover.

use emu_telemetry::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a new span named `name`; returns `f`'s result
    /// and the span's duration in seconds.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = self.ns(Instant::now());
        let id = self.push(name, start, start);
        self.open.push(id);
        let r = f(self);
        let end = self.ns(Instant::now());
        self.open.pop();
        self.spans[id as usize].end_ns = end;
        (r, (end - start) as f64 / 1e9)
    }

    /// Records an already-measured interval as a child of the open
    /// span (per-batch spans: the caller holds the two `Instant`s it
    /// needs anyway, so the hot loop makes no extra clock reads).
    pub fn leaf(&mut self, name: &str, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, s, e);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by id: its duration minus the
    /// time its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The whole trace as `{workload, spans: [{id, parent, name,
    /// workload, start_ns, end_ns, self_ns}]}`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .map(|(s, self_ns)| {
                Json::obj(vec![
                    ("id", Json::from(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("name", Json::from(s.name.as_str())),
                    ("workload", Json::from(self.workload.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("self_ns", Json::from(self_ns)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::from(self.workload.as_str())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans (no clock involved).
    fn fixed(spans: &[(Option<u32>, &str, u64, u64)]) -> Tracer {
        let mut t = Tracer::new("w");
        for (i, &(parent, name, start_ns, end_ns)) in spans.iter().enumerate() {
            t.spans.push(Span {
                id: i as u32,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixed(&[
            (None, "run", 0, 100),
            (Some(0), "build", 10, 30),
            (Some(0), "pass:0", 40, 90),
            (Some(2), "batch:0", 45, 60), // grandchild: not subtracted from run
        ]);
        assert_eq!(t.self_times_ns(), vec![100 - 20 - 50, 20, 50 - 15, 15]);
    }

    #[test]
    fn scopes_nest_and_leaves_attach_to_the_open_span() {
        let mut t = Tracer::new("w");
        t.scope("run", |t| {
            t.scope("pass:0", |t| {
                let a = Instant::now();
                t.leaf("batch:0", a, Instant::now());
            });
        });
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![("run", None), ("pass:0", Some(0)), ("batch:0", Some(1))]
        );
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let doc = Json::parse(&t.to_json().to_string()).expect("trace is JSON");
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }
}
