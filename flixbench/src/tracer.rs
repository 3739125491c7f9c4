//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. Tracing inside the engine is not used: a span here
//! covers exactly one call the benchmark makes.
//!
//! Spans are kept in memory and written out when the run ends. When the
//! tracer is off, [`Tracer::span`] calls its closure and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer-qualified name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request a service span belongs to.
    pub request: Option<u64>,
    /// Which thread recorded it (`main`, `reader`, `writer`, `server`).
    pub thread: &'static str,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: &'static str,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `thread`, timing from `origin`; records only if `on`.
    pub fn new(on: bool, origin: Instant, thread: &'static str) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval under `parent` (or, if
    /// `None`, under the innermost open span) and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent: parent.or_else(|| self.open.last().copied()),
            request,
            thread: self.thread,
        });
        Some(self.spans.len() - 1)
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Moves the recorded spans out.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part covered by child spans).
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Self time of every span in one tracer's list: its duration minus the
/// union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns().saturating_sub(covered)
        })
        .collect()
}

/// Groups `spans` (one tracer's list) by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// For each span named `parent_name`, the share of its duration that its
/// direct children cover.
pub fn child_coverage(spans: &[Span], parent_name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == parent_name && s.ns() > 0)
        .map(|(s, self_ns)| 1.0 - self_ns as f64 / s.ns() as f64)
        .collect()
}

/// Appends another tracer's spans to `spans`, keeping parent links.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Renders spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request.map_or("null".to_string(), |r| r.to_string()),
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
            thread: "main",
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            span("a.inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        assert_eq!(child_coverage(&spans, "run"), vec![0.8]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), "main");
        let v = t.span("run", None, |t| t.span("inner", None, |_| 7));
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }
}
