//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. Each span has
//! a name, a start and an end (nanoseconds since the recorder started),
//! the span that caused it, and the request it belongs to.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `router.route`.
    pub name: &'static str,
    /// Request (or build) the span belongs to.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder started.
    pub start_ns: u64,
    /// End, ns since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the recorder's start to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Open a span to be closed with [`Tracer::close`]; lets a span
    /// enclose child spans.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end;
        }
    }

    /// Record a span timed elsewhere (e.g. on a worker thread).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Durations of every span with this name, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Summed duration of every span with this name, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e6
    }

    /// Median duration of the spans with this name, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .durations_ns(name)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        crate::stats::median(&durations).unwrap_or(0.0)
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover (the union, as the worker spans of a parallel
    /// stage overlap), in recording order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent.filter(|&p| p < self.spans.len()) {
                let p = &self.spans[parent];
                children[parent].push((s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, span.start_ns);
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the first `limit` spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (id, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                s.name, s.request, s.start_ns, s.end_ns, self_ns[id]
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let root = |start_ns, end_ns| Span {
            name: "root",
            request: 0,
            parent: None,
            start_ns,
            end_ns,
        };
        let child = |start_ns, end_ns| Span {
            name: "child",
            request: 0,
            parent: Some(0),
            start_ns,
            end_ns,
        };
        t.push(root(0, 100));
        t.push(child(10, 30));
        t.push(child(20, 40)); // overlaps the first child
        t.push(child(90, 150)); // runs past the parent's end
        assert_eq!(t.self_ns(), vec![100 - 30 - 10, 20, 20, 60]);
        assert_eq!(t.durations_ns("child"), vec![20, 20, 60]);
        assert_eq!(t.median_us("child"), 0.02);
    }
}
