//! In-memory spans around calls into each layer, and self time per span.
//!
//! A span is named `layer.operation` (`metrics.bleu`, `runtime.run`, …).
//! Spans live in memory while the benchmark runs and are written out as
//! JSON lines when it ends. A span's self time is its duration minus the
//! part of its interval that its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trace: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The layer a span name belongs to: the part before the first `.`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// A single-threaded span recorder. When disabled, [`Tracer::leaf`] just
/// runs its closure and nothing is recorded.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to trace `id`.
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// Open a span that later spans nest under, until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trace: self.trace,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            trace: self.trace,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            for kid in kids.iter_mut() {
                kid.0 = kid.0.clamp(span.start_ns, span.end_ns);
                kid.1 = kid.1.clamp(span.start_ns, span.end_ns);
            }
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Spans as JSON lines: name, start, end, parent, trace id, self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trace\":{},\"self_ns\":{}}}",
            span.name, span.start_ns, span.end_ns, parent, span.trace, own
        );
    }
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
            trace: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("bench.root", 0, 100, None),
            span("metrics.bleu", 10, 40, Some(0)),
            span("metrics.chrf", 30, 60, Some(0)), // overlaps its sibling
            span("wyaml.parse", 15, 20, Some(1)),  // grandchild
            span("runtime.run", 90, 130, Some(0)), // runs past its parent
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 5, 40]);
    }

    #[test]
    fn leaves_and_open_spans_nest() {
        let mut tracer = Tracer::new(true);
        tracer.set_trace(3);
        tracer.open("bench.response");
        let value = tracer.leaf("codemodel.extract", || 7);
        tracer.leaf("metrics.bleu", || ());
        tracer.close();
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 3));
        assert_eq!(spans[1].layer(), "codemodel");
        let own = self_times(spans);
        assert_eq!(
            own[0] + own[1] + own[2],
            spans[0].duration_ns(),
            "self times of a tree add up to its root"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        tracer.open("bench.response");
        assert_eq!(tracer.leaf("metrics.bleu", || 1), 1);
        tracer.close();
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn spans_serialise_one_per_line() {
        let spans = [
            span("bench.root", 0, 10, None),
            span("llm.complete", 2, 5, Some(0)),
        ];
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0,\"trace\":0,\"self_ns\":3"));
    }
}
