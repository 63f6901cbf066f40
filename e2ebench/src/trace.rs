//! In-memory spans around the pipeline's public calls, written out once
//! the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` indexes the span that caused it, and spans of
/// one pipeline run share `run`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a span and return its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        run: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// The spans as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns
            );
        }
        out
    }
}
