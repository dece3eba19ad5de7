//! Benchmark-side host-time spans around calls into the library's public
//! functions: kept in memory during a traced pass, summarised per name, and
//! written as Chrome-trace JSON when the pass ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSpan {
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The request the span belongs to (spans of one request share it).
    pub request: u64,
}

impl HostSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder on the host's monotonic clock.
pub struct HostSpans {
    epoch: Instant,
    spans: Vec<HostSpan>,
}

impl HostSpans {
    pub fn with_capacity(spans: usize) -> Self {
        HostSpans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays zero-length until [`HostSpans::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(HostSpan {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Renames a span once the call it wraps has shown what it did.
    pub fn relabel(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover.  Children of one parent are recorded sequentially
/// by a single driver thread, so their durations add without overlap.
pub fn self_times_ns(spans: &[HostSpan]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(HostSpan::duration_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &mut own[span.parent as usize];
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[HostSpan], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Renders the spans as a Chrome-tracing document (`ts`/`dur` in host µs).
pub fn chrome_trace_json(spans: &[HostSpan]) -> String {
    let mut out = String::with_capacity(spans.len() * 112 + 64);
    out.push_str("{\"traceEvents\":[");
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = if span.parent == NO_PARENT {
            -1
        } else {
            i64::from(span.parent)
        };
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":0,\"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.request,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> HostSpan {
        HostSpan {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            span("get", 10, 40, 0),
            span("set", 50, 90, 0),
            span("inner", 55, 60, 2),
        ];
        // request: 100 - 30 - 40; set: 40 - 5; the grandchild does not count
        // against the request twice.
        assert_eq!(self_times_ns(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn self_time_never_underflows() {
        // A child that (through clock granularity) outlasts its parent.
        let spans = [span("request", 0, 10, NO_PARENT), span("get", 0, 12, 0)];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let mut rec = HostSpans::with_capacity(4);
        let root = rec.open("request", NO_PARENT, 7);
        let child = rec.open("get", root, 7);
        rec.close(child);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(durations_ns(spans, "get").len(), 1);
        let json = chrome_trace_json(spans);
        assert!(json.contains("\"name\":\"get\"") && json.contains("\"parent\":0"));
    }
}
