//! In-memory spans of a traced run, recorded around the calls into each
//! layer from the benchmark's side of the boundary and written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::norm::median;

/// One span: `name, start, end, parent, op_id` (seconds since the log
/// was opened). Spans of one operation share its `op_id`.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Total and self time of every span with one name.
#[derive(Default, Clone, Copy)]
pub struct Layer {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record the root span of operation `op_id`; returns its index.
    pub fn op(&mut self, name: &'static str, op_id: u64, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            name,
            start: (start - self.origin).as_secs_f64(),
            end: (end - self.origin).as_secs_f64(),
            parent: None,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Record a child of `parent` lasting `seconds`, starting `offset`
    /// seconds into it (phases a response reports are laid end to end).
    pub fn child(&mut self, parent: usize, name: &'static str, offset: f64, seconds: f64) {
        let start = self.spans[parent].start + offset;
        self.spans.push(Span {
            name,
            start,
            end: start + seconds,
            parent: Some(parent),
            op_id: self.spans[parent].op_id,
        });
    }

    /// Per span name: count, total time and self time (a span's duration
    /// minus what its children cover).
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let layer = out.entry(s.name).or_default();
            let total = s.end - s.start;
            layer.count += 1;
            layer.total_s += total;
            layer.self_s += (total - covered).max(0.0);
        }
        out
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start, s.end, s.op_id
            )?;
        }
        out.flush()
    }
}

/// Latencies of traced and untraced rounds, kept apart. The rounds
/// alternate, so both see the same machine; the gap between their
/// medians is what tracing costs.
#[derive(Default)]
pub struct TraceSplit {
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl TraceSplit {
    pub fn push(&mut self, tracing: bool, seconds: f64) {
        if tracing {
            self.traced.push(seconds);
        } else {
            self.untraced.push(seconds);
        }
    }

    /// `(traced p50 − untraced p50) / untraced p50`; 0 without both.
    pub fn overhead_share(&mut self) -> f64 {
        if self.traced.is_empty() || self.untraced.is_empty() {
            return 0.0;
        }
        let untraced = median(&mut self.untraced);
        (median(&mut self.traced) - untraced) / untraced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let op = log.op("op", 1, t0, t0 + Duration::from_millis(10));
        log.child(op, "wait", 0.0, 0.002);
        log.child(op, "compute", 0.002, 0.005);
        let layers = log.layers();
        assert!((layers["op"].total_s - 0.010).abs() < 1e-9);
        assert!((layers["op"].self_s - 0.003).abs() < 1e-9);
        assert!((layers["compute"].self_s - 0.005).abs() < 1e-9);
        assert_eq!(layers["wait"].count, 1);
    }
}
