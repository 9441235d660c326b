//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. A span has a name, a start, an end, a parent, and the
//! id of the batch or request it belongs to; spans stay in memory and are
//! written out when the run ends. A span's self time is its duration
//! minus its children's.
//!
//! Replay spans (a layer's public function re-run over the same inputs
//! after the timed phase) are recorded with the batch or request they
//! replay as parent, so the tree says which work each measurement explains.

use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its index (the handle children use
    /// as their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            parent,
            start: at(start),
            end: at(end),
        });
        self.spans.len() - 1
    }

    /// Start a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    /// End a span started with [`Trace::open`].
    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Record a span of a known duration that another component measured
    /// (a counter in seconds), ending now.
    pub fn record_secs(&mut self, name: &'static str, id: u64, parent: Option<usize>, secs: f64) {
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            id,
            parent,
            start: end - secs.max(0.0),
            end,
        });
    }

    /// Duration of one span.
    pub fn secs(&self, span: usize) -> f64 {
        self.spans[span].secs()
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, id, parent, t0, Instant::now());
        out
    }

    /// Summed duration of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Number of spans with this name.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of one span: its duration minus its children's.
    pub fn self_secs(&self, span: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(Span::secs)
            .sum();
        self.spans[span].secs() - children
    }

    /// Summed self time (duration minus children) of spans with this name.
    pub fn self_total(&self, name: &str) -> f64 {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.secs() - c)
            .sum()
    }

    /// Write the spans as NDJSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.id, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let t0 = Instant::now();
        let p = t.record("batch", 1, None, t0, t0 + Duration::from_millis(10));
        t.record("leaf", 1, Some(p), t0, t0 + Duration::from_millis(4));
        t.record("leaf", 1, Some(p), t0, t0 + Duration::from_millis(3));
        assert!((t.total("leaf") - 0.007).abs() < 1e-9);
        assert!((t.self_total("batch") - 0.003).abs() < 1e-9);
        assert!((t.self_secs(p) - 0.003).abs() < 1e-9);
        assert_eq!(t.count("leaf"), 2);
    }
}
