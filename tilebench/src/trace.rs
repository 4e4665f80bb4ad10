//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, its start and end, the span that caused it and
//! the operation it belongs to. Spans stay in memory while the run
//! measures; [`Tracer::write`] writes them out with each name's total and
//! self time (its duration minus the part its child spans cover) once the
//! run ends. An untraced run never creates a [`Tracer`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle for an open span; pass it to [`Tracer::close`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<&Open>) -> Open {
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map(|p| p.0),
            op,
        });
        Open(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Open) -> Duration {
        let s = &mut self.spans[span.0];
        s.end = self.origin.elapsed();
        s.dur()
    }

    /// Run `f` inside a span and return its result with the span's length.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<&Open>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let span = self.open(name, op, parent);
        let r = f();
        (r, self.close(span))
    }

    /// Record a span measured elsewhere (e.g. on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<&Open>,
        start: Instant,
        end: Instant,
    ) -> Open {
        let start = start.saturating_duration_since(self.origin);
        let end = end.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name,
            start,
            end,
            parent: parent.map(|p| p.0),
            op,
        });
        Open(self.spans.len() - 1)
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64() * 1e3)
            .collect()
    }

    /// Per name: (count, total, self time).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, Duration, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur();
            e.2 += s.dur().saturating_sub(*kids);
        }
        out
    }

    /// Write every span and the per-name summary as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::from("{\"summary\": {");
        for (i, (name, (n, total, own))) in self.summary().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"count\": {n}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
        s.push_str("},\n\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"op\": {}}}",
                sp.name,
                sp.start.as_micros(),
                sp.end.as_micros(),
                sp.op
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("op", 0, None);
        let ((), _) = t.time("child", 0, Some(&root), || {
            std::thread::sleep(Duration::from_millis(5))
        });
        std::thread::sleep(Duration::from_millis(2));
        let total = t.close(root);
        let sum = t.summary();
        let (n, tot, own) = sum["op"];
        assert_eq!(n, 1);
        assert_eq!(tot, total);
        assert!(own >= Duration::from_millis(2) && own < total);
        assert_eq!(
            sum["child"].1, sum["child"].2,
            "a leaf's self time is its duration"
        );
    }
}
