//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start, an end, a parent and a request id shared by
//! every span of one request. With tracing off, `open` reads no clock and
//! records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub type SpanId = Option<usize>;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: SpanId,
    pub request: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Count, total and self time of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: usize,
    pub total: Duration,
    pub self_time: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Time since the tracer was made, the clock every span is measured on.
    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Opens a span that ends at the matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = self.now();
        }
    }

    /// Records a span whose bounds were measured elsewhere on this clock.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn span(&self, id: SpanId) -> Option<&Span> {
        id.map(|i| &self.spans[i])
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start))
            .collect()
    }

    /// Per-name count, total and self time. A span's self time is its
    /// duration minus the part of it that its children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut cover: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start.max(s.start), c.end.min(s.end))
                })
                .filter(|(a, b)| b > a)
                .collect();
            cover.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end.saturating_sub(s.start);
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total += total;
            entry.self_time += total.saturating_sub(covered);
        }
        out
    }

    /// Writes a header line and one JSON line per span.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {i}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "request": {}}}"#,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request
            )?;
        }
        out.flush()
    }
}
