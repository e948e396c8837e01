//! In-memory spans around the benchmark's calls into the checker,
//! written as JSON lines when the run ends.
//!
//! A span covers one call to a public function (`circ_with_caches`,
//! `run_batch`, `compile`, `triage`, `load_caches`, `flush_caches_in`,
//! `AbsCache::with_seed`, `AbsCtx::with_parts`, or one serve round
//! trip). Spans of one check or request share its `id`; `fields` carry
//! the counters the call returned.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: Duration,
    pub dur: Duration,
    pub fields: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Times `f` and, when enabled, records it as span `name` of `id`.
    pub fn span<T>(&mut self, id: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        if self.enabled {
            let start = start.duration_since(self.epoch);
            self.spans.push(Span { id, name, start, dur, fields: Vec::new() });
        }
        (out, dur)
    }

    /// Records a span whose start and end the caller measured (an
    /// open-loop request, timed from when it was due).
    pub fn record(&mut self, id: u64, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let dur = end.saturating_duration_since(start);
            let start = start.saturating_duration_since(self.epoch);
            self.spans.push(Span { id, name, start, dur, fields: Vec::new() });
        }
    }

    /// Attaches counters to the most recent span.
    pub fn fields(&mut self, fields: &[(&'static str, f64)]) {
        if let Some(last) = self.spans.last_mut().filter(|_| self.enabled) {
            last.fields.extend_from_slice(fields);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line; a no-op when disabled.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_s\":{:?},\"dur_s\":{:?}",
                s.id,
                s.name,
                s.start.as_secs_f64(),
                s.dur.as_secs_f64()
            );
            for (k, v) in &s.fields {
                let _ = write!(out, ",\"{k}\":{v:?}");
            }
            out.push_str("}\n");
        }
        std::fs::write(path, out)
    }
}
