//! In-memory span recorder for `--trace` runs.
//!
//! Spans are recorded by the benchmark around its calls into the
//! system (one parent per benchmark op) and by [`crate::tracefs`] around
//! every `Storage` call (children of the op in flight). Nothing inside
//! the measured crates emits spans; see the README's "Traced run".

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a benchmark op.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Kind of benchmark op the span belongs to (`save`, `restore`, ...)
    /// or, for children, the kind of child (`storage`, `stage`).
    pub op: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// Span sink. While disabled it hands out id 0 and records nothing, so
/// the untraced run pays one branch per call. A traced run switches it
/// off for alternate rounds to measure what tracing costs.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        // Relaxed: the flag is flipped between rounds by the only thread
        // that starts ops; a late reader merely records one span more.
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Reserve an id for a span that is about to start (0 when disabled).
    pub fn next_id(&self) -> u64 {
        if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a finished span under a previously reserved `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        op: &'static str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            end_ns,
            bytes,
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Record a finished child span with a fresh id.
    pub fn child(
        &self,
        parent: u64,
        op: &'static str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
    ) {
        if self.enabled() {
            self.record(self.next_id(), parent, op, name, start_ns, end_ns, bytes);
        }
    }

    /// Lay `stages` (name, duration) end to end from `start_ns` as
    /// synthetic `stage` children of `parent`: the reports the system
    /// returns carry stage durations, not stage start times.
    pub fn stages(&self, parent: u64, start_ns: u64, stages: &[(&str, u64)]) {
        let mut at = start_ns;
        for (name, dur) in stages {
            self.child(parent, "stage", name, at, at + dur, 0);
            at += dur;
        }
    }

    /// The `[start, end)` intervals of `parent`'s `storage` children.
    pub fn storage_children(&self, parent: u64) -> Vec<(u64, u64)> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .iter()
            .filter(|s| s.parent == parent && s.op == "storage")
            .map(|s| (s.start_ns, s.end_ns))
            .collect()
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .clone()
    }

    /// Write the spans as a JSON array of
    /// `{id, parent, op, name, start_ns, end_ns, bytes}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans: Vec<serde_json::Value> = self
            .spans()
            .iter()
            .map(|s| {
                serde_json::json!({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start_ns": s.start_ns, "end_ns": s.end_ns, "bytes": s.bytes,
                })
            })
            .collect();
        let text = serde_json::to_string(&spans).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

/// Total length of the union of `[start, end)` intervals, clipped to
/// `[lo, hi)`. A layer's self time is its span minus this over its
/// children, so overlapping (parallel) children are not double counted.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_ignores_overlap_and_clips() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_ns(vec![(5, 8), (6, 7)], 0, 100), 3);
        assert_eq!(covered_ns(vec![], 0, 100), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.child(0, "storage", "write", 1, 2, 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.next_id(), 0);
    }
}
