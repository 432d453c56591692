//! The traced run's span recorder.
//!
//! A span is one timed call at a layer boundary: name, start, end, the
//! span that caused it, and its own id. Spans stay in memory and are
//! written out once, when the benchmark ends, together with each
//! layer's total and self time (duration minus the part of it that
//! child spans cover) and the per-layer metrics of the run.
//!
//! With recording off the recorder still times every call, so bare and
//! traced runs take their durations from the same code path; only the
//! span list stays empty.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::Metric;

struct Span {
    id: u32,
    parent: Option<u32>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// An open span: close it with [`Tracer::end`].
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open {
    id: Option<u32>,
    start: Instant,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            let id = self.push(name, start, start);
            self.stack.push(id);
            id
        });
        Open { id, start }
    }

    /// Closes `open` (spans close innermost first) and returns its
    /// duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize - 1].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; returns its value and
    /// duration in seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    /// Records a call timed elsewhere (on a worker thread) as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.on {
            self.push(name, start, end);
        }
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Total and self time per span name, in seconds, with call counts.
    fn layers(&self) -> BTreeMap<&str, (u64, f64, f64)> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let covered = children.get_mut(&s.id).map_or(0, |c| union_length(c));
            let e = out.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 * 1e-9;
            e.2 += total.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Writes `header`, every span, the per-layer summary and `metrics`
    /// as JSON lines to `path`.
    pub fn write(&self, path: &Path, header: &str, metrics: &[Metric]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, (count, total, own)) in self.layers() {
            writeln!(
                w,
                "{{\"layer\":\"{name}\",\"count\":{count},\"total_s\":{total:.9},\"self_s\":{own:.9}}}"
            )?;
        }
        for m in metrics {
            writeln!(
                w,
                "{{\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )?;
        }
        w.flush()
    }
}

/// Length of the union of the half-open intervals in `iv`.
fn union_length(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in iv.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_covered_once() {
        assert_eq!(union_length(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_length(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(union_length(&mut []), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let layers = t.layers();
        let (_, outer_total, outer_self) = layers["outer"];
        let (_, inner_total, _) = layers["inner"];
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(1));
    }
}
