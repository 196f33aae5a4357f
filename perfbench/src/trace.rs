//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public function
//! (name, start, end, parent span, op id, items handled). They stay in
//! memory while the run executes and are written out as JSON lines when
//! it ends. A layer's self time is its span time minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    items: u64,
}

/// Per-layer aggregate over every span of one name.
#[derive(Debug, Clone, Default)]
pub struct LayerStat {
    pub calls: u64,
    pub items: u64,
    pub total_ms: f64,
    pub self_ms: f64,
    /// Each call's duration, in call order.
    pub durations_ms: Vec<f64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that records nothing, for the untraced runs.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; it becomes the parent of spans opened before its exit.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            items: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one), recording `items`.
    pub fn exit(&mut self, id: usize, items: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.items = items;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
    }

    /// Runs `f` inside a span named `name` that handled `items` items.
    pub fn time<T>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id, items);
        out
    }

    /// Records a span measured elsewhere (a client thread's own clock),
    /// as a root span offset from this tracer's origin.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        op: u64,
        items: u64,
    ) {
        let offset = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: offset(start),
            end_ns: offset(end),
            parent: None,
            op,
            items,
        });
    }

    /// Aggregates closed spans by name: calls, items, total and self time.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += dur(span);
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let stat = out.entry(span.name).or_default();
            stat.calls += 1;
            stat.items += span.items;
            stat.total_ms += dur(span);
            stat.self_ms += dur(span) - child_ms[i];
            stat.durations_ms.push(dur(span));
        }
        out
    }

    /// Human-readable per-layer table, one line per span name.
    pub fn table(&self) -> String {
        let mut s = String::from(
            "layer                              calls      items     total_ms      self_ms\n",
        );
        for (name, st) in self.layers() {
            let _ = writeln!(
                s,
                "{name:<32} {:>7} {:>10} {:>12.3} {:>12.3}",
                st.calls, st.items, st.total_ms, st.self_ms
            );
        }
        s
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"items\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.items
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.time("inner", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer, 1);
        let layers = t.layers();
        let (outer, inner) = (&layers["outer"], &layers["inner"]);
        assert_eq!((outer.calls, inner.calls, inner.items), (1, 1, 3));
        assert!(inner.total_ms >= 5.0);
        assert!(outer.total_ms >= inner.total_ms);
        assert!((outer.self_ms - (outer.total_ms - inner.total_ms)).abs() < 1e-9);
    }
}
