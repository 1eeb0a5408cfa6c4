//! Traced mode: spans around the benchmark's calls into each layer's public
//! functions. Spans (name, start, end, parent, operation id, thread) stay in
//! memory and are written out as a Chrome trace-event file when the run
//! ends; per-name aggregates (count, total and self time, duration
//! histogram) feed the per-layer metrics and the self-time table. Self time
//! is a span's duration minus the part its child spans cover.
//!
//! With tracing off, [`Tracer::span`] only calls its closure.

use crate::stats::Hist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; aggregates cover every span regardless.
const MAX_KEPT_SPANS: usize = 200_000;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    thread: u32,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    kept: Option<usize>,
    op: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Hist,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant, thread: u32) -> Self {
        Self {
            on,
            origin,
            thread,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start = Instant::now();
        let kept = (self.spans.len() < MAX_KEPT_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().and_then(|o| o.kept),
                op,
                thread: self.thread,
            });
            self.spans.len() - 1
        });
        if kept.is_none() {
            self.dropped += 1;
        }
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            kept,
            op,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span opened above");
        debug_assert_eq!((open.name, open.op), (name, op));
        let dur = (end - open.start).as_nanos() as u64;
        if let Some(i) = open.kept {
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.note(name, dur, dur.saturating_sub(open.child_ns));
        out
    }

    /// Records a duration measured by the caller (e.g. a read timed from
    /// when it was due) under `name`, as a leaf.
    pub fn record(&mut self, name: &'static str, dur_ns: u64) {
        if self.on {
            self.note(name, dur_ns, dur_ns);
        }
    }

    fn note(&mut self, name: &'static str, dur: u64, self_ns: u64) {
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        agg.durations.record(dur);
    }

    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.aggs.get(name)
    }

    /// Median duration of `name`'s spans in nanoseconds.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.agg(name).map(|a| a.durations.quantile(0.5))
    }

    /// Folds another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut span in other.spans {
            if self.spans.len() >= MAX_KEPT_SPANS {
                self.dropped += 1;
                continue;
            }
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
        self.dropped += other.dropped;
        for (name, theirs) in other.aggs {
            let agg = self.aggs.entry(name).or_default();
            agg.count += theirs.count;
            agg.total_ns += theirs.total_ns;
            agg.self_ns += theirs.self_ns;
            agg.durations.merge(&theirs.durations);
        }
    }

    /// The per-name table with self times.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<34} {:>9} {:>12} {:>12} {:>12}\n",
            "span", "count", "median ms", "total ms", "self ms"
        );
        for (name, agg) in &self.aggs {
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12.4} {:>12.1} {:>12.1}",
                name,
                agg.count,
                agg.durations.quantile(0.5) / 1e6,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "({} spans beyond the first {MAX_KEPT_SPANS} were aggregated but not kept)",
                self.dropped
            );
        }
        out
    }

    /// Writes the kept spans as Chrome trace events (`ph: "X"`), which open
    /// in Perfetto or `about:tracing`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
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
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let outer = t.agg("outer").unwrap();
        let inner = t.agg("inner").unwrap();
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns < inner.total_ns);
        assert_eq!(t.spans[1].parent, Some(0));
        let mut off = Tracer::new(false, Instant::now(), 0);
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.agg("x").is_none());
    }
}
