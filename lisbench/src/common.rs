//! What every workload shares: run budgets, the outcome record, request
//! lines and the traced request path.

use crate::stats::Hist;
use crate::trace::Tracer;
use lis_service::{error_response, Request, Service};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long a workload loop runs. Loops always run whole passes of their
/// fixed operation list, so every run attempts the same operations in the
/// same proportions.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Passes until `seconds` of measured time, and at least `min_ops`
    /// operations.
    Seconds { seconds: f64, min_ops: u64 },
    /// Exactly this many passes (the traced tour of the other workloads).
    Passes(u64),
}

impl Budget {
    pub fn more(&self, passes: u64, measured_s: f64, ops: u64) -> bool {
        match *self {
            Budget::Seconds { seconds, min_ops } => measured_s < seconds || ops < min_ops,
            Budget::Passes(n) => passes < n,
        }
    }
}

/// What one workload run observed.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every measured operation (serve-mixed: reads only).
    pub ops: Hist,
    /// Latency of write operations (see the README for each workload's).
    pub writes: Hist,
    /// Time base of `throughput_per_s`.
    pub clock_s: f64,
    /// Time base of `write_throughput_per_s`.
    pub write_clock_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated rounds and items moved by one pass of the operation list.
    pub pass_rounds: u64,
    pub pass_comm: u64,
    /// Correctness findings (empty when every checked output was right).
    pub errors: Vec<String>,
    /// Per-layer counts measured by this run.
    pub layer: BTreeMap<String, f64>,
    /// Notes for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        } else if self.errors.len() == 20 {
            self.errors.push("(further errors omitted)".to_string());
        }
    }

    pub fn add_layer(&mut self, name: &str, value: f64) {
        *self.layer.entry(name.to_string()).or_default() += value;
    }
}

fn join<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

pub fn ingest_line(seq: &[u32]) -> String {
    format!(r#"{{"op":"ingest","seq":[{}]}}"#, join(seq))
}

pub fn append_line(id: &str, block: &[u32]) -> String {
    format!(r#"{{"op":"append","id":"{id}","block":[{}]}}"#, join(block))
}

pub fn window_line(id: &str, windows: &[(usize, usize)]) -> String {
    let mut list = String::new();
    for (i, (l, r)) in windows.iter().enumerate() {
        let _ = write!(list, "{}[{l},{r}]", if i == 0 { "" } else { "," });
    }
    format!(r#"{{"op":"window","id":"{id}","windows":[{list}]}}"#)
}

pub fn witness_line(id: &str, ranges: &[(u32, u32)]) -> String {
    if let [(lo, hi)] = ranges {
        return format!(r#"{{"op":"witness","id":"{id}","lo":{lo},"hi":{hi}}}"#);
    }
    let mut list = String::new();
    for (i, (lo, hi)) in ranges.iter().enumerate() {
        let _ = write!(list, "{}[{lo},{hi}]", if i == 0 { "" } else { "," });
    }
    format!(r#"{{"op":"witness","id":"{id}","ranges":[{list}]}}"#)
}

/// Sends one request line and renders the response as a transport would.
/// Untraced, this is `Service::handle_line`; traced, the same work split
/// into `Request::parse`, `Service::handle` and rendering, each in a span.
pub fn serve(svc: &Service, line: &str, tracer: &mut Tracer, op: u64) -> String {
    if !tracer.on() {
        return svc.handle_line(line).to_string();
    }
    tracer.span("lis-service.request", op, |t| {
        let parsed = t.span("lis-service.parse", op, |_| Request::parse(line));
        let value = match parsed {
            Ok(request) => {
                let name = match request {
                    Request::Ingest { .. } => "lis-service.handle.ingest",
                    Request::Window { .. } => "lis-service.handle.window",
                    Request::Witness { .. } => "lis-service.handle.witness",
                    Request::Append { .. } => "lis-service.handle.append",
                    Request::Stats | Request::Shutdown => "lis-service.handle.other",
                };
                t.span(name, op, |_| svc.handle(&request))
            }
            Err(e) => error_response(&e),
        };
        t.span("lis-service.render", op, |_| value.to_string())
    })
}

/// The `"id"` field of a response, read without a full parse (the client
/// needs it on the clock to address its next request).
pub fn response_id(text: &str) -> Option<&str> {
    let start = text.find(r#""id":""#)? + 6;
    let len = text[start..].find('"')?;
    Some(&text[start..start + len])
}

/// Cache counters `(hits, misses, evictions)` from a `stats` request.
pub fn cache_counters(svc: &Service) -> Result<(f64, f64, f64), String> {
    let text = svc.handle_line(r#"{"op":"stats"}"#).to_string();
    let v = crate::jsonr::parse(&text)?;
    let cache = v.get("cache").ok_or("stats answer has no cache block")?;
    let field = |k: &str| {
        cache
            .get(k)
            .and_then(|x| x.num())
            .ok_or(format!("stats answer lacks `{k}`"))
    };
    Ok((field("hits")?, field("misses")?, field("evictions")?))
}
