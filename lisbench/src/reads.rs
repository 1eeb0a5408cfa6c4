//! `serve-reads`: one closed-loop client against a `Service` whose cache
//! holds a few seeded series, hot and within budget. Windows and witness
//! traces are warmed in set-up, so no kernel is built and no MPC pipeline
//! runs in the loop. Every request goes through `Service::handle_line` as
//! text.

use crate::common::{
    cache_counters, ingest_line, serve, window_line, witness_line, Budget, Outcome,
};
use crate::gen::{sequence, value_range, Rng, Shape};
use crate::jsonr::{self, J};
use crate::oracle;
use crate::trace::Tracer;
use lis_mpc::{recover_batch, WitnessTrace};
use lis_service::{Service, ServiceConfig};
use mpc_runtime::{Cluster, MpcConfig};
use seaweed_lis::lis::{lis_kernel, SemiLocalLis};
use std::time::Instant;

/// Length of every served series.
pub const SERIES_N: usize = 1 << 14;
/// Shapes of the served series.
const SERIES: [Shape; 4] = [
    Shape::Permutation,
    Shape::DuplicateTrend,
    Shape::NearSorted,
    Shape::Permutation,
];
/// The operation list of one pass, spread evenly over the series.
const WINDOW_REQUESTS: usize = 168;
const WINDOWS_PER_REQUEST: usize = 8;
const MULTI_WITNESS_REQUESTS: usize = 12;
const SINGLE_WITNESS_REQUESTS: usize = 16;
const REINGESTS: usize = 8;
/// Witness value ranges cover these shares of a series' values, so every
/// seed asks for the same amount of traceback work.
const RANGE_SHARES: [f64; 4] = [1.0, 0.5, 0.25, 0.1];
/// After the first pass, about one answer in this many is kept for checks.
const SAMPLE_EVERY: usize = 200;
const MAX_SAMPLES: usize = 3000;

enum Kind {
    Window(Vec<(usize, usize)>),
    Witness(Vec<(u32, u32)>),
    Reingest,
}

struct Req {
    series: usize,
    kind: Kind,
    line: String,
}

struct Served {
    seqs: Vec<Vec<u32>>,
    ids: Vec<String>,
    svc: Service,
    reqs: Vec<Req>,
}

fn ingest(svc: &Service, seq: &[u32]) -> Result<String, String> {
    let text = svc.handle_line(&ingest_line(seq)).to_string();
    crate::common::response_id(&text)
        .map(str::to_string)
        .ok_or(format!("ingest failed: {text}"))
}

fn setup(seed: u64) -> Result<Served, String> {
    let mut rng = Rng::new(seed, "serve-reads");
    let seqs: Vec<Vec<u32>> = SERIES
        .iter()
        .map(|&s| sequence(s, SERIES_N, &mut rng))
        .collect();
    let svc = Service::new(ServiceConfig::default());
    let ids = seqs
        .iter()
        .map(|seq| ingest(&svc, seq))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm the lazy window index and witness trace of every series.
    for id in &ids {
        svc.handle_line(&window_line(id, &[(0, SERIES_N)]));
        svc.handle_line(&witness_line(id, &[(0, u32::MAX), (0, 1)]));
    }
    let mut reqs = Vec::new();
    let mut add = |series: usize, kind: Kind| {
        let id = &ids[series];
        let line = match &kind {
            Kind::Window(windows) => window_line(id, windows),
            Kind::Witness(ranges) => witness_line(id, ranges),
            Kind::Reingest => ingest_line(&seqs[series]),
        };
        reqs.push(Req { series, kind, line });
    };
    let max_of = |s: usize| *seqs[s].iter().max().expect("series are non-empty");
    let n = SERIES.len();
    for i in 0..WINDOW_REQUESTS {
        add(
            i % n,
            Kind::Window(
                (0..WINDOWS_PER_REQUEST)
                    .map(|_| rng.window(SERIES_N))
                    .collect(),
            ),
        );
    }
    for i in 0..MULTI_WITNESS_REQUESTS {
        let ranges = RANGE_SHARES
            .iter()
            .map(|&f| value_range(max_of(i % n), f, &mut rng))
            .collect();
        add(i % n, Kind::Witness(ranges));
    }
    for i in 0..SINGLE_WITNESS_REQUESTS {
        let share = RANGE_SHARES[i / n % RANGE_SHARES.len()];
        add(
            i % n,
            Kind::Witness(vec![value_range(max_of(i % n), share, &mut rng)]),
        );
    }
    for i in 0..REINGESTS {
        add(i % n, Kind::Reingest);
    }
    rng.shuffle(&mut reqs);
    Ok(Served {
        seqs,
        ids,
        svc,
        reqs,
    })
}

fn check(served: &Served, req: &Req, text: &str) -> Result<(), String> {
    let seq = &served.seqs[req.series];
    let v = jsonr::parse(text)?;
    if v.get("ok").and_then(J::bool) != Some(true) {
        return Err(format!("request failed: {text}"));
    }
    match &req.kind {
        Kind::Window(windows) => {
            let lis = v
                .get("lis")
                .and_then(J::uints)
                .ok_or("window answer lacks `lis`")?;
            if lis.len() != windows.len() {
                return Err(format!(
                    "{} answers for {} windows",
                    lis.len(),
                    windows.len()
                ));
            }
            for (&got, &(l, r)) in lis.iter().zip(windows) {
                let expected = oracle::lis_window(seq, l, r);
                if got != expected {
                    return Err(format!("window [{l}, {r}): {got}, patience LIS {expected}"));
                }
            }
        }
        Kind::Witness(ranges) => {
            let witnesses = v
                .get("witnesses")
                .and_then(J::arr)
                .ok_or("witness answer lacks `witnesses`")?;
            if witnesses.len() != ranges.len() {
                return Err(format!(
                    "{} witnesses for {} ranges",
                    witnesses.len(),
                    ranges.len()
                ));
            }
            for (w, &(lo, hi)) in witnesses.iter().zip(ranges) {
                let positions = w
                    .get("positions")
                    .and_then(J::uints)
                    .ok_or("witness lacks positions")?;
                let values = w
                    .get("values")
                    .and_then(J::uints)
                    .ok_or("witness lacks values")?;
                if positions
                    .iter()
                    .zip(&values)
                    .any(|(&p, &x)| seq.get(p).map(|&s| s as usize) != Some(x))
                    || positions.len() != values.len()
                {
                    return Err(
                        "witness values do not match the series at its positions".to_string()
                    );
                }
                oracle::check_witness(
                    seq,
                    &positions,
                    lo,
                    hi,
                    oracle::lis_value_range(seq, lo, hi),
                )?;
            }
        }
        Kind::Reingest => {
            if v.get("cached").and_then(J::bool) != Some(true) {
                return Err(format!(
                    "re-ingest of a hot series was not answered from cache: {text}"
                ));
            }
            if v.get("id").and_then(J::str) != Some(served.ids[req.series].as_str()) {
                return Err("re-ingest answered another id".to_string());
            }
            if v.get("n").and_then(J::uint) != Some(seq.len())
                || v.get("lis").and_then(J::uint) != Some(oracle::lis_len(seq))
            {
                return Err(format!("re-ingest answered a wrong n or LIS: {text}"));
            }
        }
    }
    Ok(())
}

/// Value range `[lo, hi)` to the rank window the traceback works in.
fn rank_window(sorted: &[u32], lo: u32, hi: u32) -> (usize, usize) {
    (
        sorted.partition_point(|&v| v < lo),
        sorted.partition_point(|&v| v < hi),
    )
}

/// Replays one pass's witness descents through `lis_mpc::recover_batch` on
/// each series' trace, as the service runs them, on clusters of the
/// benchmark's own: the service reports no ledger for witness answers, so
/// the pass's rounds and items are this replay's, not the service's. Traced,
/// it also times each descent.
fn replay_descents(served: &Served, tracer: &mut Tracer, out: &mut Outcome) {
    let block = ServiceConfig::default().block_size;
    let traces: Vec<WitnessTrace> = served
        .seqs
        .iter()
        .map(|s| WitnessTrace::record(s, block))
        .collect();
    let sorted: Vec<Vec<u32>> = served
        .seqs
        .iter()
        .map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            v
        })
        .collect();
    for (op, req) in served.reqs.iter().enumerate() {
        let Kind::Witness(ranges) = &req.kind else {
            continue;
        };
        let windows: Vec<(usize, usize)> = ranges
            .iter()
            .map(|&(lo, hi)| rank_window(&sorted[req.series], lo, hi))
            .collect();
        let mut cluster =
            Cluster::new(MpcConfig::lenient(SERIES_N, ServiceConfig::default().delta));
        let started = Instant::now();
        tracer.span("lis-mpc.recover_batch", op as u64, |_| {
            recover_batch(
                &mut cluster,
                &traces[req.series],
                &windows,
                "service-witness",
            )
        });
        if ranges.len() == 1 {
            tracer.record(
                "lis-mpc.recover_batch.single",
                started.elapsed().as_nanos() as u64,
            );
        }
        out.pass_rounds += cluster.ledger().rounds;
        out.pass_comm += cluster.ledger().communication;
    }
}

/// Times `SemiLocalLis::lis_window` on one pass's windows.
fn probe_windows(served: &Served, tracer: &mut Tracer) {
    let index: Vec<SemiLocalLis> = served
        .seqs
        .iter()
        .map(|s| SemiLocalLis::from_kernel(&lis_kernel(s)))
        .collect();
    for (op, req) in served.reqs.iter().enumerate() {
        if let Kind::Window(windows) = &req.kind {
            for &(l, r) in windows {
                std::hint::black_box(tracer.span("seaweed-lis.window_query", op as u64, |_| {
                    index[req.series].lis_window(l, r)
                }));
            }
        }
    }
}

pub fn run(seed: u64, budget: Budget, setups: usize, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut served = None;
    for _ in 0..setups {
        // Drop the previous set-up first, so `peak_rss_mb` sees one service.
        drop(served.take());
        let started = Instant::now();
        served = Some(setup(seed));
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    let served = match served.expect("at least one set-up") {
        Ok(served) => served,
        Err(e) => {
            out.error(format!("set-up failed: {e}"));
            return out;
        }
    };
    out.notes.push(format!(
        "{} series of n = {SERIES_N}; {} requests per pass",
        served.seqs.len(),
        served.reqs.len()
    ));

    let (hits0, misses0, _) = cache_counters(&served.svc).unwrap_or_default();
    let mut sample_rng = Rng::new(seed, "serve-reads-sample");
    let mut samples: Vec<(usize, String)> = Vec::new();
    let (mut batch_sizes, mut batch_answers) = (0.0, 0.0);
    let mut passes = 0u64;
    while budget.more(passes, out.clock_s, out.attempted) {
        for (k, req) in served.reqs.iter().enumerate() {
            let op = out.attempted;
            out.attempted += 1;
            let started = Instant::now();
            let text = serve(&served.svc, &req.line, tracer, op);
            let ns = started.elapsed().as_nanos() as u64;
            out.clock_s += ns as f64 / 1e9;
            out.ops.record(ns);
            match &req.kind {
                Kind::Reingest => out.writes.record(ns),
                Kind::Witness(ranges) if tracer.on() => {
                    if ranges.len() == 1 {
                        tracer.record("lis-service.witness_single", ns);
                    }
                    if let Some(b) = jsonr::parse(&text)
                        .ok()
                        .and_then(|v| v.get("batch").and_then(J::num))
                    {
                        batch_sizes += b;
                        batch_answers += 1.0;
                    }
                }
                _ => {}
            }
            if text.starts_with(r#"{"ok":false"#) {
                out.failed += 1;
            }
            if (passes == 0 || sample_rng.below(SAMPLE_EVERY) == 0) && samples.len() < MAX_SAMPLES {
                samples.push((k, text));
            }
        }
        passes += 1;
    }
    out.write_clock_s = out.clock_s;

    // Off the clock: checks, counters, the descent replay and layer probes.
    for (k, text) in &samples {
        if let Err(e) = check(&served, &served.reqs[*k], text) {
            out.error(format!("serve-reads request {k}: {e}"));
        }
    }
    out.notes.push(format!(
        "{passes} passes; {} answers checked",
        samples.len()
    ));
    if let Ok((hits, misses, evictions)) = cache_counters(&served.svc) {
        let (h, m) = (hits - hits0, misses - misses0);
        out.add_layer("lis-service.cache_hit_ratio", h / (h + m).max(1.0));
        out.add_layer(
            "lis-service.cache_evictions",
            evictions / passes.max(1) as f64,
        );
    }
    if batch_answers > 0.0 {
        out.add_layer(
            "lis-service.witness_batch_size",
            batch_sizes / batch_answers,
        );
    }
    replay_descents(&served, tracer, &mut out);
    if tracer.on() {
        probe_windows(&served, tracer);
    }
    out
}
