//! `serve-mixed`: writes beside reads, on two threads sharing one `Service`.
//!
//! The writer runs a fixed script in a closed loop: re-ingests of the two
//! read series (dedupe hits), a cold ingest of series W and two appends to
//! it, a cold ingest of series V, a re-ingest of V (dedupe) and two appends
//! to V. Appends re-key an entry, so each pass's ingests of W and V are cold
//! again. The cache budget is set from the measured footprints so that the
//! working set does not fit: every pass evicts the previous pass's grown W
//! and V, and never the read series, which the writer touches first.
//!
//! The reader sends multi-window `window` requests on the two read series on
//! a fixed schedule (open loop) and times each from when it was due.

use crate::common::{
    append_line, cache_counters, ingest_line, response_id, serve, window_line, Budget, Outcome,
};
use crate::gen::{sequence, Rng, Shape};
use crate::jsonr::{self, J};
use crate::oracle;
use crate::stats::Hist;
use crate::trace::Tracer;
use lis_mpc::AppendableLisKernel;
use lis_service::{Service, ServiceConfig};
use monge::PermutationMatrix;
use mpc_runtime::{Cluster, MpcConfig};
use seaweed_lis::lis::{lis_kernel_permutation, SemiLocalLis};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Length of the two read series.
pub const READ_N: usize = 1 << 13;
/// Length of the two written series at ingest.
pub const WRITE_N: usize = 1 << 14;
/// Elements per appended block (the service's comb granularity).
pub const BLOCK: usize = 1024;
/// Appends per written series per pass.
const APPENDS: usize = 2;
/// The writer's pause between a response and its next request. An assumed
/// client, not measured traffic: it stands in for a remote writer's round
/// trip, during which the service holds no lock. Without it the writer
/// retakes the cache lock ahead of the woken reader, and the length of these
/// chains swings the read tail from run to run (see the README).
const THINK: Duration = Duration::from_millis(1);
/// The reader's schedule (assumed): one request every `READ_PERIOD`.
pub const READ_PERIOD: Duration = Duration::from_millis(2);
const WINDOWS_PER_READ: usize = 4;
/// Distinct read requests, cycled.
const READ_REQUESTS: usize = 256;
/// About one read answer in this many is kept for checks.
const SAMPLE_EVERY: usize = 16;
const MAX_SAMPLES: usize = 2000;

/// One step of the writer's script.
#[derive(Clone, Copy, Debug)]
enum Step {
    Reingest(usize),
    Ingest(usize),
    Append(usize, usize),
}

/// Series 0 and 1 are read; 2 (W) and 3 (V) are written.
const SCRIPT: [Step; 9] = [
    Step::Reingest(0),
    Step::Reingest(1),
    Step::Ingest(2),
    Step::Append(2, 0),
    Step::Append(2, 1),
    Step::Ingest(3),
    Step::Reingest(3),
    Step::Append(3, 0),
    Step::Append(3, 1),
];

struct Inputs {
    series: Vec<Vec<u32>>,
    /// `blocks[s]`: the blocks appended to series `s` in each pass.
    blocks: Vec<Vec<Vec<u32>>>,
    reads: Vec<(usize, Vec<(usize, usize)>)>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, "serve-mixed");
    let series = vec![
        sequence(Shape::Permutation, READ_N, &mut rng),
        sequence(Shape::DuplicateTrend, READ_N, &mut rng),
        sequence(Shape::NearSorted, WRITE_N, &mut rng),
        sequence(Shape::Permutation, WRITE_N, &mut rng),
    ];
    let blocks = (0..series.len())
        .map(|s| {
            (0..APPENDS)
                .map(|_| (0..BLOCK).map(|_| rng.below(WRITE_N + s) as u32).collect())
                .collect()
        })
        .collect();
    let reads = (0..READ_REQUESTS)
        .map(|i| {
            (
                i % 2,
                (0..WINDOWS_PER_READ).map(|_| rng.window(READ_N)).collect(),
            )
        })
        .collect();
    Inputs {
        series,
        blocks,
        reads,
    }
}

/// The sequence a script step leaves behind, and whether its answer must
/// come from cache.
fn expected_after(inputs: &Inputs, k: usize) -> (Vec<u32>, bool) {
    let (s, appended, cached) = match SCRIPT[k] {
        Step::Reingest(s) => (
            s,
            SCRIPT[..k]
                .iter()
                .filter(|st| matches!(st, Step::Append(t, _) if *t == s))
                .count(),
            true,
        ),
        Step::Ingest(s) => (s, 0, false),
        Step::Append(s, b) => (s, b + 1, false),
    };
    let mut seq = inputs.series[s].clone();
    for block in &inputs.blocks[s][..appended] {
        seq.extend_from_slice(block);
    }
    (seq, cached)
}

struct Writer<'a> {
    svc: &'a Service,
    inputs: &'a Inputs,
    ids: Vec<String>,
}

impl Writer<'_> {
    fn line(&self, step: Step) -> String {
        match step {
            Step::Reingest(s) | Step::Ingest(s) => ingest_line(&self.inputs.series[s]),
            Step::Append(s, b) => append_line(&self.ids[s], &self.inputs.blocks[s][b]),
        }
    }

    /// Runs one step; the answer's id addresses the series' next append.
    fn step(&mut self, step: Step, tracer: &mut Tracer, op: u64) -> String {
        let line = self.line(step);
        let text = serve(self.svc, &line, tracer, op);
        let (Step::Reingest(s) | Step::Ingest(s) | Step::Append(s, _)) = step;
        if let Some(id) = response_id(&text) {
            self.ids[s] = id.to_string();
        }
        text
    }
}

struct Setup {
    inputs: Inputs,
    svc: Service,
    read_lines: Vec<String>,
    ids: Vec<String>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let inputs = inputs(seed);
    let mut off = Tracer::new(false, Instant::now(), 0);
    // Measure the steady working set on an unbounded cache: the read series
    // plus one pass of the script.
    let probe = Service::new(ServiceConfig {
        budget_bytes: usize::MAX,
        ..ServiceConfig::default()
    });
    let stats_bytes = |svc: &Service| -> Result<usize, String> {
        let v = jsonr::parse(&svc.handle_line(r#"{"op":"stats"}"#).to_string())?;
        v.get("bytes")
            .and_then(J::uint)
            .ok_or("stats answer lacks bytes".to_string())
    };
    let mut writer = Writer {
        svc: &probe,
        inputs: &inputs,
        ids: vec![String::new(); 4],
    };
    writer.step(Step::Ingest(0), &mut off, 0);
    let smallest = stats_bytes(&probe)?;
    writer.step(Step::Ingest(1), &mut off, 0);
    for step in SCRIPT {
        writer.step(step, &mut off, 0);
    }
    let steady = stats_bytes(&probe)?;
    drop(probe);

    // The measured service: the steady set fits, one more cold entry does not.
    let svc = Service::new(ServiceConfig {
        budget_bytes: steady + smallest / 8,
        ..ServiceConfig::default()
    });
    let mut writer = Writer {
        svc: &svc,
        inputs: &inputs,
        ids: vec![String::new(); 4],
    };
    writer.step(Step::Ingest(0), &mut off, 0);
    writer.step(Step::Ingest(1), &mut off, 0);
    for step in SCRIPT {
        writer.step(step, &mut off, 0);
    }
    let ids = writer.ids;
    let read_lines: Vec<String> = inputs
        .reads
        .iter()
        .map(|(s, w)| window_line(&ids[*s], w))
        .collect();
    for line in &read_lines {
        svc.handle_line(line);
    }
    Ok(Setup {
        inputs,
        svc,
        read_lines,
        ids,
    })
}

/// What the reader thread observed.
struct ReadLog {
    latencies: Hist,
    /// `(due, done)` offsets from the run's origin, in ns (traced only).
    intervals: Vec<(u64, u64)>,
    samples: Vec<(usize, String)>,
    first_due: Instant,
    last_done: Instant,
    failed: u64,
    tracer: Tracer,
}

fn reader(
    setup: &Setup,
    max_reads: Option<u64>,
    writer_done: &AtomicBool,
    seed: u64,
    traced: bool,
    origin: Instant,
) -> ReadLog {
    let mut rng = Rng::new(seed, "serve-mixed-sample");
    let start = Instant::now();
    let mut log = ReadLog {
        latencies: Hist::default(),
        intervals: Vec::new(),
        samples: Vec::new(),
        first_due: start,
        last_done: start,
        failed: 0,
        tracer: Tracer::new(traced, origin, 1),
    };
    for k in 0u64.. {
        match max_reads {
            Some(max) if k >= max => break,
            None if writer_done.load(Ordering::SeqCst) => break,
            _ => {}
        }
        let due = start + READ_PERIOD * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let i = k as usize % setup.read_lines.len();
        let text = serve(
            &setup.svc,
            &setup.read_lines[i],
            &mut log.tracer,
            1 << 40 | k,
        );
        let done = Instant::now();
        log.latencies.record((done - due).as_nanos() as u64);
        log.last_done = done;
        if traced {
            log.tracer
                .record("serve-mixed.read", (done - due).as_nanos() as u64);
            log.intervals.push((
                (due - origin).as_nanos() as u64,
                (done - origin).as_nanos() as u64,
            ));
        }
        if text.starts_with(r#"{"ok":false"#) {
            log.failed += 1;
        }
        if rng.below(SAMPLE_EVERY) == 0 && log.samples.len() < MAX_SAMPLES {
            log.samples.push((i, text));
        }
    }
    log
}

fn check_write(inputs: &Inputs, k: usize, text: &str) -> Result<(), String> {
    let v = jsonr::parse(text)?;
    if v.get("ok").and_then(J::bool) != Some(true) {
        return Err(format!("request failed: {text}"));
    }
    let (seq, cached) = expected_after(inputs, k);
    if cached && v.get("cached").and_then(J::bool) != Some(true) {
        return Err(format!(
            "re-ingest of a hot series was not answered from cache: {text}"
        ));
    }
    let lis = v.get("lis").and_then(J::uint);
    if v.get("n").and_then(J::uint) != Some(seq.len()) || lis != Some(oracle::lis_len(&seq)) {
        return Err(format!(
            "answered n or LIS wrong (n = {}): {text}",
            seq.len()
        ));
    }
    Ok(())
}

fn check_read(setup: &Setup, i: usize, text: &str) -> Result<(), String> {
    let v = jsonr::parse(text)?;
    let (s, windows) = &setup.inputs.reads[i];
    let lis = v
        .get("lis")
        .and_then(J::uints)
        .ok_or(format!("read failed: {text}"))?;
    if lis.len() != windows.len() {
        return Err("wrong number of window answers".to_string());
    }
    for (&got, &(l, r)) in lis.iter().zip(windows) {
        let expected = oracle::lis_window(&setup.inputs.series[*s], l, r);
        if got != expected {
            return Err(format!("window [{l}, {r}): {got}, patience LIS {expected}"));
        }
    }
    Ok(())
}

/// Ranks of a block (value ascending, ties by descending position): the
/// permutation the service combs for it.
fn block_ranks(block: &[u32]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..block.len()).collect();
    order.sort_by_key(|&i| (block[i], std::cmp::Reverse(i)));
    let mut ranks = vec![0u32; block.len()];
    for (r, &i) in order.iter().enumerate() {
        ranks[i] = r as u32;
    }
    ranks
}

/// The `append` answers' own figures, per pass: the `service-append` ledger
/// scope (`ledger.append_rounds`, `.append_comm`) of each written series' last
/// append in the pass, which covers all of that pass's appends to it, and the
/// `stats.recombed_items` of every append.
fn append_ledger(write_log: &[(usize, String)], passes: u64, out: &mut Outcome) {
    let (mut rounds, mut comm, mut recombed) = (0.0, 0.0, 0.0);
    for (k, text) in write_log {
        let Step::Append(_, b) = SCRIPT[*k] else {
            continue;
        };
        // A failed answer is already counted and reported by `check_write`.
        let Ok(v) = jsonr::parse(text) else {
            continue;
        };
        if v.get("ok").and_then(J::bool) != Some(true) {
            continue;
        }
        let field = |block: &str, f: &str| v.get(block).and_then(|x| x.get(f)).and_then(J::num);
        let figures = (
            field("stats", "recombed_items"),
            field("ledger", "append_rounds"),
            field("ledger", "append_comm"),
        );
        let (Some(items), Some(r), Some(c)) = figures else {
            out.error(format!("append answer lacks its stats or ledger: {text}"));
            continue;
        };
        recombed += items;
        if b + 1 == APPENDS {
            rounds += r;
            comm += c;
        }
    }
    let passes = passes.max(1) as f64;
    out.pass_rounds = (rounds / passes).round() as u64;
    out.pass_comm = (comm / passes).round() as u64;
    out.add_layer("lis-mpc.append_recombed_items", recombed / passes);
}

fn random_permutation(n: usize, rng: &mut Rng) -> PermutationMatrix {
    let mut rows: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut rows);
    PermutationMatrix::from_rows(rows)
}

/// Times the layer calls beneath one pass's builds, appends and folds of W
/// and V, run on the benchmark's own `AppendableLisKernel` as the service
/// runs them (the service keeps its kernels private).
fn probe_write_layers(inputs: &Inputs, seed: u64, tracer: &mut Tracer) {
    let mut rng = Rng::new(seed, "serve-mixed-probe");
    let block_size = ServiceConfig::default().block_size;
    for s in [2, 3] {
        let seq = &inputs.series[s];
        let mut cluster = Cluster::new(MpcConfig::lenient(
            seq.len(),
            ServiceConfig::default().delta,
        ));
        let mut kernel = AppendableLisKernel::build(&mut cluster, seq, block_size);
        tracer.span("lis-mpc.fold", s as u64, |_| {
            black_box(kernel.kernel(&mut cluster).x_len())
        });
        for block in &inputs.blocks[s] {
            let ranks = block_ranks(block);
            tracer.span("seaweed-lis.comb", s as u64, |_| {
                black_box(lis_kernel_permutation(&ranks))
            });
            tracer.span("lis-mpc.append", s as u64, |_| {
                kernel.append(&mut cluster, block)
            });
            // `⊡` on random permutations of each fold merge's operand size.
            let sizes = kernel.spine_sizes();
            let mut acc = sizes[0];
            for &node in &sizes[1..] {
                acc += node;
                let (a, b) = (
                    random_permutation(2 * acc, &mut rng),
                    random_permutation(2 * acc, &mut rng),
                );
                tracer.span("monge.steady_ant", s as u64, |_| {
                    black_box(monge::mul(&a, &b))
                });
            }
            let root = tracer.span("lis-mpc.fold", s as u64, |_| {
                kernel.kernel(&mut cluster).clone()
            });
            tracer.span("seaweed-lis.index_build", s as u64, |_| {
                black_box(SemiLocalLis::from_kernel(&root))
            });
        }
    }
}

pub fn run(seed: u64, budget: Budget, setups: usize, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut prepared = None;
    for _ in 0..setups {
        // Drop the previous set-up first, so `peak_rss_mb` sees one service.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(setup(seed));
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = match prepared.expect("at least one set-up") {
        Ok(setup) => setup,
        Err(e) => {
            out.error(format!("set-up failed: {e}"));
            return out;
        }
    };
    let max_reads = match budget {
        Budget::Seconds { seconds, .. } => {
            Some((seconds / READ_PERIOD.as_secs_f64()).ceil() as u64)
        }
        Budget::Passes(_) => None,
    };
    let (hits0, misses0, evictions0) = cache_counters(&setup.svc).unwrap_or_default();
    let writer_done = AtomicBool::new(false);
    let origin = tracer.origin();
    let traced = tracer.on();
    let mut write_log: Vec<(usize, String)> = Vec::new();
    let mut write_intervals: Vec<(u64, u64)> = Vec::new();
    let mut by_step: Vec<Hist> = vec![Hist::default(); SCRIPT.len()];
    let mut passes = 0u64;
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(&setup, max_reads, &writer_done, seed, traced, origin));
        let mut writer = Writer {
            svc: &setup.svc,
            inputs: &setup.inputs,
            ids: setup.ids.clone(),
        };
        let started = Instant::now();
        let mut writes = 0u64;
        loop {
            let more = match budget {
                Budget::Seconds { .. } => !reader.is_finished() || passes == 0,
                Budget::Passes(n) => passes < n,
            };
            if !more {
                break;
            }
            for (k, &step) in SCRIPT.iter().enumerate() {
                let op = writes;
                writes += 1;
                let t0 = Instant::now();
                let text = writer.step(step, tracer, op);
                let t1 = Instant::now();
                out.writes.record((t1 - t0).as_nanos() as u64);
                by_step[k].record((t1 - t0).as_nanos() as u64);
                if traced {
                    write_intervals.push((
                        (t0 - origin).as_nanos() as u64,
                        (t1 - origin).as_nanos() as u64,
                    ));
                }
                write_log.push((k, text));
                std::thread::sleep(THINK);
            }
            passes += 1;
        }
        out.write_clock_s = started.elapsed().as_secs_f64();
        writer_done.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread panicked")
    });

    out.ops = reads.latencies.clone();
    out.clock_s = (reads.last_done - reads.first_due).as_secs_f64();
    out.attempted = reads.latencies.count() + write_log.len() as u64;
    out.failed = reads.failed
        + write_log
            .iter()
            .filter(|(_, t)| t.starts_with(r#"{"ok":false"#))
            .count() as u64;
    out.notes.push(format!(
        "{passes} writer passes ({} writes), {} reads every {:?}",
        write_log.len(),
        reads.latencies.count(),
        READ_PERIOD
    ));

    for (step, hist) in SCRIPT.iter().zip(&by_step) {
        out.notes.push(format!(
            "{:<16} median {:.3} ms",
            format!("{step:?}"),
            hist.quantile(0.5) / 1e6
        ));
    }

    // Off the clock: checks, counters, the append ledger and layer probes.
    for (k, text) in &write_log {
        if let Err(e) = check_write(&setup.inputs, *k, text) {
            out.error(format!("serve-mixed write step {k}: {e}"));
        }
    }
    for (i, text) in &reads.samples {
        if let Err(e) = check_read(&setup, *i, text) {
            out.error(format!("serve-mixed read {i}: {e}"));
        }
    }
    if let Ok((hits, misses, evictions)) = cache_counters(&setup.svc) {
        let (h, m) = (hits - hits0, misses - misses0);
        out.add_layer("lis-service.cache_hit_ratio", h / (h + m).max(1.0));
        out.add_layer(
            "lis-service.cache_evictions",
            (evictions - evictions0) / passes.max(1) as f64,
        );
    }
    if traced {
        // Reads whose due-to-done interval overlaps a write in flight.
        let mut stalled = Hist::default();
        for &(due, done) in &reads.intervals {
            let w = write_intervals.partition_point(|&(_, end)| end <= due);
            if write_intervals
                .get(w)
                .is_some_and(|&(start, _)| start < done)
            {
                stalled.record(done - due);
            }
        }
        out.add_layer("lis-service.reads_behind_write", stalled.count() as f64);
        out.add_layer("lis-service.read_stall_ms", stalled.quantile(0.5) / 1e6);
    }
    tracer.absorb(reads.tracer);
    append_ledger(&write_log, passes, &mut out);
    if traced {
        probe_write_layers(&setup.inputs, seed, tracer);
    }
    out
}
