//! One benchmark for the MPC LIS pipeline and the analytics service.
//!
//! ```text
//! cargo run --release --manifest-path lisbench/Cargo.toml -- \
//!     --workload <lis-batch|serve-reads|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), a run sets the workload up several times, runs
//! its fixed operation list in whole passes for `--seconds` of measured
//! time, checks the outputs off the clock and prints every end-to-end
//! metric. Traced (`--trace 1`), it runs the workload untraced and then
//! traced for half the time each, then one traced pass of each other
//! workload, and prints every per-layer metric plus the tracing overhead.
//! The last line of standard output is always one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod batch;
mod common;
mod gen;
mod jsonr;
mod mixed;
mod oracle;
mod reads;
mod stats;
mod trace;

use common::{Budget, Outcome};
use stats::{median, peak_rss_mb, tail_level};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["lis-batch", "serve-reads", "serve-mixed"];

/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Operations a `lis-batch` run completes at least, so its tail has ten
/// samples beyond it.
const MIN_BATCH_OPS: u64 = 40;

/// `(name, unit)` of every end-to-end metric, in report order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("write_latency_p50_ms", "ms"),
    ("write_throughput_per_s", "1/s"),
    ("mpc_rounds", "rounds"),
    ("mpc_comm_items", "items"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit, home)` of every per-layer metric. A traced run takes each
/// metric from its home workload: from its own loop when it is the home,
/// otherwise from its one traced pass of the home workload. An empty home
/// means the traced run's own workload.
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &str, &str)> = vec![
        ("mpc-runtime.supersteps".into(), "count", "lis-batch"),
        ("mpc-runtime.peak_load_items".into(), "items", "lis-batch"),
    ];
    m.extend(
        batch::PRIMITIVES
            .iter()
            .map(|p| (format!("mpc-runtime.calls.{p}"), "count", "lis-batch")),
    );
    for phase in batch::MONGE_MPC_PHASES {
        m.push((format!("monge-mpc.{phase}.rounds"), "rounds", "lis-batch"));
        m.push((format!("monge-mpc.{phase}.comm"), "items", "lis-batch"));
    }
    for (name, unit, home) in [
        ("lis-mpc.pipeline_ms", "ms", "lis-batch"),
        ("lis-mpc.base.rounds", "rounds", "lis-batch"),
        ("lis-mpc.witness.rounds", "rounds", "lis-batch"),
        ("lis-mpc.merge_levels", "count", "lis-batch"),
        ("lis-mpc.sim_overhead_x", "x", "lis-batch"),
        ("lis-mpc.recover_batch_ms", "ms", "serve-reads"),
        ("lis-mpc.append_ms", "ms", "serve-mixed"),
        ("lis-mpc.fold_ms", "ms", "serve-mixed"),
        ("lis-mpc.append_recombed_items", "items", "serve-mixed"),
        ("seaweed-lis.oracle_kernel_ms", "ms", "lis-batch"),
        ("seaweed-lis.comb_ms", "ms", "serve-mixed"),
        ("seaweed-lis.index_build_ms", "ms", "serve-mixed"),
        ("seaweed-lis.window_query_us", "us", "serve-reads"),
        ("monge.steady_ant_ms", "ms", "serve-mixed"),
        ("lis-service.parse_us", "us", "serve-reads"),
        ("lis-service.handle_us.ingest", "us", "serve-reads"),
        ("lis-service.handle_us.window", "us", "serve-reads"),
        ("lis-service.handle_us.witness", "us", "serve-reads"),
        ("lis-service.handle_us.append", "us", "serve-mixed"),
        ("lis-service.render_us", "us", "serve-reads"),
        ("lis-service.witness_batch_size", "count", "serve-reads"),
        ("lis-service.gather_wait_ms", "ms", "serve-reads"),
        ("lis-service.cache_hit_ratio", "ratio", "serve-mixed"),
        ("lis-service.cache_evictions", "count", "serve-mixed"),
        ("lis-service.reads_behind_write", "count", "serve-mixed"),
        ("lis-service.read_stall_ms", "ms", "serve-mixed"),
        ("bench.trace_overhead_x", "x", ""),
    ] {
        m.push((name.into(), unit, home));
    }
    m
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS.iter().find(|w| **w == name).ok_or(format!(
        "unknown workload `{name}` (expected one of {WORKLOADS:?})"
    ))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(
    name: &str,
    seed: u64,
    budget: Budget,
    setups: usize,
    tracer: &mut Tracer,
) -> Outcome {
    match name {
        "lis-batch" => batch::run(seed, budget, setups, tracer),
        "serve-reads" => reads::run(seed, budget, setups, tracer),
        _ => mixed::run(seed, budget, setups, tracer),
    }
}

fn seconds_budget(workload: &str, seconds: f64) -> Budget {
    let min_ops = if workload == "lis-batch" {
        MIN_BATCH_OPS
    } else {
        0
    };
    Budget::Seconds { seconds, min_ops }
}

fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let n = o.ops.count();
    let values = [
        median(&o.setup_s),
        o.ops.quantile(0.5) / 1e6,
        o.ops.quantile(tail_level(n)) / 1e6,
        n as f64 / o.clock_s,
        o.writes.quantile(0.5) / 1e6,
        o.writes.count() as f64 / o.write_clock_s,
        o.pass_rounds as f64,
        o.pass_comm as f64,
        peak_rss_mb().unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .map(|(name, _)| *name)
        .zip(values)
        .collect()
}

/// Per-layer metrics of one traced workload run: span medians plus the
/// counts the run gathered.
fn layer_metrics(tracer: &Tracer, o: &Outcome) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = o.layer.clone();
    let median_ms = |span: &str| tracer.median_ns(span).map(|ns| ns / 1e6);
    for (metric, span, scale) in [
        ("lis-mpc.pipeline_ms", "lis-mpc.pipeline", 1.0),
        ("lis-mpc.recover_batch_ms", "lis-mpc.recover_batch", 1.0),
        ("lis-mpc.append_ms", "lis-mpc.append", 1.0),
        ("lis-mpc.fold_ms", "lis-mpc.fold", 1.0),
        (
            "seaweed-lis.oracle_kernel_ms",
            "seaweed-lis.oracle_kernel",
            1.0,
        ),
        ("seaweed-lis.comb_ms", "seaweed-lis.comb", 1.0),
        ("seaweed-lis.index_build_ms", "seaweed-lis.index_build", 1.0),
        (
            "seaweed-lis.window_query_us",
            "seaweed-lis.window_query",
            1e3,
        ),
        ("monge.steady_ant_ms", "monge.steady_ant", 1.0),
        ("lis-service.parse_us", "lis-service.parse", 1e3),
        (
            "lis-service.handle_us.ingest",
            "lis-service.handle.ingest",
            1e3,
        ),
        (
            "lis-service.handle_us.window",
            "lis-service.handle.window",
            1e3,
        ),
        (
            "lis-service.handle_us.witness",
            "lis-service.handle.witness",
            1e3,
        ),
        (
            "lis-service.handle_us.append",
            "lis-service.handle.append",
            1e3,
        ),
        ("lis-service.render_us", "lis-service.render", 1e3),
    ] {
        if let Some(ms) = median_ms(span) {
            m.insert(metric.to_string(), ms * scale);
        }
    }
    if let (Some(pipeline), Some(oracle)) = (
        median_ms("lis-mpc.pipeline"),
        median_ms("seaweed-lis.oracle_kernel"),
    ) {
        m.insert("lis-mpc.sim_overhead_x".to_string(), pipeline / oracle);
    }
    if let (Some(single), Some(descent)) = (
        median_ms("lis-service.witness_single"),
        median_ms("lis-mpc.recover_batch.single"),
    ) {
        m.insert("lis-service.gather_wait_ms".to_string(), single - descent);
    }
    m
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

fn report(workload: &str, o: &Outcome) {
    println!("== {workload}");
    for note in &o.notes {
        println!("   {note}");
    }
    for e in &o.errors {
        println!("   CHECK FAILED: {e}");
    }
}

fn untraced(args: &Args) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let mut off = Tracer::new(false, Instant::now(), 0);
    let o = run_workload(
        args.workload,
        args.seed,
        seconds_budget(args.workload, args.seconds),
        SETUPS,
        &mut off,
    );
    report(args.workload, &o);
    let values = end_to_end(&o);
    println!(
        "   {} operations ({} writes); tail level p{:.2}",
        o.ops.count(),
        o.writes.count(),
        100.0 * tail_level(o.ops.count())
    );
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), values[name], unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("   {name:<24} {value:>14.4} {unit}");
    }
    (o.errors.is_empty(), o.attempted, o.failed, metrics)
}

fn traced(args: &Args) -> (bool, u64, u64, Vec<(String, f64, &'static str)>) {
    let half = seconds_budget(args.workload, args.seconds / 2.0);
    let mut off = Tracer::new(false, Instant::now(), 0);
    let base = run_workload(args.workload, args.seed, half, 1, &mut off);
    let mut tracer = Tracer::new(true, Instant::now(), 0);
    let own = run_workload(args.workload, args.seed, half, 1, &mut tracer);
    report(&format!("{} (untraced half)", args.workload), &base);
    report(&format!("{} (traced half)", args.workload), &own);
    println!("{}", tracer.table());
    let mut layers = BTreeMap::new();
    let mut layer = layer_metrics(&tracer, &own);
    let overhead = own.ops.quantile(0.5) / base.ops.quantile(0.5);
    println!(
        "   tracing overhead: latency_p50 {:.4} ms traced vs {:.4} ms untraced ({overhead:.3}x)",
        own.ops.quantile(0.5) / 1e6,
        base.ops.quantile(0.5) / 1e6
    );
    layer.insert("bench.trace_overhead_x".to_string(), overhead);
    layers.insert(args.workload, layer);

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let mut files = vec![(
        dir.join(format!("{}-seed{}.json", args.workload, args.seed)),
        tracer,
    )];
    let (mut correct, mut attempted, mut failed) = (
        base.errors.is_empty() && own.errors.is_empty(),
        base.attempted + own.attempted,
        base.failed + own.failed,
    );
    // One traced pass of every other workload, so that every per-layer
    // metric is measured in every traced run.
    for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
        let mut tour = Tracer::new(true, Instant::now(), 0);
        let o = run_workload(other, args.seed, Budget::Passes(1), 1, &mut tour);
        report(&format!("{other} (one traced pass)"), &o);
        println!("{}", tour.table());
        layers.insert(other, layer_metrics(&tour, &o));
        correct &= o.errors.is_empty();
        attempted += o.attempted;
        failed += o.failed;
        files.push((
            dir.join(format!(
                "{}-seed{}-pass-{other}.json",
                args.workload, args.seed
            )),
            tour,
        ));
    }
    for (path, tracer) in &files {
        match tracer.write_chrome(path) {
            Ok(()) => println!("   trace written to {}", path.display()),
            Err(e) => println!("   could not write {}: {e}", path.display()),
        }
    }
    let mut metrics = Vec::new();
    for (name, unit, home) in per_layer() {
        let home = if home.is_empty() { args.workload } else { home };
        let value = layers[home].get(&name).copied().unwrap_or_else(|| {
            println!("   MISSING per-layer metric {name}");
            correct = false;
            0.0
        });
        println!("   {name:<40} {value:>14.4} {unit}");
        metrics.push((name, value, unit));
    }
    (correct, attempted, failed, metrics)
}

fn main() {
    // The cluster's per-machine work runs inline: the workloads' own
    // threads (one, or two on serve-mixed) are the only busy threads.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lisbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "lisbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", json_result(correct, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the workloads and metrics this program
    /// prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark's own directory, copied alone
        };
        let spec = jsonr::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(jsonr::J::arr)
                .expect("list present")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(jsonr::J::str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn result_line_is_valid_json() {
        let line = json_result(
            true,
            3,
            0,
            &[("a".into(), 1.25, "ms"), ("b".into(), f64::NAN, "s")],
        );
        let v = jsonr::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(jsonr::J::uint), Some(3));
        let a = v.get("metrics").and_then(|m| m.get("a")).unwrap();
        assert_eq!(a.get("value").and_then(jsonr::J::num), Some(1.25));
    }
}
