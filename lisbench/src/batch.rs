//! `lis-batch`: a closed loop of one-at-a-time Theorem 1.3 jobs. Each job is
//! `lis_mpc::lis_witness_mpc` on a fresh strict `MpcConfig::new` cluster over
//! one seeded sequence; a pass runs every input once, cycling through the
//! three shapes.

use crate::common::{Budget, Outcome};
use crate::gen::{sequence, Rng, Shape};
use crate::oracle;
use crate::stats::Hist;
use crate::trace::Tracer;
use lis_mpc::{lis_witness_mpc, MpcLisOutcome};
use monge_mpc::MulParams;
use mpc_runtime::{Cluster, MpcConfig};
use seaweed_lis::lis::lis_kernel;
use seaweed_lis::SeaweedKernel;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Sequence length of every job.
pub const N: usize = 1 << 11;
/// Space exponent of every job's cluster.
pub const DELTA: f64 = 0.5;
/// Inputs per shape in the operation list.
const PER_SHAPE: usize = 2;

/// Merge-level `⊡` phases as `(ledger phase label, metric name)`.
const MERGE_PHASES: [(&str, &str); 6] = [
    ("combine-grid", "combine_grid"),
    ("combine-route", "combine_route"),
    ("combine", "combine"),
    ("split", "split_lift"),
    ("lift", "split_lift"),
    ("local-solve", "local_solve"),
];

/// The `Ledger::primitive_counts` keys the pipeline charges; each is
/// reported as `mpc-runtime.calls.<key>`.
pub const PRIMITIVES: [&str; 17] = [
    "broadcast",
    "cogroup_map",
    "concat",
    "distribute",
    "filter",
    "flat_map",
    "group_map",
    "group_map_rebalanced",
    "lis-rank",
    "lis-relabel",
    "map",
    "multicast",
    "prefix_sum",
    "rank_search",
    "rank_search_multi",
    "sort",
    "witness-route",
];

pub const MONGE_MPC_PHASES: [&str; 5] = [
    "combine_grid",
    "combine_route",
    "combine",
    "split_lift",
    "local_solve",
];

struct Job {
    shape: Shape,
    seq: Vec<u32>,
}

fn inputs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed, "lis-batch");
    let mut jobs = Vec::new();
    for _ in 0..PER_SHAPE {
        for shape in Shape::ALL {
            jobs.push(Job {
                shape,
                seq: sequence(shape, N, &mut rng),
            });
        }
    }
    jobs
}

fn solve(seq: &[u32]) -> (MpcLisOutcome, Cluster) {
    let mut cluster = Cluster::new(MpcConfig::new(N, DELTA));
    let outcome = lis_witness_mpc(&mut cluster, seq, &MulParams::default());
    (outcome, cluster)
}

fn check(job: &Job, outcome: &MpcLisOutcome, oracle_kernel: &SeaweedKernel) -> Result<(), String> {
    let shape = job.shape.name();
    let expected = oracle::lis_len(&job.seq);
    if outcome.length != expected {
        return Err(format!(
            "{shape}: length {} but patience LIS is {expected}",
            outcome.length
        ));
    }
    let witness = outcome
        .witness
        .as_deref()
        .ok_or(format!("{shape}: no witness"))?;
    oracle::check_witness(&job.seq, witness, 0, u32::MAX, expected)
        .map_err(|e| format!("{shape}: {e}"))?;
    if outcome.kernel != *oracle_kernel {
        return Err(format!(
            "{shape}: MPC kernel differs from seaweed_lis::lis::lis_kernel"
        ));
    }
    Ok(())
}

/// Adds one job's ledger to the per-layer counts.
fn count_layers(out: &mut Outcome, outcome: &MpcLisOutcome, cluster: &Cluster) {
    let ledger = cluster.ledger();
    out.add_layer("mpc-runtime.supersteps", cluster.superstep() as f64);
    let peak = out
        .layer
        .entry("mpc-runtime.peak_load_items".to_string())
        .or_default();
    *peak = peak.max(ledger.max_machine_load as f64);
    for (primitive, calls) in &ledger.primitive_counts {
        if PRIMITIVES.contains(primitive) {
            out.add_layer(&format!("mpc-runtime.calls.{primitive}"), *calls as f64);
        } else {
            out.notes
                .push(format!("unlisted primitive `{primitive}` ({calls} calls)"));
        }
    }
    let merge_phase = |label: &str| -> Option<&'static str> {
        let (scope, phase) = label.split_once('/')?;
        scope.strip_prefix("lis-merge-L")?;
        MERGE_PHASES
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, m)| *m)
    };
    for (label, rounds) in &ledger.rounds_by_phase {
        if let Some(m) = merge_phase(label) {
            out.add_layer(&format!("monge-mpc.{m}.rounds"), *rounds as f64);
        }
    }
    for (label, comm) in &ledger.comm_by_phase {
        if let Some(m) = merge_phase(label) {
            out.add_layer(&format!("monge-mpc.{m}.comm"), *comm as f64);
        }
    }
    out.add_layer(
        "lis-mpc.base.rounds",
        ledger.scope_rounds("lis-base") as f64,
    );
    out.add_layer(
        "lis-mpc.witness.rounds",
        ledger.scope_rounds("lis-witness") as f64,
    );
    let levels = out
        .layer
        .entry("lis-mpc.merge_levels".to_string())
        .or_default();
    *levels = levels.max(outcome.levels as f64);
}

pub fn run(seed: u64, budget: Budget, setups: usize, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut jobs = Vec::new();
    for _ in 0..setups {
        // Set-up: input generation plus one warm-up job per shape.
        let started = Instant::now();
        jobs = inputs(seed);
        for shape in Shape::ALL {
            let job = jobs
                .iter()
                .find(|j| j.shape == shape)
                .expect("every shape has inputs");
            black_box(solve(&job.seq));
        }
        out.setup_s.push(started.elapsed().as_secs_f64());
    }
    out.notes.push(format!(
        "{} inputs of n = {N} ({} per shape), delta = {DELTA}, strict clusters",
        jobs.len(),
        PER_SHAPE
    ));

    let mut oracle_kernels: Vec<Option<SeaweedKernel>> = vec![None; jobs.len()];
    let mut first_pass: Vec<Option<(u64, u64)>> = vec![None; jobs.len()];
    let mut by_shape: Vec<Hist> = vec![Hist::default(); Shape::ALL.len()];
    let mut passes = 0u64;
    while budget.more(passes, out.clock_s, out.attempted) {
        let (mut pass_rounds, mut pass_comm) = (0u64, 0u64);
        for (i, job) in jobs.iter().enumerate() {
            let op = out.attempted;
            out.attempted += 1;
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                tracer.span("lis-mpc.pipeline", op, |_| solve(&job.seq))
            }));
            let ns = started.elapsed().as_nanos() as u64;
            out.clock_s += ns as f64 / 1e9;
            out.write_clock_s += ns as f64 / 1e9;
            let Ok((outcome, cluster)) = result else {
                out.failed += 1;
                out.error(format!("{}: lis_witness_mpc panicked", job.shape.name()));
                continue;
            };
            out.ops.record(ns);
            out.writes.record(ns);
            by_shape[Shape::ALL
                .iter()
                .position(|s| *s == job.shape)
                .expect("listed shape")]
            .record(ns);

            // Off the clock: ledger totals, oracle and checks.
            let ledger = cluster.ledger();
            pass_rounds += ledger.rounds;
            pass_comm += ledger.communication;
            let totals = (ledger.rounds, ledger.communication);
            match first_pass[i] {
                None => first_pass[i] = Some(totals),
                Some(first) if first != totals => out.error(format!(
                    "{}: ledger differs between passes",
                    job.shape.name()
                )),
                Some(_) => {}
            }
            if tracer.on() {
                // Timed on every job: the base of `lis-mpc.sim_overhead_x`.
                let kernel = tracer.span("seaweed-lis.oracle_kernel", op, |_| lis_kernel(&job.seq));
                oracle_kernels[i] = Some(kernel);
                if passes == 0 {
                    count_layers(&mut out, &outcome, &cluster);
                }
            }
            let oracle_kernel = oracle_kernels[i].get_or_insert_with(|| lis_kernel(&job.seq));
            if let Err(e) = check(job, &outcome, oracle_kernel) {
                out.error(e);
            }
        }
        if passes == 0 {
            out.pass_rounds = pass_rounds;
            out.pass_comm = pass_comm;
        }
        passes += 1;
    }
    out.notes.push(format!("{passes} passes"));
    for (shape, hist) in Shape::ALL.iter().zip(&by_shape) {
        out.notes.push(format!(
            "{:<16} median {:.3} ms",
            shape.name(),
            hist.quantile(0.5) / 1e6
        ));
    }
    out
}
