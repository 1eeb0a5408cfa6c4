#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same build.

Runs the command in BENCHMARK.json on every workload (or those given with
--workloads), --runs times per set with a different --seed each run, for two
sets (or --sets 1). For each end-to-end metric it prints each set's median
and quartiles, the spread (third minus first quartile, as a share of the
median), the same over both sets' runs together ("all"), and whether the
sets agree within the metric's bound: every spread within the bound, the
two sets' medians apart by no more than the bound (as a share of the
first's, in either direction: two sets of the same build should not differ
at all), and the same share of failed operations in every run. setup_s is
held to its spread bound like every other metric.

    python3 lisbench/steady.py [--runs 10] [--sets 2] [--first-seed 1]
                               [--workloads lis-batch,serve-reads]

Run it from the repository root. Exits 0 when every workload agrees, 1 when
one does not, 2 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[-30:]))
        raise SystemExit(f"{workload} seed {seed}: outputs were not correct")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2, help="2 to compare sets; 1 for spreads only")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [w for w in args.workloads.split(",") if w in names]
    metrics = spec["end_to_end"]

    all_agree = True
    seed = args.first_seed
    for workload in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(spec, workload, seed, seconds))
                seed += 1
                print(f"  {workload} set {s + 1} run {len(runs)} done", file=sys.stderr, flush=True)
            sets.append(runs)
        shares = [
            sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets
        ]
        agree = all(share == shares[0] for share in shares) and len(shares[0]) == 1
        print(f"== {workload}: {args.runs} runs per set, {seconds} s each; failed share {shares}")
        print(f"   {'metric':<24} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            for i, (q1, med, q3, spread) in enumerate(stats):
                ok = spread <= bound
                agree &= ok
                print(f"   {name:<24} {i + 1:>3} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6}{'' if ok else '  SPREAD > BOUND'}")
            if len(sets) > 1:
                q1, med, q3, spread = summary([r["metrics"][name]["value"] for runs in sets for r in runs])
                ok = spread <= bound
                agree &= ok
                print(f"   {name:<24} all {q1:>14.6g} {med:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6}{'' if ok else '  SPREAD > BOUND'}")
            first, second = stats[0][1], stats[-1][1]
            gap = abs(second - first) / first
            if len(stats) > 1 and gap > bound:
                agree = False
                print(f"   {name:<24} medians apart by {gap:.4f} > bound {bound}")
        print(f"   {'AGREE' if agree else 'DISAGREE'}")
        all_agree &= agree
    sys.exit(0 if all_agree else 1)


if __name__ == "__main__":
    main()
