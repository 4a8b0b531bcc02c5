#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/steady.py --workloads read,churn --seeds 1-10 [--trace 0]
        [--out runs.jsonl]

For every workload and every end-to-end metric (per-layer metrics with
--trace 1) it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
Every run's result line is appended to --out when given. Exits 1 when a run
fails or prints a malformed result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    """(median, q1, q3, spread) of a metric's values over runs.

    The quartiles are statistics.quantiles(values, n=4); the spread is
    (q3 - q1) / median, infinite for a zero median.
    """
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} seed {seed}: result keys {sorted(result)}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        raise SystemExit(f"{workload} seed {seed}: metric names differ from BENCHMARK.json")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    return result, wall, lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds(args.seeds):
            result, wall, notes = run_once(bench, workload, seed, args.trace)
            walls.append(wall)
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                        "wall_s": wall, "notes": notes, "result": result}) + "\n")
        print(f"== {workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            if len(vals) < 2:
                print(f"  {m['name']:<28} median {med:.6g} {m['unit']}")
                continue
            med, q1, q3, share = spread(vals)
            bound = m.get("bound")
            ratio = f"{share / bound:.2f} of bound {bound}" if bound else ""
            if bound:
                worst = max(worst, share / bound)
            print(f"  {m['name']:<28} median {med:<12.6g} {m['unit']:<6} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {share:.4f} {ratio}")
    if not args.trace:
        print(f"largest spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
