#!/usr/bin/env python3
"""Spread report: run workloads repeatedly with different seeds and show
how much each metric moves.

    python3 perfbench/spread.py [--workload W ...] [--runs 10] [--seed0 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout. Without --workload it runs the
workloads BENCHMARK.json lists; --seconds defaults to its run_seconds. For every metric it prints the median,
the quartiles (statistics.quantiles, n=4), the interquartile range and
(max - min) as shares of the median, and flags a (max - min) spread over
a tenth. The tail percentile and sample count of each run come from the
run's result record. The summary is also written to
.perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["hot_query", "cold_explore", "durable_churn", "follower_lag"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    kind = "attribution.json" if trace else "result.json"
    record_path = os.path.join(".perfbench", "out", "%s-seed%d-%s" % (workload, seed, kind))
    with open(record_path) as f:
        record = json.load(f)
    return result, record


def summarize(workload, runs):
    metrics = {}
    for result, _ in runs:
        for name, m in result["metrics"].items():
            metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    rows = {}
    for name, (unit, values) in metrics.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        scale = abs(med) if med else float("nan")
        rows[name] = {
            "unit": unit, "values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / scale, "range_share": (max(values) - min(values)) / scale,
        }
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    os.makedirs(os.path.join(".perfbench", "out"), exist_ok=True)
    if args.workload:
        workloads = args.workload
    else:
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            result, record = run_once(workload, seed, seconds, args.trace)
            runs.append((result, record))
            tail = ""
            if "tail_percentile" in record:
                tail = " tail=p%g of %d (%d beyond)" % (
                    record["tail_percentile"], record["tail_samples"], record["tail_beyond"])
            print("%s seed %d: correct=%s attempted=%d failed=%d%s host loop %.2f/%.2f ms" % (
                workload, seed, result["correct"], result["attempted"], result["failed"], tail,
                record["host_loop_ms_before"], record["host_loop_ms_after"]), flush=True)
        rows = summarize(workload, runs)
        first = runs[0][1]
        print("\n%s: %d runs, nproc %s, OCaml %s, commit %s" % (
            workload, len(runs), first["nproc"], first["ocaml"], first["commit"]))
        print("  daemons: %s" % "; ".join(first["daemon_argv"]))
        print("  %-24s %-6s %12s %12s %12s %9s %9s" % (
            "metric", "unit", "median", "q1", "q3", "iqr/med", "range/med"))
        for name, r in rows.items():
            flag = "  SPREAD>0.1" if r["range_share"] > 0.1 else ""
            print("  %-24s %-6s %12.6g %12.6g %12.6g %9.4f %9.4f%s" % (
                name, r["unit"], r["median"], r["q1"], r["q3"], r["iqr_share"],
                r["range_share"], flag))
        print()
        out = os.path.join(".perfbench", "out", "spread-%s%s.json" % (
            workload, "-traced" if args.trace else ""))
        with open(out, "w") as f:
            json.dump({"workload": workload, "seconds": seconds, "trace": args.trace,
                       "seeds": [args.seed0 + i for i in range(args.runs)],
                       "correct": all(r["correct"] for r, _ in runs),
                       "failed": sum(r["failed"] for r, _ in runs),
                       "records": [rec for _, rec in runs], "metrics": rows}, f, indent=1)


if __name__ == "__main__":
    main()
