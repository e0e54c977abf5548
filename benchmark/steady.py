#!/usr/bin/env python3
"""Steadiness runs: each workload many times, one seed per run.

    python3 benchmark/steady.py --runs 10 [--workload cli-sessions] [--traced]

For every end-to-end metric prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and the metric's bound from BENCHMARK.json, and the share of failed
operations.  With --traced it also makes one traced run per seed and reports
the tracing overhead as the difference of the medians of setup_s + run_s,
traced against untraced.  The last line is the whole summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        entry = {"failed_share": [r["failed"] / r["attempted"] for r in runs]}
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(set(entry['failed_share']))}")
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            entry[name] = dict(stats, bound=bound)
            print(f"{name:<14}{stats['median']:>12.4f}{stats['q1']:>12.4f}{stats['q3']:>12.4f}"
                  f"{stats['spread']:>9.3f}{bound:>8.2f}")
        if args.traced:
            traced = [run_once(workload, seed, spec["run_seconds"], 1)
                      for seed in range(args.first_seed, args.first_seed + args.runs)]
            untraced_total = statistics.median(
                r["metrics"]["setup_s"]["value"] + r["metrics"]["run_s"]["value"] for r in runs)
            traced_total = statistics.median(
                r["metrics"]["trace.setup_s"]["value"] + r["metrics"]["trace.run_s"]["value"]
                for r in traced)
            bookkeeping = statistics.median(
                r["metrics"]["trace_overhead_s"]["value"] for r in traced)
            entry["trace_overhead_s"] = {"difference_of_medians": traced_total - untraced_total,
                                         "bookkeeping_median": bookkeeping}
            print(f"tracing overhead: {traced_total - untraced_total:.3f} s by difference of "
                  f"medians, {bookkeeping:.3f} s measured inside the wrappers")
        summary[workload] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
