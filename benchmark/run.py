#!/usr/bin/env python3
"""Run one benchmark workload; print its metrics as one JSON line.

    python3 benchmark/run.py --workload cli-sessions --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  A round is one pass over the workload's
fresh, single-threaded worker processes, started one after another (a closed
loop with one client) against a fresh, empty cache directory.  Rounds repeat
until `--seconds` have passed, at least once; every figure printed is the
median over rounds.  With `--trace 0` the figures are the end-to-end metrics,
with `--trace 1` the per-layer ones (the worker processes are traced, and
their spans are written under .bench_trace/); the metric names and units
are those of BENCHMARK.json.  Outputs are checked after
each round, outside every timed region; failed checks are printed to stderr
and make `correct` false.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"
TRACES = ROOT / ".bench_trace"
RUN_LIMIT_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
MAX_METRICS = {"linalg.max_rows", "linalg.max_cols", "linalg.max_entry_bits"}


class WorkerError(RuntimeError):
    pass


def spawn(job: dict, workdir: Path, deadline: float) -> dict:
    """Run one worker process to completion; return its result."""
    name = f"{job['kind']}{job.get('session', '')}"
    job_path = workdir / f"{name}-job.json"
    job["result_path"] = str(workdir / f"{name}-result.json")
    env = {k: v for k, v in os.environ.items() if k not in ("E8JACOBI_CACHE", "PYTHONPATH")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    job["t_spawn"] = time.monotonic()
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{name} worker passed the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{name} worker exited with code {proc.returncode}")
    return json.loads(Path(job["result_path"]).read_text())


def _orbits(data: dict) -> dict[int, dict[tuple[int, ...], Fraction]]:
    return {int(n): {tuple(int(v) for v in m.split(",")): Fraction(c) for m, c in d.items()}
            for n, d in data.items()}


# -- checks -------------------------------------------------------------------------

def check_sessions(s1: dict, s2: dict, polys: list[str]) -> tuple[list[str], int]:
    """Errors in two CLI sessions, and the number of failed operations.

    Every command is expected to succeed, so a nonzero exit is counted as a
    failed operation and is also an error; each output is checked whatever
    its exit code.
    """
    errors: list[str] = []
    failed = 0
    for session, res in ((1, s1), (2, s2)):
        for op in res["ops"]:
            if op["rc"] != 0:
                failed += 1
                errors.append(f"session {session}: {' '.join(op['argv'])}: exit {op['rc']}: "
                              f"{op['err'].strip()}")
    for a, b in zip(s1["ops"], s2["ops"]):
        if (a["rc"], a["out"]) != (b["rc"], b["out"]):
            errors.append(f"{' '.join(a['argv'][:3])}: session 2 printed other bytes "
                          f"than session 1")
    orders = wl.CLI_ORDER + 1
    holo_label = "basis holo {1} --weight {0}".format(*wl.CLI_HOLO)
    expected = [
        lambda out: checks.check_pass(out, wl.CLI_SETUP[1]),
        lambda out: (checks.check_generators(out, 3, wl.CLI_CERT_ORDERS)
                     + _series_errors(out, s1["weak_dims"])),
        lambda out: checks.check_singular(out, 3, checks.singular_orders(3, orders)),
        lambda out: checks.check_dimension(out, s1["holo_direct"], holo_label),
        lambda out: checks.check_pass(out, "eq44"),
    ] + [lambda out, text=text: checks.check_expand(out, text, orders) for text in polys]
    if not len(s1["ops"]) == len(s2["ops"]) == len(expected):
        errors.append(f"sessions ran {len(s1['ops'])} and {len(s2['ops'])} commands, "
                      f"not {len(expected)}")
    for op, check in zip(s1["ops"], expected):
        errors += check(op["out"])
    return errors, failed


def _series_errors(gen_out: str, weak_dims: dict) -> list[str]:
    """Counting series of `generators 3` against direct weak dimensions."""
    try:
        counts = checks.parse_counts(gen_out.splitlines()[0])
    except (ValueError, IndexError) as exc:
        return [f"generators 3: {exc}"]
    return checks.check_series(counts, {int(k): d for k, d in weak_dims.items()}, 3)


def check_sweep(res: dict) -> list[str]:
    errors: list[str] = []
    for mod in res["modules"]:
        t = mod["index"]
        counts = {int(k): d for k, d in mod["counts"].items()}
        if sum(counts.values()) != checks.rank_r(t):
            errors.append(f"module_generators({t}): {sum(counts.values())} generators, "
                          f"r({t}) = {checks.rank_r(t)}")
        errors += checks.check_series(counts, {int(k): d for k, d in mod["weak_dims"].items()}, t)
        if sorted(g["weight"] for g in mod["generators"]) != \
                sorted(k for k, d in counts.items() for _ in range(d)):
            errors.append(f"module_generators({t}): generator weights do not match the counts")
        for g in mod["generators"]:
            coeffs = _orbits(g["coeffs"])
            errors += checks.level_one_errors(checks.restriction(coeffs, len(coeffs)),
                                              g["weight"], f"index {t} weight {g['weight']}")
    for sing in res["singular"]:
        t = sing["index"]
        expected = checks.dominant_of_norm(2 * t)
        if sing["dimension"] != len(expected):
            errors.append(f"singular_solve({t}): dimension {sing['dimension']} "
                          f"!= N({t}) = {len(expected)}")
        if sorted(tuple(p["orbit"]) for p in sing["phis"]) != expected:
            errors.append(f"singular_solve({t}): phi orbits differ from the norm-{2 * t} orbits")
        for p in sing["phis"]:
            if p["coeffs"] is None:
                errors.append(f"singular_solve({t}): no canonical phi for {p['orbit']}")
                continue
            coeffs = _orbits(p["coeffs"])
            errors += checks.check_phi(t, tuple(p["orbit"]), Fraction(p["coefficient"]),
                                       coeffs, len(coeffs))
    return errors


# -- rounds ---------------------------------------------------------------------------

def _layers(results: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for res in results:
        for name, value in res["layers"].items():
            if name in MAX_METRICS:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    out["cachestore.hit_ratio"] = (out["cachestore.hits"] / out["cachestore.loads"]
                                   if out["cachestore.loads"] else 0.0)
    for i in (1, 2):
        session = results[i - 1] if len(results) == 2 else None
        out[f"cli.session{i}_setup_s"] = session["setup_s"] if session else 0.0
        out[f"cli.session{i}_run_s"] = session["run_s"] if session else 0.0
    return out


def run_round(workload: str, seed: int, trace: bool, number: int, deadline: float) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        base = {"src": str(SRC), "cache_dir": str(workdir / "cache"), "trace": trace,
                "seed": seed}
        if trace:
            TRACES.mkdir(exist_ok=True)
        if workload == "cli-sessions":
            polys = wl.expand_stream(seed)
            results = []
            for session in (1, 2):
                job = dict(base, kind="session", session=session, polys=polys,
                           check_data=session == 1,
                           trace_path=str(TRACES / f"{workload}-seed{seed}-round{number}"
                                                   f"-session{session}.json.gz"))
                results.append(spawn(job, workdir, deadline))
            errors, failed = check_sessions(results[0], results[1], polys)
            attempted = len(results[0]["ops"]) + len(results[1]["ops"])
        else:
            job = dict(base, kind="sweep",
                       trace_path=str(TRACES / f"{workload}-seed{seed}-round{number}.json.gz"))
            results = [spawn(job, workdir, deadline)]
            errors, failed = check_sweep(results[0]), 0
            attempted = results[0]["attempted"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    figures = {"setup_s": sum(r["setup_s"] for r in results),
               "run_s": sum(r["run_s"] for r in results),
               "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    if trace:
        figures = dict(_layers(results), **{"trace.setup_s": figures["setup_s"],
                                             "trace.run_s": figures["run_s"]})
    return {"figures": figures, "errors": errors, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-sessions", "index-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "e8jacobi" / "__init__.py").is_file():
        print(f"benchmark: no engine sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    try:
        while True:
            rounds.append(run_round(args.workload, args.seed, bool(args.trace), len(rounds),
                                    deadline))
            figures = rounds[-1]["figures"]
            print(f"round {len(rounds)}: " + ", ".join(
                f"{k} {figures[k]:.4f}" for k in ("setup_s", "run_s", "trace.setup_s",
                                                  "trace.run_s") if k in figures),
                file=sys.stderr)
            if time.monotonic() - start >= args.seconds:
                break
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    errors = [e for r in rounds for e in r["errors"]]
    for line in errors[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": statistics.median(r["figures"][m["name"]] for r in rounds),
                           "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": not errors,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
