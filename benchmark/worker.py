"""One process of a workload: a CLI session or the index sweep.

Run by run.py as `python3 benchmark/worker.py JOB.json`; the job names the
process kind, its cache directory, the parent's monotonic clock at spawn and
where to write the result.  Set-up time runs from that spawn, so it includes
the interpreter start and the imports.  Only the timed operations are traced;
the data the checks need is gathered afterwards with tracing off and, in CLI
sessions, with the disk cache switched off, so session 2 sees exactly what
session 1's commands wrote.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_table_size() -> int:
    """Entries in the orbit pass table (the engine has no public count)."""
    from e8jacobi import orbitalg

    return len(orbitalg._mpass)


def _orbit_data(form) -> dict[str, dict[str, str]]:
    return {str(n): {",".join(map(str, m)): str(c) for m, c in d.items() if c}
            for n, d in enumerate(form.coeffs)}


def run_session(job: dict, tracer) -> dict:
    from e8jacobi import cli

    common = ["--order", str(wl.CLI_ORDER), "--cache-dir", job["cache_dir"]]

    def call(argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return {"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                "s": time.perf_counter() - t0}

    if tracer:
        tracer.enabled = True
    setup = call(list(wl.CLI_SETUP) + common)
    setup_s = time.monotonic() - job["t_spawn"]
    ops = [call(list(argv) + common) for argv in wl.CLI_COMMANDS]
    ops += [call(["expand"] + common + ["--", text]) for text in job["polys"]]
    if tracer:
        tracer.enabled = False
    result = {"setup_s": setup_s, "run_s": sum(op["s"] for op in ops),
              "peak_rss_mb": _peak_rss_mb(), "passes": _pass_table_size(),
              "ops": [setup] + ops}
    if job.get("check_data"):
        from e8jacobi import config, structure as st

        trunc = wl.CLI_ORDER + 1
        with config.using(cache_dir=None):
            result["weak_dims"] = {str(k): st.weak_basis(k, 3, trunc).dim
                                   for k in wl.CLI_SERIES_WEIGHTS}
            k, t = wl.CLI_HOLO
            space = st.weak_basis(k, t, max(trunc, st.n_cap(t) + 1))
            result["holo_direct"] = st.holo_dim_direct(space)
    return result


def run_sweep(job: dict, tracer) -> dict:
    from e8jacobi import config, genring, orbitalg, structure as st

    config.configure(cache_dir=job["cache_dir"])
    if tracer:
        tracer.enabled = True
    orbitalg.load_tables()
    passes_loaded = _pass_table_size()
    genring.sakai_generators(wl.SWEEP_SETUP_TRUNC)
    setup_s = time.monotonic() - job["t_spawn"]
    t_run = time.perf_counter()
    modules = [st.module_generators(t, trunc) for t, trunc in wl.SWEEP_MODULES]
    spaces = [st.singular_solve(t, trunc=trunc) for t, trunc in wl.SWEEP_SINGULAR]
    orbitalg.save_tables()
    run_s = time.perf_counter() - t_run
    if tracer:
        tracer.enabled = False
    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": _peak_rss_mb(),
              "passes": _pass_table_size(), "passes_loaded": passes_loaded,
              "attempted": 3 + len(modules) + len(spaces)}
    result["modules"] = [
        {"index": mod.index, "counts": {str(k): d for k, d in mod.weight_poly().items()},
         "weak_dims": {str(k): d for k, d in mod.weak_dims.items()},
         "generators": [{"weight": g.weight, "coeffs": _orbit_data(g.form)}
                        for k in sorted(mod.generators) for g in mod.generators[k]]}
        for mod in modules]
    result["singular"] = []
    for space in spaces:
        phis = []
        for m in st.dominant_by_norm(space.index):
            got = space.phi(m)
            phis.append({"orbit": list(m), "coefficient": None if got is None else str(got[1]),
                         "coeffs": None if got is None else _orbit_data(got[0])})
        result["singular"].append({"index": space.index, "dimension": space.dimension,
                                   "phis": phis})
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    result = (run_session if job["kind"] == "session" else run_sweep)(job, tracer)
    if tracer:
        result["layers"] = tracing.layer_values(tracer, result.get("passes_loaded", 0),
                                                result["passes"])
        tracer.write(job["trace_path"], {"kind": job["kind"], "seed": job["seed"]})
    Path(job["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
