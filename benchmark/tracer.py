"""Span tracing of the engine's layers from outside the engine.

`install()` wraps each layer's public functions, and the module-level helpers
the layers call each other through, in every `e8jacobi` module namespace
that binds them, plus a few class methods (CacheStore.load/store, QSeries
arithmetic).  A span records its name, start, end and parent; spans stay in
memory and `write()` dumps them at the end.  Self time is a span's duration
minus the wrapper time of its child spans, so the tracer's own bookkeeping is
charged to no layer; it is summed separately as `overhead`.

Spans are recorded only while `enabled` is true: the worker switches tracing
on for the timed operations and off for its checks.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs; "Class.method" patches a method in place.
TRACED = {
    "lattice": ("orbit_vectors", "dominant_batch"),
    "orbitalg": ("_orbit_pass", "mono_to_orbit", "orbit_to_mono", "orbit_dict_to_upoly",
                 "upoly_to_orbit_dict", "load_tables", "save_tables"),
    "expansion": ("multiply", "mul_series", "_div_unit_series", "div_delta", "div_e4",
                  "add", "sub", "theta_e8", "x_form", "hecke_v", "level_trace", "scale_z",
                  "to_payload", "from_payload"),
    "qseries": ("eisenstein", "discriminant", "QSeries.__mul__", "QSeries.__add__",
                "QSeries.__sub__", "QSeries.__truediv__", "QSeries.__pow__", "QSeries.scale"),
    "genring": ("sakai_generators", "pin_b4", "expand", "_ab_expansion"),
    "linalg": ("kernel_basis", "rank", "rref", "solve"),
    "structure": ("weak_basis", "_select_generators", "module_generators", "singular_solve"),
    "cachestore": ("CacheStore.load", "CacheStore.store"),
    "cli": ("main", "resolve_form", "_compute_form", "_expansion_str", "_emit"),
}


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []      # [span index, child wrapper time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer_s: dict[str, float] = defaultdict(float)   # outermost calls only
        self.calls: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.overhead = 0.0

    def wrap(self, name: str, fn, post=None):
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            stack = tracer.stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            tracer.depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.depth[name] -= 1
                tracer.span_start.append(t0)
                tracer.span_end.append(t1)
                tracer.self_s[name] += (t1 - t0) - frame[1]
                if not tracer.depth[name]:
                    tracer.outer_s[name] += t1 - t0
                tracer.calls[name] += 1
            if post is not None:
                post(tracer, args, kwargs, result)
            t_out = perf_counter()
            if stack:
                stack[-1][1] += t_out - t_in
            tracer.overhead += (t0 - t_in) + (t_out - t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str, meta: dict) -> None:
        """Dump every span (start/end relative to the first) as gzipped JSON."""
        base = min(self.span_start, default=0.0)
        order = sorted(range(len(self.span_start)), key=self.span_start.__getitem__)
        renumber = {old: new for new, old in enumerate(order)}
        spans = [[self.names[self.span_name[i]],
                  round(self.span_start[i] - base, 7), round(self.span_end[i] - base, 7),
                  renumber.get(self.span_parent[i], -1)] for i in order]
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh)


# -- counters taken at the same boundaries -----------------------------------------

def _orbit_rows(tr, args, kwargs, result):
    tr.counters["lattice.orbit_vectors_rows"] += len(result)


def _batch_rows(tr, args, kwargs, result):
    tr.counters["lattice.dominant_batch_rows"] += len(args[0])


def _multiply_pairs(tr, args, kwargs, result):
    f, g = args[0], args[1]
    fu, gu = f._upoly, g._upoly
    n = result.trunc
    tr.counters["expansion.multiply_pairs"] += sum(
        len(fu[i]) * len(gu[j]) for i in range(n) for j in range(n - i))


def _linalg_shape(tr, args, kwargs, result):
    matrix = list(args[0])
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if not isinstance(ncols, int):  # rank() without ncols, or solve(matrix, rhs)
        ncols = len(matrix[0]) if matrix else 0
    bits = 0
    for row in matrix:
        for x in row:
            if x:
                num = getattr(x, "numerator", x)
                den = getattr(x, "denominator", 1)
                bits = max(bits, abs(int(num)).bit_length(), int(den).bit_length())
    tr.counters["linalg.entries"] += len(matrix) * ncols
    tr.maxima["linalg.max_rows"] = max(tr.maxima["linalg.max_rows"], len(matrix))
    tr.maxima["linalg.max_cols"] = max(tr.maxima["linalg.max_cols"], ncols)
    tr.maxima["linalg.max_entry_bits"] = max(tr.maxima["linalg.max_entry_bits"], bits)


def _cache_load(tr, args, kwargs, result):
    store, entry_id = args[0], args[1]
    if result is not None:
        tr.counters["cachestore.hits"] += 1
        tr.counters["cachestore.bytes_read"] += store._path(entry_id).stat().st_size
        if entry_id.startswith("mono-"):
            tr.counters["genring.bodies_loaded"] += 1


def _cache_store(tr, args, kwargs, result):
    store, entry_id = args[0], args[1]
    if entry_id.startswith("mono-"):
        tr.counters["genring.bodies_computed"] += 1
    if store.enabled:
        tr.counters["cachestore.bytes_written"] += store._path(entry_id).stat().st_size


POSTS = {
    "lattice.orbit_vectors": _orbit_rows,
    "lattice.dominant_batch": _batch_rows,
    "expansion.multiply": _multiply_pairs,
    "linalg.kernel_basis": _linalg_shape,
    "linalg.rank": _linalg_shape,
    "linalg.rref": _linalg_shape,
    "linalg.solve": _linalg_shape,
    "cachestore.CacheStore.load": _cache_load,
    "cachestore.CacheStore.store": _cache_store,
}


def install() -> Tracer:
    """Wrap every traced name in every e8jacobi module that binds it."""
    import importlib

    tracer = Tracer()
    modules = {name: importlib.import_module(f"e8jacobi.{name}") for name in TRACED}
    for mod_name, attrs in TRACED.items():
        mod = modules[mod_name]
        for attr in attrs:
            full = f"{mod_name}.{attr}"
            post = POSTS.get(full)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(full, getattr(cls, meth), post))
                continue
            target = getattr(mod, attr)
            wrapped = tracer.wrap(full, target, post)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("e8jacobi"):
                    for key, value in list(vars(other).items()):
                        if value is target:
                            setattr(other, key, wrapped)
    return tracer


def layer_values(tr: Tracer, passes_loaded: int, passes_in_table: int) -> dict[str, float]:
    """The per-layer figures of one process (hit_ratio and sessions are set later).

    The pass-table sizes are read by the worker: entries loaded from disk, and
    all entries at the end of the timed operations.
    """
    s, c, k = tr.self_s, tr.calls, tr.counters

    def self_sum(*names):
        return sum(s[n] for n in names)

    out = {
        "lattice.orbit_vectors_s": s["lattice.orbit_vectors"],
        "lattice.orbit_vectors_calls": c["lattice.orbit_vectors"],
        "lattice.orbit_vectors_rows": k["lattice.orbit_vectors_rows"],
        "lattice.dominant_batch_s": s["lattice.dominant_batch"],
        "lattice.dominant_batch_rows": k["lattice.dominant_batch_rows"],
        "orbitalg.passes_loaded": passes_loaded,
        "orbitalg.passes_built": passes_in_table - passes_loaded,
        "orbitalg.pass_s": s["orbitalg._orbit_pass"],
        "orbitalg.tables_s": self_sum("orbitalg.mono_to_orbit", "orbitalg.orbit_to_mono"),
        "orbitalg.to_orbit_s": s["orbitalg.upoly_to_orbit_dict"],
        "orbitalg.to_orbit_calls": c["orbitalg.upoly_to_orbit_dict"],
        "orbitalg.to_upoly_s": s["orbitalg.orbit_dict_to_upoly"],
        "orbitalg.to_upoly_calls": c["orbitalg.orbit_dict_to_upoly"],
        "expansion.multiply_s": s["expansion.multiply"],
        "expansion.multiply_calls": c["expansion.multiply"],
        "expansion.multiply_pairs": k["expansion.multiply_pairs"],
        "expansion.mul_series_s": s["expansion.mul_series"],
        "expansion.div_s": self_sum("expansion._div_unit_series", "expansion.div_delta",
                                    "expansion.div_e4"),
        "expansion.add_s": self_sum("expansion.add", "expansion.sub"),
        "expansion.construct_s": self_sum("expansion.theta_e8", "expansion.x_form",
                                          "expansion.hecke_v", "expansion.level_trace",
                                          "expansion.scale_z"),
        "expansion.payload_s": self_sum("expansion.to_payload", "expansion.from_payload"),
        "qseries.s": sum(v for n, v in s.items() if n.startswith("qseries.")),
        "genring.generators_s": tr.outer_s["genring.sakai_generators"],
        "genring.pin_b4_s": tr.outer_s["genring.pin_b4"],
        "genring.expand_calls": c["genring.expand"],
        "genring.expand_s": self_sum("genring.expand", "genring._ab_expansion"),
        "genring.bodies_computed": k["genring.bodies_computed"],
        "genring.bodies_loaded": k["genring.bodies_loaded"],
        "linalg.kernel_s": s["linalg.kernel_basis"],
        "linalg.rank_s": s["linalg.rank"],
        "linalg.rref_s": s["linalg.rref"],
        "linalg.solve_s": s["linalg.solve"],
        "linalg.calls": sum(c[f"linalg.{n}"] for n in ("kernel_basis", "rank", "rref", "solve")),
        "linalg.max_rows": tr.maxima["linalg.max_rows"],
        "linalg.max_cols": tr.maxima["linalg.max_cols"],
        "linalg.entries": k["linalg.entries"],
        "linalg.max_entry_bits": tr.maxima["linalg.max_entry_bits"],
        "structure.weak_basis_calls": c["structure.weak_basis"],
        "structure.weak_basis_s": s["structure.weak_basis"],
        "structure.select_generators_s": s["structure._select_generators"],
        "structure.module_generators_s": s["structure.module_generators"],
        "structure.singular_solve_s": s["structure.singular_solve"],
        "cachestore.loads": c["cachestore.CacheStore.load"],
        "cachestore.hits": k["cachestore.hits"],
        "cachestore.bytes_read": k["cachestore.bytes_read"],
        "cachestore.load_s": s["cachestore.CacheStore.load"],
        "cachestore.stores": c["cachestore.CacheStore.store"],
        "cachestore.bytes_written": k["cachestore.bytes_written"],
        "cachestore.store_s": s["cachestore.CacheStore.store"],
        "cli.commands": c["cli.main"],
        "cli.form_hits": c["cli.resolve_form"] - c["cli._compute_form"],
        "cli.render_s": self_sum("cli._expansion_str", "cli._emit"),
        "trace_overhead_s": tr.overhead,
    }
    return out
