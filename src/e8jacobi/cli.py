"""Command line for the engine: tables, expansions, identity checks, bases.

This is the only module with side effects.  Every command is deterministic
given its flags; JSON output has sorted keys and reduced fractions.  Exit
codes: 0 success, 1 mathematical mismatch (a witness is printed), 2 resource
or truncation limit, 3 usage error.

Expansions requested by name or polynomial text are cached on disk as rows
of the SQLite database ``<cache-dir>/<schema-version>/cache.sqlite`` (see
`cachestore`), keyed by the form id: the name itself or a content hash of the
canonical polynomial text.  Cached entries are version-checked on load and
reused whenever they hold at least the requested number of orders and
restrict at z = 0 to the Eisenstein image of their source (A_i -> E4,
B_j -> E6); any other entry, and any entry of a database that cannot be
read, is recomputed.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction

from . import config, linalg, structure as st
from .cachestore import SCHEMA_VERSION
from .config import TruncationError
from .expansion import (DivisionError, JacobiExpansion, check_support,
                        div_delta, div_e4, eval_zero, from_payload,
                        orbit_symbol, to_payload, x_form)
from .genring import (DELTA_POLY, GEN_ORDER, NAMED_POLYNOMIALS, WEAK_INDEX2,
                      WEAK_INDEX3, GeneratorPolynomial, expand as expand_poly,
                      pivot_identity_residual, reduction_obstruction_e4sq,
                      restriction_at_zero, sakai_generators)
from .lattice import FUNDAMENTAL, ZERO, dominant_by_norm, norm
from .qseries import QSeries, eisenstein

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3

_GENERATOR_NAMES = ("A1", "A2", "A3", "A4", "A5",
                    "B2", "B3", "B4", "B5HAT", "B6", "E4", "E6")

# Feasibility cutoffs for on-demand tables; beyond them a gap marker is
# printed instead of grinding (or overflowing) for hours.
_TABLE_LIMITS = {"ranks": 300, "delta": 60, "norms": 200, "singular-dims": 11}

# Hard desk-scale caps on the lattice index for space computations; past
# these the column counts explode and the process would die, not finish.
_INDEX_CAP = {"weak": 13, "holo": 13, "singular": 11}


def _check_index_budget(kind: str, t: int) -> None:
    cap = _INDEX_CAP[kind]
    if t > cap:
        raise TruncationError(
            f"{kind} computations are desk-scale up to index {cap}; "
            f"index {t} is beyond the budget")
    if t < 1:
        raise UsageError("index must be >= 1")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped to exit code 3."""

    def error(self, message):
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # No option starts with "-" and a digit or a capital, so "-2*A1" and
        # "-A1" are polynomials with a leading minus: positionals.
        if re.match(r"-[0-9A-Z]", arg_string):
            return None
        return super()._parse_optional(arg_string)


# -- output plumbing ---------------------------------------------------------

def _fmt(args) -> str:
    return args.format or config.get_config().fmt


def _emit(args, *, text, data, rows=None, header=None) -> None:
    """Print `data` as JSON, `rows` as CSV or `text`, as the format asks.  Each
    may be a function of no arguments, so only the printed rendering is built."""
    fmt = _fmt(args)
    if fmt == "json":
        print(json.dumps(_built(data), sort_keys=True, default=str))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        if header:
            writer.writerow(header)
        for row in _built(rows) or []:
            writer.writerow(row)
    else:
        print(_built(text))


def _built(rendering):
    return rendering() if callable(rendering) else rendering


def _expansion_str(f: JacobiExpansion) -> str:
    """One-line rendering: 1 + q*O_{1,240}^{[00000001]} + q^2*(...)."""
    parts = []
    for n in range(f.trunc):
        d = f.coeffs[n]
        terms = []
        for m in sorted(d, key=lambda m: (norm(m), m)):
            c = d[m]
            if m == ZERO:
                terms.append(str(c))
            elif c == 1:
                terms.append(orbit_symbol(m))
            else:
                terms.append(f"{c}*{orbit_symbol(m)}")
        if not terms:
            continue
        body = " + ".join(terms)
        if n == 0:
            parts.append(body if len(terms) == 1 else f"({body})")
        else:
            qpow = "q" if n == 1 else f"q^{n}"
            parts.append(f"{qpow}*{body}" if len(terms) == 1 else f"{qpow}*({body})")
    return " + ".join(parts) if parts else "0"


def _expansion_rows(f: JacobiExpansion):
    for n in range(f.trunc):
        for m in sorted(f.coeffs[n], key=lambda m: (norm(m), m)):
            yield (n, "".join(map(str, m)), str(f.coeffs[n][m]))


def _series_str(s: QSeries) -> str:
    parts = []
    for n, c in enumerate(s.coeffs):
        if not c:
            continue
        mono = "1" if n == 0 else ("q" if n == 1 else f"q^{n}")
        parts.append(mono if c == 1 and n else (str(c) if n == 0 else f"{c}*{mono}"))
    return " + ".join(parts) if parts else "0"


# -- form resolution and the expansion cache ---------------------------------

def _form_id(name_or_text: str) -> tuple[str, GeneratorPolynomial | None]:
    """(cache id, parsed polynomial or None for a named form)."""
    token = name_or_text.strip()
    if token in _GENERATOR_NAMES or token in NAMED_POLYNOMIALS \
            or re.fullmatch(r"X\d+", token):
        return token, None
    poly = GeneratorPolynomial.from_text(token)
    canonical = poly.to_text()
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return digest, poly


def _compute_form(token: str, poly: GeneratorPolynomial | None,
                  trunc: int) -> JacobiExpansion:
    if poly is not None:
        if poly.is_zero():
            raise UsageError("the zero polynomial has no expansion to print")
        if not poly.is_bihomogeneous():
            raise UsageError(
                "polynomial must be homogeneous in weight and in index")
        return expand_poly(poly, trunc)
    if token in NAMED_POLYNOMIALS:
        return expand_poly(NAMED_POLYNOMIALS[token], trunc)
    if token.startswith("X"):
        t = int(token[1:])
        if t < 1:
            raise UsageError(f"index-raised form {token} needs index >= 1")
        return x_form(t, trunc)
    return sakai_generators(trunc)[token]


def _restriction(token: str, poly: GeneratorPolynomial | None, trunc: int) -> QSeries:
    """The value at z = 0 that the source of a form fixes: A_i -> E4, B_j -> E6."""
    if poly is None and token in NAMED_POLYNOMIALS:
        poly = NAMED_POLYNOMIALS[token]
    elif poly is None and token in GEN_ORDER:
        poly = GeneratorPolynomial.from_text(token)
    if poly is not None:
        return restriction_at_zero(poly, trunc)
    return eisenstein(6 if token == "B5HAT" else 4, trunc)  # B5HAT or X<t>


def resolve_form(name_or_text: str, trunc: int) -> JacobiExpansion:
    """Expansion of a named form or polynomial text, via the disk cache."""
    form_id, poly = _form_id(name_or_text)
    store = config.get_store()
    payload = store.load(form_id)
    try:
        if (payload is not None and payload.get("schema") == SCHEMA_VERSION
                and payload.get("truncation", 0) >= trunc):
            f = from_payload(payload).truncate(trunc)
            if eval_zero(f) == _restriction(name_or_text.strip(), poly, trunc):
                return f
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        pass  # an entry that does not read as the form is a miss: recompute, overwrite
    f = _compute_form(name_or_text.strip(), poly, trunc)
    record = to_payload(f)
    record["schema"] = SCHEMA_VERSION
    record["form_id"] = form_id
    store.store(form_id, record)
    return f


# -- tables ------------------------------------------------------------------

def _table_range(args, default_lo: int, default_hi: int) -> tuple[int, int]:
    if args.range:
        m = re.fullmatch(r"(-?\d+):(-?\d+)", args.range)
        if not m:
            raise UsageError("--range expects LO:HI")
        lo, hi = int(m.group(1)), int(m.group(2))
    else:
        lo, hi = default_lo, args.max if args.max is not None else default_hi
    if hi < lo:
        lo, hi = hi, lo
    return lo, hi


def _singular_dimension(t: int) -> int:
    d = max(st.n_cap(t) - 1, 0)
    required = max(d + st.m_cap(t), d + 2)
    trunc = max(required, config.get_config().truncation)
    return st.singular_solve(t, trunc=trunc).dimension


def cmd_tables(args) -> int:
    which = args.which
    if which == "stability":
        lo, hi = _table_range(args, -24, 0)
        rows = []
        for k in range(hi - hi % 2, lo - 1, -2):
            entry = st.STABLE_COUNTS.get(k)
            rows.append((k, *entry) if entry else (k, "-", "-"))
        text = "weight  threshold  stable-count\n" + "\n".join(
            f"{k:>6}  {L:>9}  {d:>12}" for k, L, d in rows)
        data = {"table": which,
                "rows": {str(k): {"threshold": L, "stable_count": d}
                         for k, L, d in rows}}
        _emit(args, text=text, data=data, rows=rows,
              header=("weight", "threshold", "stable_count"))
        return EXIT_OK

    defaults = {"ranks": 18, "delta": 18, "norms": 23, "singular-dims": 7}
    funcs = {
        "ranks": lambda t: st.rank_r(t)[t],
        "delta": st.delta_t,
        "norms": st.orbit_count_norm,
        "singular-dims": _singular_dimension,
    }
    lo, hi = _table_range(args, 1, defaults[which])
    limit = _TABLE_LIMITS[which]
    rows = []
    for t in range(lo, hi + 1):
        if t < 1 or t > limit:
            rows.append((t, "-"))
        else:
            rows.append((t, funcs[which](t)))
    label = {"ranks": "r(t)", "delta": "delta(t)",
             "norms": "N(t)", "singular-dims": "H(t)"}[which]
    width = max(len(label), max(len(str(v)) for _, v in rows))
    text = (f"{'t':>4}  {label:>{width}}\n"
            + "\n".join(f"{t:>4}  {str(v):>{width}}" for t, v in rows))
    data = {"table": which, "rows": {str(t): v for t, v in rows}}
    _emit(args, text=text, data=data, rows=rows, header=("t", label))
    return EXIT_OK


# -- expand ------------------------------------------------------------------

def _weight_monomials(weight: int) -> list[tuple[int, int]]:
    return sorted(((a, b) for a in range(weight // 4 + 1)
                   for b in range(weight // 6 + 1) if 4 * a + 6 * b == weight),
                  key=lambda ab: -ab[0])


def _modular_combo(s: QSeries, weight: int) -> str | None:
    """Express a level-one series in E4^a*E6^b monomials, if possible."""
    monos = _weight_monomials(weight)
    if not monos or s.trunc < len(monos):
        return None
    cols = [(eisenstein(4, s.trunc) ** a) * (eisenstein(6, s.trunc) ** b)
            for a, b in monos]
    rows = [[col.coeffs[n] for col in cols] for n in range(s.trunc)]
    sol = linalg.solve(rows, list(s.coeffs))
    if sol is None:
        return None
    parts = []
    for (a, b), c in zip(monos, sol):
        if not c:
            continue
        factors = [f"E4^{a}" if a > 1 else "E4"] if a else []
        factors += [f"E6^{b}" if b > 1 else "E6"] if b else []
        mono = "*".join(factors) if factors else "1"
        parts.append(mono if c == 1 and factors else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def cmd_expand(args) -> int:
    trunc = config.get_config().truncation
    f = resolve_form(args.form, trunc)
    if args.at_zero:
        s = eval_zero(f)
        combo = _modular_combo(s, f.weight)
        text = f"{combo}  =  {_series_str(s)}" if combo else _series_str(s)
        data = {"form": args.form, "weight": f.weight, "index": f.index,
                "at_zero": [str(c) for c in s.coeffs]}
        if combo:
            data["combination"] = combo
        rows = [(n, str(c)) for n, c in enumerate(s.coeffs)]
        _emit(args, text=text, data=data, rows=rows, header=("order", "value"))
        return EXIT_OK
    _emit(args, text=lambda: _expansion_str(f),
          data=lambda: {**to_payload(f), "form": args.form},
          rows=lambda: _expansion_rows(f), header=("order", "orbit", "value"))
    return EXIT_OK


# -- verify ------------------------------------------------------------------

def _first_nonzero(f: JacobiExpansion):
    for n, d in enumerate(f.coeffs):
        for m in sorted(d, key=lambda m: (norm(m), m)):
            if d[m]:
                return n, m, d[m]
    return None


def _verify_lemma31(trunc: int):
    gens = sakai_generators(trunc)
    res = pivot_identity_residual(gens, trunc)
    wit = _first_nonzero(res)
    if wit is None:
        return True, [f"weight-6 pivot identity holds to q^{trunc - 1}"], None
    n, m, c = wit
    return False, [], f"residual q^{n} coefficient {c} on orbit {orbit_symbol(m)}"


def _verify_p165_holo(trunc: int):
    f = expand_poly(NAMED_POLYNOMIALS["P165"], trunc)
    lines = []
    try:
        quot = div_e4(f)
    except DivisionError as exc:
        return False, [], f"P165 expansion is not divisible by E4: {exc}"
    ok, viol = check_support(quot)
    if not ok:
        n, m, c = viol
        return False, [], (f"P165/E4 support violation at q^{n}, orbit "
                           f"{orbit_symbol(m)}, value {c}")
    lines.append(f"P165/E4 is holomorphic to q^{quot.trunc - 1}")
    target = ((eisenstein(4, trunc) ** 4).scale(864)
              + (eisenstein(4, trunc) * eisenstein(6, trunc) ** 2).scale(2296))
    got = eval_zero(f)
    if got != target:
        n = next(i for i in range(trunc) if got.coeffs[i] != target.coeffs[i])
        return False, [], (f"value at z=0 differs from 864*E4^4 + 2296*E4*E6^2 "
                           f"at q^{n}: {got.coeffs[n]} vs {target.coeffs[n]}")
    lines.append("value at z=0 equals 864*E4^4 + 2296*E4*E6^2")
    divisible, wit = reduction_obstruction_e4sq(trunc)
    if divisible:
        return False, [], "z=0 reduction unexpectedly divisible by E4^2"
    n, got, need = wit
    lines.append(f"z=0 reduction is not divisible by E4^2 "
                 f"(q^{n} coefficient {got} != {need})")
    return True, lines, None


def _verify_lemma34(trunc: int):
    w = FUNDAMENTAL
    cases = [("P1", 1, w[0]), ("P2", 1, w[7]), ("P3", 1, w[6]), ("P4", 2, w[1])]
    lines = []
    for name, dpow, m in cases:
        f = div_delta(expand_poly(NAMED_POLYNOMIALS[name], trunc), dpow)
        q0 = {x: c for x, c in f.coeffs[0].items() if c}
        if q0 != {tuple(m): Fraction(1)}:
            return False, [], (f"{name}/Delta^{dpow} has q^0-term "
                               f"{f.term_str(0)}, expected {orbit_symbol(m)}")
        lines.append(f"{name}/Delta^{dpow} has q^0-term {orbit_symbol(m)}")
    return True, lines, None


def _verify_listed_generators(t: int, table: dict, trunc: int):
    """The frozen small-index generators span the canonical module choices."""
    n_pow = st.n_cap(t)
    trunc = max(trunc, n_pow + 1)
    mod = st.module_generators(t, trunc)
    lines = []
    for k in sorted(table):
        poly, dpow = table[k]
        cert = poly
        for _ in range(n_pow - dpow):
            cert = cert * DELTA_POLY
        space = st.weak_basis(k, t, trunc)
        vec = st._cert_vector([cert], space)
        ncols = len(space.columns)
        if linalg.rank(list(space.kernel) + [vec], ncols) != space.dim:
            return False, [], f"index {t} weight {k}: listed form is not weak"
        image = st._image_vectors(space,
                                  st.weak_basis(k - 4, t, trunc),
                                  st.weak_basis(k - 6, t, trunc))
        rk_img = linalg.rank(image, ncols) if image else 0
        if linalg.rank(image + [vec], ncols) != rk_img + 1:
            return False, [], (f"index {t} weight {k}: listed form is a "
                               f"combination of lower-weight forms")
        chosen = mod.generators.get(k, [])
        if len(chosen) == 1:
            selvec = st._cert_vector(chosen[0].certificate, space)
            if linalg.rank(image + [vec, selvec], ncols) != rk_img + 1:
                return False, [], (f"index {t} weight {k}: listed form spans a "
                                   f"different new line than the computed one")
        lines.append(f"index {t} weight {k}: listed generator confirmed")
    series = mod.series(6)
    for k in range(mod.min_weight, 7, 2):
        dim = st.weak_basis(k, t, trunc).dim
        if dim != series.get(k, 0):
            return False, [], (f"index {t} weight {k}: direct dimension {dim} "
                               f"!= {series.get(k, 0)} from generator counts")
    lines.append(f"index {t}: direct dimensions match generator counting "
                 f"for weights {mod.min_weight}..6")
    return True, lines, None


def _verify_lemma62(_trunc: int):
    values = st.pairing_values()
    if values == st.EXPECTED_PAIRING:
        return True, [f"pairing values {values}"], None
    return False, [], f"pairing values {values} != {st.EXPECTED_PAIRING}"


def _verify_conjectures(_trunc: int, max_index: int = 3):
    report = st.conjecture_report(range(1, max_index + 1))
    return report["ok"], st.report_text(report).splitlines(), \
        None if report["ok"] else "see report above"


_VERIFY_DEFAULT_ORDER = {"lemma31": 2, "p165-holo": 3, "lemma34": 2,
                         "eq43": None, "eq44": None, "lemma62": None,
                         "conjectures": None}


def cmd_verify(args) -> int:
    check = args.check
    default = _VERIFY_DEFAULT_ORDER[check]
    trunc = config.get_config().truncation
    if args.order is None and default is not None:
        trunc = default + 1
    if check == "lemma31":
        ok, lines, witness = _verify_lemma31(trunc)
    elif check == "p165-holo":
        ok, lines, witness = _verify_p165_holo(trunc)
    elif check == "lemma34":
        ok, lines, witness = _verify_lemma34(trunc)
    elif check == "eq43":
        ok, lines, witness = _verify_listed_generators(2, WEAK_INDEX2, trunc)
    elif check == "eq44":
        ok, lines, witness = _verify_listed_generators(3, WEAK_INDEX3, trunc)
    elif check == "lemma62":
        ok, lines, witness = _verify_lemma62(trunc)
    else:
        ok, lines, witness = _verify_conjectures(trunc)
    status = "pass" if ok else "FAIL"
    text = "\n".join(lines + [f"{check}: {status}"]
                     + ([f"witness: {witness}"] if witness else []))
    data = {"check": check, "ok": ok, "detail": lines}
    if witness:
        data["witness"] = witness
    _emit(args, text=text, data=data,
          rows=[(check, status)], header=("check", "status"))
    return EXIT_OK if ok else EXIT_MISMATCH


# -- basis / generators / series ---------------------------------------------

def _certificate_text(cert) -> str:
    slots = [p.to_text() for p in cert]
    return slots[0] if len(slots) == 1 else " | ".join(
        f"slot {j}: {s}" for j, s in enumerate(slots))


def cmd_basis(args) -> int:
    t = args.index
    kind = args.kind
    _check_index_budget(kind, t)
    cfg_trunc = config.get_config().truncation
    if kind in ("weak", "holo") and args.weight is None:
        raise UsageError(f"basis {kind} requires --weight")

    if kind == "singular":
        d = max(st.n_cap(t) - 1, 0)
        required = max(d + st.m_cap(t), d + 2)
        space = st.singular_solve(t, trunc=max(required, cfg_trunc))
        lines = [f"dimension {space.dimension}"]
        elements = []
        for m in dominant_by_norm(t):
            result = space.phi(tuple(m))
            if result is None:
                continue
            form, coeff = result
            lines.append(f"phi[{orbit_symbol(m)}]  (q^1 coefficient {coeff}):")
            lines.append(f"  {_expansion_str(form)}")
            elements.append({"orbit": "".join(map(str, m)),
                             "coefficient": str(coeff),
                             "terms": to_payload(form)})
        data = {"kind": kind, "index": t, "weight": 4,
                "dimension": space.dimension, "elements": elements}
        rows = [(t, 4, space.dimension)]
        _emit(args, text="\n".join(lines), data=data, rows=rows,
              header=("index", "weight", "dimension"))
        return EXIT_OK

    k = args.weight
    if kind == "holo":
        dim = st.holo_dim(k, t, max(cfg_trunc, st.n_cap(t) + 1))
        _emit(args, text=f"dimension {dim}",
              data={"kind": kind, "weight": k, "index": t, "dimension": dim},
              rows=[(t, k, dim)], header=("index", "weight", "dimension"))
        return EXIT_OK

    space = st.weak_basis(k, t, max(cfg_trunc, st.n_cap(t) + 1))
    lines = [f"dimension {space.dim}"]
    elements = []
    for vec in space.kernel:
        cert = space.certificate(vec)
        form = space.form(vec)
        lines.append(f"[{len(elements) + 1}] certificate: {_certificate_text(cert)}")
        lines.append(f"    {_expansion_str(form)}")
        elements.append({"certificate": [p.to_text() for p in cert],
                         "terms": to_payload(form)})
    data = {"kind": kind, "weight": k, "index": t,
            "dimension": space.dim, "elements": elements}
    _emit(args, text="\n".join(lines), data=data,
          rows=[(t, k, space.dim)], header=("index", "weight", "dimension"))
    return EXIT_OK


def cmd_generators(args) -> int:
    t = args.index
    _check_index_budget("weak", t)
    trunc = max(config.get_config().truncation, st.n_cap(t) + 1)
    mod = st.module_generators(t, trunc)
    lines = [mod.weight_poly_str()]
    if args.certificates:
        for k in sorted(mod.generators):
            for g in mod.generators[k]:
                lines.append(f"weight {k}: {_certificate_text(g.certificate)}")
    data = {"index": t, "rank": mod.rank, "min_weight": mod.min_weight,
            "counts": {str(k): d for k, d in mod.weight_poly().items()},
            "polynomial": mod.weight_poly_str()}
    if args.certificates:
        data["certificates"] = {
            str(k): [[p.to_text() for p in g.certificate]
                     for g in mod.generators[k]]
            for k in sorted(mod.generators)}
    rows = sorted(mod.weight_poly().items())
    _emit(args, text="\n".join(lines), data=data,
          rows=rows, header=("weight", "count"))
    return EXIT_OK


def cmd_series(args) -> int:
    t = args.index
    order = args.to
    _check_index_budget("weak", t)
    trunc = max(config.get_config().truncation, st.n_cap(t) + 1)
    series = st.gen_series(t, order, trunc=trunc)
    text = st._laurent_str(series)
    data = {"index": t, "order": order,
            "series": {str(k): c for k, c in sorted(series.items())}}
    _emit(args, text=text, data=data,
          rows=sorted(series.items()), header=("exponent", "dimension"))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse makes a fresh namespace."""
    common = _Parser(add_help=False)
    common.add_argument("--order", type=int, default=None,
                        help="highest q-order to compute (default 5)")
    common.add_argument("--cache-dir", default=None,
                        help="expansion cache directory (default $E8JACOBI_CACHE)")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=None, help="output format (default text)")
    common.add_argument("--max-shell-norm", type=int, default=None,
                        help="memory guard for explicit shell enumeration")

    parser = _Parser(prog="e8jacobi",
                     description="Exact computer algebra for Weyl-invariant "
                                 "Jacobi expansions on the E8 weight lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", parents=[common],
                       help="print the engine's standard integer tables")
    p.add_argument("which", choices=("ranks", "delta", "singular-dims",
                                     "norms", "stability"))
    p.add_argument("--max", type=int, default=None, help="largest index")
    p.add_argument("--range", default=None, help="LO:HI inclusive")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("expand", parents=[common],
                       help="Fourier expansion of a named form or polynomial")
    p.add_argument("form", help="form name (A1..B6, E4, E6, X<t>, P165, "
                                "Q185, P1..P4) or polynomial text")
    p.add_argument("order_pos", type=int, nargs="?", default=None,
                   metavar="order", help="highest q-order (same as --order)")
    p.add_argument("--at-zero", action="store_true",
                   help="print the z=0 specialization instead")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", parents=[common],
                       help="check one of the engine's frozen identities")
    p.add_argument("check", choices=("lemma31", "p165-holo", "lemma34",
                                     "eq43", "eq44", "lemma62", "conjectures"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", parents=[common],
                       help="basis of a weak / holomorphic / singular space")
    p.add_argument("kind", choices=("weak", "holo", "singular"))
    p.add_argument("index", type=int)
    p.add_argument("--weight", type=int, default=None)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("generators", parents=[common],
                       help="module generators at an index, as a weight polynomial")
    p.add_argument("index", type=int)
    p.add_argument("--certificates", action="store_true",
                   help="also print each generator's polynomial certificate")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("series", parents=[common],
                       help="dimension generating series at an index")
    p.add_argument("index", type=int)
    p.add_argument("--to", type=int, default=20, help="highest exponent")
    p.set_defaults(func=cmd_series)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    overrides = {}
    order = getattr(args, "order_pos", None)
    if order is None:
        order = getattr(args, "order", None)
    if order is not None:
        if order < 0:
            print("usage error: --order must be non-negative", file=sys.stderr)
            return EXIT_USAGE
        overrides["truncation"] = order + 1
    if args.cache_dir is not None:
        overrides["cache_dir"] = args.cache_dir
    if args.format is not None:
        overrides["fmt"] = args.format
    if args.max_shell_norm is not None:
        overrides["max_shell_norm"] = args.max_shell_norm

    try:
        with config.using(**overrides):
            return args.func(args)
    except (DivisionError, ArithmeticError) as exc:
        # DivisionError is a ValueError, so this comes before ValueError.
        # ArithmeticError is what the engine's self-checks raise.
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruncationError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
