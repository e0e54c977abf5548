"""Exact change of basis between Weyl-orbit sums and fundamental-orbit monomials.

For a dominant weight x write orb(x) for the monomial symmetric sum over the
orbit W·x (a Laurent polynomial in the eight z-variables).  The eight sums
u_i := orb(w_i) over the fundamental-weight orbits generate the invariant ring,
and every orb(x) is a Z-polynomial in them.  The engine computes in the
monomial basis u^l = prod u_i^{l_i}, where products are free (exponents add),
and reaches the public orbit-sum basis through two exact integer tables:

    mono_to_orbit(l):  u^l      = sum_y  N(l, y)  orb(y)
    orbit_to_mono(x):  orb(x)   = sum_l  c(x, l)  u^l

Both are unitriangular with respect to the dominance order: u^l contains
orb(l) with coefficient exactly 1 and otherwise only dominance-smaller orbits.
So orbit_to_mono is the recursive inverse of mono_to_orbit, and a
u-polynomial converts to orbit sums as the direct sum
sum_l p_l * mono_to_orbit(l) over its own monomials.  N(l, y) is built by
repeated one-orbit convolution passes

    orb(x) * u_i = sum_y  M(x, i; y) orb(y),
    M(x, i; y) = |W x| * #{v in W w_i : dom(x + v) = y} / |W y|,

each a single vectorised dominant-reduction.  The count is constant on the
orbits of the stabiliser W_x in W w_i, so a pass reduces one representative
per stabiliser orbit, weighted by its size, not the whole fundamental orbit.
The exactness of the integer division and the total-count conservation law
sum_y N(l, y) |W y| = prod |W w_i|^{l_i} are checked on every computed row
(ArithmeticError if either fails).

u-polynomials are dicts keyed by packed exponents (base 32 per generator), so
monomial multiplication is integer addition of keys.  `pack` and every
product check that no exponent reaches 32, which would carry into the next
generator (ArithmeticError).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from . import config
from .lattice import (
    FUNDAMENTAL,
    RANK,
    ZERO,
    decode,
    dominant_batch,
    encode,
    fundamental_orbit,
    orbit_size,
    parabolic_order,
    t_degree,
)

_PACK_BITS = 5
_PACK_BASE = 1 << _PACK_BITS
_PACK_POW = tuple(_PACK_BASE ** i for i in range(RANK))
KEY_ONE = 0


def pack(l) -> int:
    key = 0
    for i in range(RANK):
        e = l[i]
        if not 0 <= e < _PACK_BASE:
            raise ArithmeticError(f"exponent {e} out of packing range")
        key += e * _PACK_POW[i]
    return key


def unpack(key: int) -> tuple[int, ...]:
    out = []
    for _ in range(RANK):
        out.append(key % _PACK_BASE)
        key //= _PACK_BASE
    return tuple(out)


def check_product(a_keys, b_keys) -> None:
    """Raise unless every product of a key in `a_keys` and one in `b_keys` packs.

    The per-generator maximum exponents of the two sides must sum below 32.
    """
    a_keys, b_keys = set(a_keys), set(b_keys)
    if not a_keys or not b_keys:
        return
    for i in range(RANK):
        shift = _PACK_BITS * i
        top = (max((k >> shift) & (_PACK_BASE - 1) for k in a_keys)
               + max((k >> shift) & (_PACK_BASE - 1) for k in b_keys))
        if top >= _PACK_BASE:
            raise ArithmeticError(f"product exponent {top} of u_{i + 1} out of packing range")


_FUND_SIZES = tuple(orbit_size(tuple(int(i == j) for j in range(RANK))) for i in range(RANK))
_STRIP_ORDER = sorted(range(RANK), key=lambda i: _FUND_SIZES[i])

_mpass: dict[tuple[tuple[int, ...], int], dict[tuple[int, ...], int]] = {}
_mono: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
_inv: dict[tuple[int, ...], dict[int, int]] = {}
_mpass_dirty = False


def _orbit_pass(x: tuple[int, ...], i: int) -> dict[tuple[int, ...], int]:
    """Decompose orb(x) * u_i into orbit sums, for dominant x.

    The stabiliser W_J of x (J = the zero nodes of x) permutes W·w_i and
    fixes dom(x + v) along each of its orbits, so only the J-dominant v
    (v_j >= 0 for j in J), one per W_J-orbit, are reduced, each counted
    |W_J| / |W_{J ∩ zero(v)}| times.  For x = 0 that is w_i alone.
    """
    key = (x, i)
    row = _mpass.get(key)
    if row is not None:
        return row
    J = [j for j in range(RANK) if x[j] == 0]
    if len(J) == RANK:
        reps = np.array([FUNDAMENTAL[i]], dtype=np.int64)
    else:
        reps = fundamental_orbit(i)
        reps = reps[(reps[:, J] >= 0).all(axis=1)]
    stab_x = parabolic_order(frozenset(J))
    patterns, of_pattern = np.unique(reps[:, J] == 0, axis=0, return_inverse=True)
    sizes = np.array([stab_x // parabolic_order(frozenset(j for j, z in zip(J, p) if z))
                      for p in patterns], dtype=np.int64)
    keys, of_key = np.unique(encode(dominant_batch(reps + np.array(x, dtype=np.int64))),
                             return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, of_key.ravel(), sizes[of_pattern.ravel()])
    sx = orbit_size(x)
    row = {}
    for y, c in zip(decode(keys), counts.tolist()):
        y = tuple(int(v) for v in y)
        num = sx * c
        sy = orbit_size(y)
        if num % sy:
            raise ArithmeticError(f"orb{x} * u_{i + 1}: multiplicity of orb{y} is not integral")
        row[y] = num // sy
    _mpass[key] = row
    global _mpass_dirty
    _mpass_dirty = True
    return row


def mono_to_orbit(l: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Orbit-sum decomposition of the monomial u^l (exact integer counts)."""
    l = tuple(l)
    row = _mono.get(l)
    if row is not None:
        return row
    strip = next((i for i in _STRIP_ORDER if l[i]), None)
    if strip is None:
        row = {ZERO: 1}
    else:
        sub = list(l)
        sub[strip] -= 1
        acc: dict[tuple[int, ...], int] = {}
        for y, n in mono_to_orbit(tuple(sub)).items():
            for z, m in _orbit_pass(y, strip).items():
                acc[z] = acc.get(z, 0) + n * m
        row = acc
        total = 1
        for i in range(RANK):
            total *= _FUND_SIZES[i] ** l[i]
        if sum(n * orbit_size(y) for y, n in row.items()) != total:
            raise ArithmeticError(f"u^{l}: orbit count conservation failed")
    _mono[l] = row
    return row


def orbit_to_mono(x: tuple[int, ...]) -> dict[int, int]:
    """u-monomial decomposition of the orbit sum orb(x), as packed keys."""
    x = tuple(x)
    row = _inv.get(x)
    if row is not None:
        return row
    expansion = mono_to_orbit(x)
    if expansion.get(x) != 1:
        raise ArithmeticError(f"u^{x} must contain orb{x} with coefficient 1")
    acc: dict[int, int] = {pack(x): 1}
    for y, n in expansion.items():
        if y == x:
            continue
        for k, c in orbit_to_mono(y).items():
            v = acc.get(k, 0) - n * c
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
    # evaluation at z = 0 sends u_i -> |W w_i| and orb(x) -> |W x|
    total = 0
    for k, c in acc.items():
        term = c
        for i, e in enumerate(unpack(k)):
            term *= _FUND_SIZES[i] ** e
        total += term
    if total != orbit_size(x):
        raise ArithmeticError(f"orbit-to-monomial inverse of orb{x} fails at z = 0")
    _inv[x] = acc
    return acc


def lincomb(terms) -> dict:
    """sum c * d over (coefficient, dict) pairs, summed as integers on one denominator."""
    terms = [(Fraction(c), d) for c, d in terms if c]
    den = lcm(*(c.denominator * v.denominator for c, d in terms for v in d.values()))
    acc = {}
    for c, d in terms:
        num, scale = c.numerator, den // c.denominator
        for k, v in d.items():
            acc[k] = acc.get(k, 0) + num * v.numerator * (scale // v.denominator)
    return {k: Fraction(v, den) for k, v in acc.items() if v}


def orbit_dict_to_upoly(d: dict[tuple[int, ...], Fraction]) -> dict[int, Fraction]:
    return lincomb((c, orbit_to_mono(tuple(x))) for x, c in d.items())


def upoly_to_orbit_dict(p: dict[int, Fraction]) -> dict[tuple[int, ...], Fraction]:
    """Invert orbit_dict_to_upoly: sum_l p_l * mono_to_orbit(l)."""
    return lincomb((c, mono_to_orbit(unpack(k))) for k, c in p.items())


def upoly_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    check_product(a, b)
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, Fraction] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            v = out.get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def upoly_scale(a: dict[int, Fraction], c: Fraction) -> dict[int, Fraction]:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def upoly_add_into(acc: dict[int, Fraction], a: dict[int, Fraction], c: Fraction) -> None:
    if not c:
        return
    for k, v in a.items():
        w = acc.get(k, 0) + v * c
        if w:
            acc[k] = w
        else:
            acc.pop(k, None)


def upoly_eval_sizes(p: dict[int, Fraction]) -> Fraction:
    """Evaluate at z = 0: substitute u_i -> |W w_i|."""
    total = Fraction(0)
    for k, c in p.items():
        term = c
        for i, e in enumerate(unpack(k)):
            if e:
                term *= _FUND_SIZES[i] ** e
        total += term
    return total


def key_t_degree(key: int) -> int:
    return t_degree(unpack(key))


# ---------------------------------------------------------------------------
# persistence for the convolution-pass table (the only expensive piece)

_TABLE_ID = "orbit-pass-table"


def _weight(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def load_tables() -> None:
    """Merge the saved pass table; an unreadable or malformed one loads nothing."""
    payload = config.get_store().load(_TABLE_ID)
    if not payload:
        return
    try:
        rows = {(_weight(xkey), int(istr)): {_weight(ykey): int(n) for ykey, n in row.items()}
                for xkey, entry in payload.items() for istr, row in entry.items()}
    except (AttributeError, TypeError, ValueError):
        return
    for key, row in rows.items():
        _mpass.setdefault(key, row)


def save_tables() -> None:
    global _mpass_dirty
    if not _mpass_dirty:
        return
    store = config.get_store()
    if not store.enabled:
        return
    payload: dict[str, dict[str, dict[str, int]]] = {}
    for (x, i), row in _mpass.items():
        xkey = ",".join(map(str, x))
        payload.setdefault(xkey, {})[str(i)] = {
            ",".join(map(str, y)): n for y, n in row.items()
        }
    store.store(_TABLE_ID, payload)
    _mpass_dirty = False
