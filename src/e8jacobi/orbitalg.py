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

A u-polynomial is a pair (den, nums): one positive integer denominator and a
dict {packed key: int numerator}, reduced so that gcd(den, numerators) = 1
and no numerator is zero.  Equal polynomials are therefore equal pairs, and
all arithmetic on them runs on ints: `lincomb` sums rational multiples of
u-polynomials over the lcm of their denominators, and the conversions sum
integer table rows.  `Fraction`s appear only in the orbit dicts that
`upoly_to_orbit_dict` returns and `orbit_dict_to_upoly` reads.  Keys are
packed exponents (base 32 per generator), so monomial multiplication is
integer addition of keys.  `pack` and every product check that no exponent
reaches 32, which would carry into the next generator (ArithmeticError).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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

#: A u-polynomial: one positive denominator and {packed key: int numerator},
#: with gcd(den, numerators) = 1 and no zero numerator, so equal polynomials
#: are equal pairs.  The empty polynomial is (1, {}).
UPoly = tuple[int, dict[int, int]]


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
_key_rows: dict[int, dict[int, int]] = {}
_orbit_id: dict[tuple[int, ...], int] = {}
_orbits: list[tuple[int, ...]] = []
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


def _accumulate(terms) -> dict:
    """sum m * d over (int multiplier, int-valued dict) pairs, zeros dropped."""
    acc: dict = {}
    get = acc.get
    for m, d in terms:
        if m == 1:
            for k, v in d.items():
                acc[k] = get(k, 0) + v
        else:
            for k, v in d.items():
                acc[k] = get(k, 0) + m * v
    return {k: v for k, v in acc.items() if v}


def canonical(den: int, nums: dict[int, int]) -> UPoly:
    """(den, nums) divided by gcd(den, nums): the canonical form."""
    if not nums:
        return 1, {}
    g = gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {k: v // g for k, v in nums.items()}


def lincomb(terms) -> UPoly:
    """sum c * p over (rational coefficient, u-polynomial) pairs, in integers
    over the lcm of the denominators, then reduced to the canonical form."""
    parts = [(c.numerator, c.denominator * den, nums)
             for c, (den, nums) in terms if c and nums]
    if not parts:
        return 1, {}
    den = lcm(*(d for _, d, _ in parts))
    return canonical(den, _accumulate((num * (den // d), nums) for num, d, nums in parts))


def orbit_dict_to_upoly(d: dict[tuple[int, ...], Fraction]) -> UPoly:
    d = {x: c for x, c in d.items() if c}
    den = lcm(*(c.denominator for c in d.values()))
    return canonical(den, _accumulate((c.numerator * (den // c.denominator),
                                       orbit_to_mono(tuple(x))) for x, c in d.items()))


def _key_row(key: int) -> dict[int, int]:
    """mono_to_orbit of a packed key, over orbit ids (`_orbits[id]` is the
    weight): small ints hash and compare faster than weight tuples."""
    row = _key_rows.get(key)
    if row is None:
        row = {}
        for y, n in mono_to_orbit(unpack(key)).items():
            i = _orbit_id.get(y)
            if i is None:
                i = _orbit_id[y] = len(_orbits)
                _orbits.append(y)
            row[i] = n
        _key_rows[key] = row
    return row


def upoly_to_orbit_dict(p: UPoly) -> dict[tuple[int, ...], Fraction]:
    """Invert orbit_dict_to_upoly: sum_l p_l * mono_to_orbit(l), over the
    denominator of p."""
    den, nums = p
    acc = _accumulate((v, _key_row(k)) for k, v in nums.items())
    return {_orbits[i]: Fraction(v, den) for i, v in acc.items()}


def upoly_eval_sizes(p: UPoly) -> Fraction:
    """Evaluate at z = 0: substitute u_i -> |W w_i|."""
    den, nums = p
    total = 0
    for k, c in nums.items():
        for i, e in enumerate(unpack(k)):
            if e:
                c *= _FUND_SIZES[i] ** e
        total += c
    return Fraction(total, den)


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
