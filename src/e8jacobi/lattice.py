"""Exact arithmetic for the E8 root lattice in fundamental-weight coordinates.

Vectors are tuples/arrays of eight integers: the pairings (v, alpha_i) with the
simple roots, all of squared length 2.  The node numbering follows the chain
1-3-4-5-6-7-8 with node 2 attached to node 4; node 8 carries the highest root.
The lattice is unimodular, so weight coordinates are a bijective integer
encoding of lattice vectors and the Gram matrix of the fundamental weights is
the (integral) inverse of the Cartan matrix.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

import numpy as np

from .config import TruncationError

RANK = 8
WEYL_ORDER = 696_729_600

_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _build_cartan() -> tuple[tuple[int, ...], ...]:
    c = [[2 if i == j else 0 for j in range(RANK)] for i in range(RANK)]
    for a, b in _EDGES:
        c[a - 1][b - 1] = c[b - 1][a - 1] = -1
    return tuple(tuple(row) for row in c)


CARTAN = _build_cartan()
CARTAN_NP = np.array(CARTAN, dtype=np.int64)


def _invert_cartan() -> tuple[tuple[int, ...], ...]:
    # Exact inverse; unimodularity makes every entry a nonnegative integer.
    n = RANK
    a = [[Fraction(CARTAN[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = tuple(tuple(int(a[i][n + j]) for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            assert sum(CARTAN[i][k] * out[k][j] for k in range(n)) == (i == j)
    return out


WEIGHT_GRAM = _invert_cartan()
WEIGHT_GRAM_NP = np.array(WEIGHT_GRAM, dtype=np.int64)

# Pairings of the fundamental weights with the highest-root weight w8, and the
# coordinate-sum functional of root coordinates (strictly monotone along the
# dominance order, used to keep basis conversions triangular).
T_WEIGHTS = WEIGHT_GRAM[7]
HEIGHT_VEC = tuple(sum(WEIGHT_GRAM[i][j] for i in range(RANK)) for j in range(RANK))

assert T_WEIGHTS == (2, 3, 4, 6, 5, 4, 3, 2)
assert tuple(WEIGHT_GRAM[i][i] for i in range(RANK)) == (4, 8, 14, 30, 20, 12, 6, 2)
assert tuple(WEIGHT_GRAM[0]) == (4, 5, 7, 10, 8, 6, 4, 2)

FUNDAMENTAL = tuple(tuple(int(i == j) for j in range(RANK)) for i in range(RANK))
ZERO = (0,) * RANK


def inner_product(m1, m2) -> int:
    """Exact bilinear pairing of two vectors given in weight coordinates."""
    sm = [sum(WEIGHT_GRAM[i][j] * m2[j] for j in range(RANK)) for i in range(RANK)]
    return sum(m1[i] * sm[i] for i in range(RANK))


@lru_cache(maxsize=None)
def norm(m: tuple[int, ...]) -> int:
    """Squared length (m, m) of a weight tuple; always an even integer."""
    return inner_product(m, m)


def t_degree(m) -> int:
    """Pairing with the highest root: the grading that indexes the orbit fans."""
    return sum(T_WEIGHTS[i] * m[i] for i in range(RANK))


def height(m) -> int:
    """Sum of root coordinates; strictly increases along the dominance order."""
    return sum(HEIGHT_VEC[i] * m[i] for i in range(RANK))


def to_dominant(m) -> tuple[int, ...]:
    """Reflect into the dominant chamber (unique orbit representative)."""
    v = list(m)
    while True:
        for i in range(RANK):
            if v[i] < 0:
                c = v[i]
                row = CARTAN[i]
                for j in range(RANK):
                    v[j] -= c * row[j]
                break
        else:
            return tuple(v)


def dominant_batch(arr: np.ndarray) -> np.ndarray:
    """Vectorised to_dominant over the rows of an (n, 8) integer array."""
    arr = np.array(arr, dtype=np.int64, copy=True)
    if arr.size == 0:
        return arr.reshape(0, RANK)
    out = np.empty_like(arr)
    idx = np.arange(len(arr))
    active = arr
    while len(active):
        neg = active < 0
        unfinished = neg.any(axis=1)
        done = ~unfinished
        if done.any():
            out[idx[done]] = active[done]
            active = active[unfinished]
            idx = idx[unfinished]
            neg = neg[unfinished]
            if not len(active):
                break
        first = neg.argmax(axis=1)
        coef = active[np.arange(len(active)), first]
        active = active - coef[:, None] * CARTAN_NP[first]
    return out


_ENC_BASE = 128
_ENC_POW = (_ENC_BASE ** np.arange(RANK - 1, -1, -1)).astype(np.int64)


def encode(arr: np.ndarray) -> np.ndarray:
    """Pack rows of small-coordinate vectors into distinct int64 keys."""
    if np.abs(arr).max(initial=0) >= _ENC_BASE // 2:
        # a larger coordinate carries into the next digit: keys would collide
        raise ArithmeticError(f"coordinate beyond the key range +-{_ENC_BASE // 2 - 1}")
    return (arr + _ENC_BASE // 2) @ _ENC_POW


def decode(keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty((len(keys), RANK), dtype=np.int64)
    rem = keys.copy()
    for j in range(RANK - 1, -1, -1):
        out[:, j] = rem % _ENC_BASE - _ENC_BASE // 2
        rem //= _ENC_BASE
    return out


def _components(nodes: frozenset[int]) -> list[list[int]]:
    adj = {n: [] for n in nodes}
    for a, b in _EDGES:
        if a - 1 in nodes and b - 1 in nodes:
            adj[a - 1].append(b - 1)
            adj[b - 1].append(a - 1)
    seen: set[int] = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append((comp, adj))
    return comps


def _coxeter_order(comp: list[int], adj: dict[int, list[int]]) -> int:
    n = len(comp)
    degs = {v: len(adj[v]) for v in comp}
    if n == 0:
        return 1
    if max(degs.values(), default=0) <= 2:
        return factorial(n + 1)  # type A_n
    branch = next(v for v in comp if degs[v] == 3)
    tails = []
    for start in adj[branch]:
        length, prev, cur = 1, branch, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        tails.append(length)
    tails.sort()
    if tails[0] == 1 and tails[1] == 1:
        return 2 ** (n - 1) * factorial(n)  # type D_n
    return {(1, 2, 2): 51_840, (1, 2, 3): 2_903_040, (1, 2, 4): WEYL_ORDER}[tuple(tails)]


@lru_cache(maxsize=None)
def parabolic_order(nodes: frozenset[int]) -> int:
    """Order of the parabolic subgroup W_J generated by the reflections of `nodes`."""
    order = 1
    for comp, adj in _components(nodes):
        order *= _coxeter_order(comp, adj)
    return order


@lru_cache(maxsize=None)
def orbit_size(m: tuple[int, ...]) -> int:
    """Orbit cardinality |W m| from the parabolic stabiliser of the dominant rep."""
    m = to_dominant(m)
    stab = parabolic_order(frozenset(i for i in range(RANK) if m[i] == 0))
    assert WEYL_ORDER % stab == 0
    return WEYL_ORDER // stab


def orbit_vectors(m) -> np.ndarray:
    """All orbit elements of the dominant representative of m, as an (N, 8) array.

    The simple reflection s_i sends v to v - v_i alpha_i, which lowers the height
    by exactly v_i when v_i > 0, and every orbit element other than the dominant
    one (the unique highest) is reached from a higher one this way.  So the orbit
    is swept one height level at a time, highest first: a level is complete once
    every higher level has been expanded, and it is deduplicated on its own,
    since vectors of different heights differ.  Rows come out by falling height.
    """
    m = to_dominant(m)
    pending: dict[int, list[np.ndarray]] = {height(m): [np.array([m], dtype=np.int64)]}
    blocks = []
    while pending:
        h = max(pending)
        level = np.concatenate(pending.pop(h))
        _, first = np.unique(encode(level), return_index=True)
        level = level[first]
        blocks.append(level)
        for i in range(RANK):
            down = level[:, i] > 0
            drops = level[down, i]
            children = level[down] - drops[:, None] * CARTAN_NP[i]
            for d in np.unique(drops):
                pending.setdefault(h - int(d), []).append(children[drops == d])
    out = np.concatenate(blocks)
    if len(out) != orbit_size(m):
        raise ArithmeticError(
            f"orbit of {m}: enumerated {len(out)} vectors, formula gives {orbit_size(m)}")
    return out


@lru_cache(maxsize=None)
def fundamental_orbit(i: int) -> np.ndarray:
    """Orbit of the i-th fundamental weight (0-based index), cached."""
    arr = orbit_vectors(FUNDAMENTAL[i])
    arr.setflags(write=False)
    return arr


def _ldl(mat) -> tuple[list[Fraction], list[list[Fraction]]]:
    n = len(mat)
    a = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        for j in range(i + 1, n):
            l[i][j] = a[i][j] / a[i][i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / a[i][i]
                a[k][j] = a[j][k]
    return d, l


_SHELL_D, _SHELL_L = _ldl(CARTAN)
# Largest squared norm `shell` enumerates: the norm-16 shell has 240 * 585
# vectors; each next shell is larger still and nothing in the engine asks for it.
_SHELL_GUARD = 16


def shell(n: int) -> np.ndarray:
    """All lattice vectors of squared norm 2n, in weight coordinates.

    Exact Fincke-Pohst enumeration of the Cartan quadratic form over root
    coordinates; independent of the Weyl-orbit machinery so the two can be
    cross-checked (the count must be 240 * sigma_3(n)).
    """
    if n < 0:
        return np.zeros((0, RANK), dtype=np.int64)
    if n == 0:
        return np.zeros((1, RANK), dtype=np.int64)
    if 2 * n > _SHELL_GUARD:
        raise TruncationError(
            f"shell of squared norm {2 * n} exceeds the memory guard "
            f"(squared norm {_SHELL_GUARD})")
    target = Fraction(2 * n)
    sols: list[list[int]] = []
    coords = [0] * RANK

    def dfs(i: int, rem: Fraction) -> None:
        if i < 0:
            if rem == 0:
                sols.append(coords.copy())
            return
        c = sum(_SHELL_L[i][j] * coords[j] for j in range(i + 1, RANK))
        # bracket |a + c| <= sqrt(rem / d_i) with floats, decide exactly
        bound = float(rem / _SHELL_D[i]) ** 0.5
        lo = int(-float(c) - bound) - 2
        hi = int(-float(c) + bound) + 2
        for a in range(lo, hi + 1):
            term = _SHELL_D[i] * (a + c) ** 2
            if term <= rem:
                coords[i] = a
                dfs(i - 1, rem - term)
        coords[i] = 0

    dfs(RANK - 1, target)
    root_coords = np.array(sols, dtype=np.int64).reshape(len(sols), RANK)
    return root_coords @ CARTAN_NP


def sigma(n: int, k: int) -> int:
    """Divisor power sum sigma_k(n)."""
    assert n >= 1
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def shell_count(n: int) -> int:
    return 1 if n == 0 else 240 * sigma(n, 3)


@lru_cache(maxsize=None)
def dominant_by_T(t: int) -> tuple[tuple[int, ...], ...]:
    """All dominant weights m with (m, w8) <= t, sorted by (T, norm, coords)."""
    found: list[tuple[int, ...]] = []

    def rec(i: int, rem: int, cur: list[int]) -> None:
        if i == RANK:
            found.append(tuple(cur))
            return
        w = T_WEIGHTS[i]
        for c in range(rem // w + 1):
            cur.append(c)
            rec(i + 1, rem - c * w, cur)
            cur.pop()

    rec(0, t, [])
    found.sort(key=lambda m: (t_degree(m), norm(m), m))
    return tuple(found)


@lru_cache(maxsize=None)
def dominant_by_norm(a: int) -> tuple[tuple[int, ...], ...]:
    """All dominant weights m with (m, m) = 2a, for a >= 0.

    The argument is half the squared norm — the natural integer grading of an
    even lattice: the norm-a set supports the q^a term of the index-1 theta
    expansion, and its size is the orbit count N(a).
    """
    if a == 0:
        return (ZERO,)
    if a < 0:
        return ()
    # (m, w8) <= |m| * |w8| = sqrt(2a * 2), so a T-bound cut is exhaustive.
    tmax = isqrt(4 * a)
    return tuple(m for m in dominant_by_T(tmax) if norm(m) == 2 * a)


def max_norm_by_T(t: int) -> int:
    """Largest squared norm among dominant weights with (m, w8) <= t."""
    return max(norm(m) for m in dominant_by_T(t))


def max_pairing(m, v) -> int:
    """Maximum of (y, v) over the Weyl orbit of y = m, for dominant m.

    Equals (m, v+) where v+ is the dominant representative of v: pairing
    against a dominant weight is maximized at the dominant point of the
    orbit.  (Equivalently the maximum of (m, u) over the orbit of v.)
    """
    m = tuple(m)
    assert all(c >= 0 for c in m), "first argument must be dominant"
    return inner_product(m, to_dominant(v))
