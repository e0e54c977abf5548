"""Exact rational linear algebra: rank, kernel bases, reduced echelon forms, solving.

Rows are first cleared to integers (`_int_rows`).  `rank` and `solve`
forward-eliminate them with the fraction-free two-term (Bareiss) update.

`kernel_basis` and `rref` share one certified multi-modular routine,
`_certified_rref`:

1. Elimination mod p.  The integer rows are brought to reduced row echelon
   form modulo primes p < 2**31 in numpy int64.  Residues stay below p, so
   every product of two of them is below 2**62 and the arithmetic is exact.
2. Prime order.  The primes are taken in one fixed order, downwards from
   2**31 - 1, so a run is deterministic.
3. Unlucky primes.  A prime whose rank profile (the rank, then the pivot
   columns) is worse than the best seen so far is dropped; a better one
   discards the primes before it.
4. Reconstruction.  The residues of the primes with the best profile are
   combined by the Chinese remainder theorem, and every entry is recovered
   by Wang's rational reconstruction (Wang, Guy & Davenport 1982).
5. Certificate.  From the candidate R, read one kernel vector per free
   column f: x_f[f] = 1 and x_f[c_i] = -R[i][f] for the pivot c_i of row i.
   R is accepted only when every x_f annihilates every input row exactly.

Why the certificate proves R and the x_f canonical: x_f is zero past f, so
column f depends on earlier columns over Q and is no rational pivot.  There
are ncols - rank_p independent x_f, so rank_Q <= rank_p, and rank_Q >= rank_p
always; hence the pivots found mod p are the rational pivot columns and the
x_f (1 at their own free column, 0 at the others) are the canonical kernel
basis.  R x_f = 0 by construction, so the rows of R span the annihilator of
the kernel, which is the row space, and R is its unique RREF.

An unlucky prime divides a nonzero pivot minor, so once the primes of one
profile multiply past the Hadamard bound H of the rows, that profile is the
rational one; every RREF entry is a ratio of two minors bounded by H, so
reconstruction succeeds once the modulus passes 2 H**2.  A certificate still
failing there means a wrong elimination: `ArithmeticError`.

Pivot columns are the column rank profile, which does not depend on the row
order, so shuffling or rescaling input rows cannot change the kernel or R.
Canonical kernel vectors are integer tuples with content 1 whose first
nonzero entry is positive.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

import numpy as np


def _int_rows(matrix) -> list[list[int]]:
    """The nonzero rows, each cleared to a primitive integer row."""
    out = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
        ints = [x.numerator * (den // x.denominator) if isinstance(x, Fraction)
                else int(x) * den for x in row]
        g = gcd(*ints)
        if g:
            out.append([v // g for v in ints] if g != 1 else ints)
    return out


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free elimination; returns (rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    prev = 1
    nrows = len(rows)
    for c in range(ncols):
        best = None
        for i in range(r, nrows):
            v = rows[i][c]
            if v and (best is None or abs(v).bit_length() < abs(rows[best][c]).bit_length()):
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv_row = rows[r]
        piv = piv_row[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                for k in range(c + 1, ncols):
                    row[k] = (piv * row[k] - f * piv_row[k]) // prev
                row[c] = 0
            else:
                # rows untouched by the pivot still rescale by piv/prev to keep
                # every entry a minor of the input (exactness of later //)
                for k in range(c + 1, ncols):
                    row[k] = piv * row[k] // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[: len(pivots)], pivots


def rank(matrix, ncols: int | None = None) -> int:
    rows = _int_rows(matrix)
    if not rows:
        return 0
    n = ncols if ncols is not None else len(rows[0])
    return len(_echelon(rows, n)[1])


def _canonical(vec: list[Fraction]) -> tuple[int, ...]:
    den = 1
    for x in vec:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _is_prime(n: int) -> bool:
    """Miller-Rabin for odd n < 3,215,031,751, where bases 2, 3, 5, 7 decide."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_PRIMES: list[int] = []


def _prime(i: int) -> int:
    """The i-th prime below 2**31, counting down from 2**31 - 1."""
    n = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
    while len(_PRIMES) <= i:
        if _is_prime(n):
            _PRIMES.append(n)
        n -= 2
    return _PRIMES[i]


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan in place on residues in [0, p); returns (the nonzero rows
    of the RREF mod p, pivot columns)."""
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(col[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def _reconstruct(u: int, m: int) -> Fraction | None:
    """Wang: the n/d with |n|, d <= sqrt(m/2) and n = u*d mod m, if any."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certified_rref(rows: list[list[int]], ncols: int) -> tuple[
        list[list[Fraction]], list[tuple[int, ...]]]:
    """(R, kernel) of nonzero integer rows: the nonzero rows of the RREF and
    the canonical kernel basis, one vector per free column, certified exactly."""
    if not rows:
        return [], [tuple(int(c == f) for c in range(ncols)) for f in range(ncols)]
    ints = np.array(rows, dtype=object)
    h2 = 1  # squared Hadamard bound of every minor
    for n2 in sorted((sum(v * v for v in row) for row in rows), reverse=True)[:ncols]:
        h2 *= n2
    best = None
    k = 0
    while True:
        p = _prime(k)
        k += 1
        red, pivots = _rref_mod((ints % p).astype(np.int64), p)
        profile = (-len(pivots), pivots)
        if best is None or profile < best:
            best, modulus = profile, 1
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
        elif profile > best:
            continue
        res = red[:, free]
        if modulus == 1:
            acc = res.astype(object)
        else:
            t = (res - (acc % p).astype(np.int64)) * pow(modulus % p, -1, p) % p
            acc = acc + modulus * t.astype(object)
        modulus *= p
        values = []
        for u in acc.ravel().tolist():
            v = _reconstruct(u, modulus)
            if v is None:
                break
            values.append(v)
        else:
            reduced, kernel = _read_off(values, pivots, free, ncols)
            if not kernel or not np.dot(ints, np.array(kernel, dtype=object).T).any():
                return reduced, kernel
        if modulus > 2 * h2:
            raise ArithmeticError("kernel verification failed")


def _read_off(values: list[Fraction], pivots: list[int], free: list[int],
              ncols: int) -> tuple[list[list[Fraction]], list[tuple[int, ...]]]:
    """R from its free-column entries (row-major), and the canonical x_f."""
    reduced = []
    kernel = [[Fraction(0)] * ncols for _ in free]
    for j, f in enumerate(free):
        kernel[j][f] = Fraction(1)
    it = iter(values)
    for c in pivots:
        row = [Fraction(0)] * ncols
        row[c] = Fraction(1)
        for j, f in enumerate(free):
            row[f] = v = next(it)
            kernel[j][c] = -v
        reduced.append(row)
    return reduced, [_canonical(x) for x in kernel]


def kernel_basis(matrix, ncols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel, one vector per free column."""
    return _certified_rref(_int_rows(matrix), ncols)[1]


def rref(matrix, ncols: int) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows ordered by pivot column, each pivot entry 1 and
    alone in its column.  The result depends only on the row span, so
    shuffling or rescaling the input rows yields the identical list.
    """
    return [tuple(row) for row in _certified_rref(_int_rows(matrix), ncols)[0]]


def solve(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(rows[0]) - 1 if rows else 0
    irows = _int_rows(rows)
    if not irows:
        return [Fraction(0)] * ncols
    ech, pivots = _echelon(irows, ncols + 1)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x: list[Fraction] = [Fraction(0)] * (ncols + 1)
    x[ncols] = Fraction(-1)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        row = ech[i]
        acc = Fraction(0)
        for k in range(c + 1, ncols + 1):
            if row[k] and x[k]:
                acc += row[k] * x[k]
        x[c] = -acc / row[c]
    return x[:ncols]
