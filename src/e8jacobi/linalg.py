"""Exact rational linear algebra: rank, kernel bases, solving.

Rows are cleared to integers, forward-eliminated with the fraction-free
two-term (Bareiss) update, and kernels are recovered by rational
back-substitution over the free columns.  Pivot columns are the column rank
profile, which does not depend on the row order, so the returned kernel basis
is the canonical (reduced-echelon) one: shuffling or rescaling input rows
cannot change it.

Canonical kernel vectors are integer tuples with content 1 whose first
nonzero entry is positive.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _int_rows(matrix) -> list[list[int]]:
    out = []
    for row in matrix:
        row = list(row)
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        ints = [int(x * den) if isinstance(x, Fraction) else int(x) * den for x in row]
        if any(ints):
            g = 0
            for v in ints:
                g = gcd(g, v)
            out.append([v // g for v in ints])
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


def kernel_basis(matrix, ncols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel, one vector per free column."""
    rows = _int_rows(matrix)
    pristine = [row.copy() for row in rows]
    ech, pivots = _echelon(rows, ncols) if rows else ([], [])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x: list[Fraction] = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = ech[i]
            acc = Fraction(0)
            for k in range(c + 1, ncols):
                if row[k] and x[k]:
                    acc += row[k] * x[k]
            x[c] = -acc / row[c]
        basis.append(_canonical(x))
    for vec in basis:  # exactness guard: every vector annihilates every input row
        for row in pristine:
            if sum(a * b for a, b in zip(row, vec)):
                raise ArithmeticError("kernel verification failed")
    return basis


def rref(matrix, ncols: int) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon form over the rationals.

    Returns the nonzero rows ordered by pivot column, each pivot entry 1 and
    alone in its column.  The result depends only on the row span, so
    shuffling or rescaling the input rows yields the identical list.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]]


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
