"""Exact linear algebra against a plain Fraction Gauss reference."""
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from e8jacobi import linalg
from e8jacobi.linalg import kernel_basis, rank, rref, solve


def ref_rref(matrix, ncols):
    """Textbook Gauss-Jordan over Fractions, the slow reference."""
    rows = [[Fraction(x) for x in row] + [Fraction(0)] * (ncols - len(row))
            for row in matrix]
    lead = 0
    r = 0
    while r < len(rows) and lead < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][lead]), None)
        if piv is None:
            lead += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][lead]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][lead]:
                c = rows[i][lead]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        r += 1
        lead += 1
    return [tuple(row) for row in rows[:r]]


def ref_kernel(matrix, ncols):
    """Canonical kernel read off the reference RREF: one integer vector per
    free column, content 1, first nonzero entry positive."""
    red = ref_rref(matrix, ncols)
    pivots = [next(c for c, v in enumerate(row) if v) for row in red]
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(red, pivots):
            x[c] = -row[f]
        den = lcm(*(v.denominator for v in x))
        ints = [int(v * den) for v in x]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        if next(v for v in ints if v) < 0:
            ints = [-v for v in ints]
        out.append(tuple(ints))
    return out


def assert_matches_reference(matrix, ncols, rng):
    """rref and kernel_basis equal the reference, also on shuffled, rescaled rows."""
    red, ker = ref_rref(matrix, ncols), ref_kernel(matrix, ncols)
    assert rref(matrix, ncols) == red
    assert kernel_basis(matrix, ncols) == ker
    moved = []
    for row in matrix:
        c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 7))
        moved.append([Fraction(x) * c for x in row])
    rng.shuffle(moved)
    assert rref(moved, ncols) == red
    assert kernel_basis(moved, ncols) == ker


def low_rank(rng, nrows, ncols, r, size):
    """An nrows x ncols integer matrix of rank <= r, entries up to r * size**2."""
    left = [[rng.randint(-size, size) for _ in range(r)] for _ in range(nrows)]
    right = [[rng.randint(-size, size) for _ in range(ncols)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def random_matrix(rng, nrows, ncols, density=0.8):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]


def test_rank_and_kernel_against_reference():
    rng = random.Random(2024)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        ref = ref_rref(m, ncols)
        assert rank(m, ncols) == len(ref)
        ker = kernel_basis(m, ncols)
        assert len(ker) == ncols - len(ref)
        for k in ker:
            for row in m:
                assert sum(a * b for a, b in zip(row, k)) == 0


def test_rref_matches_reference_and_is_canonical():
    rng = random.Random(77)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        got = rref(m, ncols)
        assert got == ref_rref(m, ncols)
        shuffled = m[:]
        rng.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            c = Fraction(rng.randint(1, 4))
            scaled.append([x * c for x in row])
        assert rref(scaled, ncols) == got  # depends only on the row span


def test_kernel_guard_rejects_wrong_elimination(monkeypatch):
    # An elimination that finds no pivots claims every column is free.
    monkeypatch.setattr(linalg, "_rref_mod", lambda a, p: (a[:0], []))
    with pytest.raises(ArithmeticError, match="kernel verification failed"):
        kernel_basis([[1, 2, 3], [0, 1, 1]], 3)


def test_certificate_rejects_wrong_reconstruction(monkeypatch):
    # Every reconstructed entry is 1: the kernel vectors read off are wrong.
    monkeypatch.setattr(linalg, "_reconstruct", lambda u, m: Fraction(1))
    with pytest.raises(ArithmeticError, match="kernel verification failed"):
        kernel_basis([[1, 2, 3], [0, 1, 2]], 3)
    with pytest.raises(ArithmeticError, match="kernel verification failed"):
        rref([[1, 2, 3], [0, 1, 2]], 3)


def test_primes_are_fixed():
    assert [linalg._prime(i) for i in range(3)] == [2**31 - 1, 2147483629, 2147483587]


def test_tall_matrices_match_reference():
    rng = random.Random(31)
    for _ in range(12):
        nrows, ncols = rng.randint(20, 40), rng.randint(3, 9)
        r = rng.randint(1, ncols)
        assert_matches_reference(low_rank(rng, nrows, ncols, r, 9), ncols, rng)
    assert_matches_reference(random_matrix(rng, 40, 6), 6, rng)


def test_large_entries_need_several_primes(monkeypatch):
    rng = random.Random(41)
    used = set()
    real_prime = linalg._prime
    monkeypatch.setattr(linalg, "_prime", lambda i: used.add(i) or real_prime(i))
    for _ in range(6):
        nrows, ncols = rng.randint(3, 8), rng.randint(3, 8)
        m = low_rank(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)), 2**22)
        m[0][0] += 1  # one entry off the low-rank pattern
        assert max(abs(v) for row in m for v in row) > 2**40
        assert_matches_reference(m, ncols, rng)
    assert len(used) > 1


def test_unlucky_first_prime():
    p = linalg._prime(0)
    rng = random.Random(3)
    cases = [
        [[p, 1, 0, 4], [0, 0, 1, 5]],       # pivot column 0 vanishes mod p
        [[1, 2, 7], [3, 6 + p, 1]],         # the 2x2 pivot minor is p
        [[2, 3, 5, 1], [4, 6, 10 + 2 * p, 3], [1, 1, 1, 1]],
    ]
    for m in cases:
        ncols = len(m[0])
        a = linalg.np.array(m, dtype=object) % p
        _, pivots_mod_p = linalg._rref_mod(a.astype(linalg.np.int64), p)
        ref = ref_rref(m, ncols)
        ref_pivots = [next(c for c, v in enumerate(row) if v) for row in ref]
        assert pivots_mod_p != ref_pivots  # the first prime is unlucky here
        assert_matches_reference(m, ncols, rng)


def test_fraction_rows_match_reference():
    rng = random.Random(59)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 12), rng.randint(2, 8)
        m = [[Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))
              if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)]
             for _ in range(nrows)]
        assert_matches_reference(m, ncols, rng)
        assert_matches_reference(m + m[:1], ncols, rng)  # a repeated row


def test_solve_consistent_and_inconsistent():
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        x = [Fraction(rng.randint(-4, 4)) for _ in range(ncols)]
        b = [sum(a * v for a, v in zip(row, x)) for row in m]
        sol = solve(m, b)
        assert sol is not None
        for row, rhs in zip(m, b):
            assert sum(a * v for a, v in zip(row, sol)) == rhs
        if any(any(row) for row in m):
            bad_b = list(b)
            # Append a row contradicting an existing nonzero row.
            i = next(i for i, row in enumerate(m) if any(row))
            m2 = m + [m[i]]
            bad = solve(m2, bad_b + [b[i] + 1])
            assert bad is None


small_matrix = hs.lists(
    hs.lists(hs.fractions(min_value=-5, max_value=5, max_denominator=4),
             min_size=3, max_size=3),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_rank_bounds_and_idempotence(m):
    r = rank(m, 3)
    assert 0 <= r <= min(len(m), 3)
    red = rref(m, 3)
    assert rref(red, 3) == red
    assert rank(red, 3) == r


@settings(max_examples=30, deadline=None)
@given(small_matrix)
def test_kernel_dimension_theorem(m):
    assert rank(m, 3) + len(kernel_basis(m, 3)) == 3
