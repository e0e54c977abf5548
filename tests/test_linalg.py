"""Exact linear algebra against a plain Fraction Gauss reference."""
import random
from fractions import Fraction

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
    monkeypatch.setattr(linalg, "_echelon", lambda rows, ncols: ([], []))
    with pytest.raises(ArithmeticError, match="kernel verification failed"):
        kernel_basis([[1, 2, 3], [0, 1, 1]], 3)


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
