"""Lattice layer: frozen constants, enumeration oracles, orbit combinatorics."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from e8jacobi import config, lattice
from e8jacobi.lattice import (CARTAN, FUNDAMENTAL, HEIGHT_VEC, RANK, T_WEIGHTS,
                              WEIGHT_GRAM, WEYL_ORDER, ZERO, decode,
                              dominant_batch, dominant_by_T, dominant_by_norm,
                              encode, fundamental_orbit, height, inner_product,
                              max_norm_by_T, max_pairing, norm, orbit_size,
                              orbit_vectors, shell, shell_count, sigma,
                              t_degree, to_dominant)

GRAM_NP = np.array(WEIGHT_GRAM, dtype=np.int64)

# Orbit sizes of the eight fundamental weights, in node order.
FUND_SIZES = (2160, 17280, 69120, 483840, 241920, 60480, 6720, 240)


def reflect(v, i):
    c = v[i]
    return tuple(v[j] - c * CARTAN[i][j] for j in range(RANK))


def test_cartan_shape():
    arr = np.array(CARTAN)
    assert (arr.T == arr).all()
    assert (np.diag(arr) == 2).all()
    assert round(float(np.linalg.det(arr))) == 1
    off = [(i, j) for i in range(RANK) for j in range(i + 1, RANK)
           if arr[i][j] == -1]
    assert len(off) == 7  # tree with 8 nodes


def test_weight_gram_frozen_rows():
    assert WEIGHT_GRAM[0] == (4, 5, 7, 10, 8, 6, 4, 2)
    assert T_WEIGHTS == (2, 3, 4, 6, 5, 4, 3, 2)
    assert tuple(WEIGHT_GRAM[i][i] for i in range(RANK)) == (4, 8, 14, 30, 20, 12, 6, 2)
    assert HEIGHT_VEC == (46, 68, 91, 135, 110, 84, 57, 29)
    assert HEIGHT_VEC == tuple(sum(row) for row in WEIGHT_GRAM)
    assert (np.array(CARTAN) @ GRAM_NP == np.eye(RANK, dtype=np.int64)).all()


def test_fundamental_orbit_sizes():
    assert tuple(orbit_size(w) for w in FUNDAMENTAL) == FUND_SIZES
    assert orbit_size(ZERO) == 1
    assert orbit_size((1,) * RANK) == WEYL_ORDER  # regular orbit


def test_orbit_vectors_brute_matches_formula():
    # orbit_vectors checks its count against the stabiliser formula.
    for i in (0, 5, 6, 7):
        arr = fundamental_orbit(i)
        assert len(arr) == FUND_SIZES[i]
        norms = (arr @ GRAM_NP * arr).sum(axis=1)
        assert (norms == norm(FUNDAMENTAL[i])).all()
        assert to_dominant(tuple(arr[-1])) == FUNDAMENTAL[i]


@pytest.mark.parametrize("m, size", [
    *zip(FUNDAMENTAL, FUND_SIZES),
    ((1, 0, 0, 0, 0, 0, 0, 1), 30_240),
    ((0, 1, 0, 0, 1, 0, 0, 0), 1_209_600),
])
def test_orbit_vectors_is_reflection_closure(m, size):
    # Distinct rows containing m, closed under every simple reflection, and as
    # many as the orbit has: exactly the closure of {m}.
    arr = orbit_vectors(m)
    assert len(arr) == size
    keys = np.sort(encode(arr))
    assert (np.diff(keys) > 0).all()
    assert encode(np.array([m]))[0] in keys
    cartan = np.array(CARTAN, dtype=np.int64)
    for i in range(RANK):
        reflected = arr - arr[:, i:i + 1] * cartan[i]
        assert (np.sort(encode(reflected)) == keys).all()


def test_orbit_vectors_checks_its_count(monkeypatch):
    monkeypatch.setattr(lattice, "orbit_size", lambda m: 241)
    with pytest.raises(ArithmeticError):
        orbit_vectors(FUNDAMENTAL[7])


def test_shells_match_divisor_formula():
    for n in range(0, 7):
        arr = shell(n)
        assert len(arr) == shell_count(n)
        if n:
            norms = (arr @ GRAM_NP * arr).sum(axis=1)
            assert (norms == 2 * n).all()
    assert shell_count(1) == 240 and shell_count(6) == 240 * sigma(6, 3)


def test_shell_memory_guard():
    with config.using(max_shell_norm=4):
        with pytest.raises(config.TruncationError):
            shell(3)  # squared norm 6 exceeds the lowered guard


def test_dominant_by_T_counts():
    expected = (1, 3, 5, 10, 15, 27, 39, 63, 90, 135)
    assert tuple(len(dominant_by_T(t)) for t in range(1, 11)) == expected
    for m in dominant_by_T(4):
        assert min(m) >= 0 and t_degree(m) <= 4


def test_dominant_by_norm_half_norm_convention():
    assert dominant_by_norm(0) == (ZERO,)
    assert dominant_by_norm(1) == (FUNDAMENTAL[7],)
    four = dominant_by_norm(4)
    assert len(four) == 2
    assert all(norm(m) == 8 for m in four)
    counts = tuple(len(dominant_by_norm(t)) for t in range(1, 13))
    assert counts == (1, 1, 1, 2, 1, 1, 2, 2, 2, 2, 2, 2)


def test_max_norm_by_T():
    assert tuple(max_norm_by_T(t) for t in range(1, 8)) == (0, 4, 8, 16, 22, 36, 44)


def test_sigma():
    assert sigma(7, 3) == 344
    assert sigma(1, 3) == 1
    assert sigma(6, 1) == 12


def test_height_and_inner_product():
    assert height(FUNDAMENTAL[7]) == 29
    assert inner_product(FUNDAMENTAL[7], FUNDAMENTAL[7]) == 2
    assert inner_product(FUNDAMENTAL[0], FUNDAMENTAL[7]) == 2  # GRAM[0][7]


def test_encode_decode_roundtrip():
    rng = random.Random(7)
    arr = np.array([[rng.randint(-40, 40) for _ in range(RANK)]
                    for _ in range(50)], dtype=np.int64)
    assert (decode(encode(arr)) == arr).all()


def test_dominant_batch_matches_scalar():
    rng = random.Random(3)
    rows = [[rng.randint(-4, 4) for _ in range(RANK)] for _ in range(120)]
    batch = dominant_batch(np.array(rows, dtype=np.int64))
    for row, got in zip(rows, batch):
        assert tuple(got) == to_dominant(tuple(row))


@settings(max_examples=60, deadline=None)
@given(hs.lists(hs.integers(-4, 4), min_size=RANK, max_size=RANK))
def test_to_dominant_is_orbit_invariant(v):
    v = tuple(v)
    d = to_dominant(v)
    assert min(d) >= 0
    assert norm(d) == norm(v)
    for i in range(RANK):
        assert to_dominant(reflect(v, i)) == d


@settings(max_examples=25, deadline=None)
@given(hs.integers(0, 7), hs.integers(0, 10 ** 6))
def test_max_pairing_is_orbit_maximum(i, seed):
    """(m, dominant rep of v) equals the max pairing over the whole orbit."""
    rng = random.Random(seed)
    m = to_dominant(tuple(rng.randint(0, 2) for _ in range(RANK)))
    v = FUNDAMENTAL[i]
    for _ in range(12):
        v = reflect(v, rng.randrange(RANK))
    arr = fundamental_orbit(i)
    brute = int((arr @ GRAM_NP @ np.array(m, dtype=np.int64)).max())
    assert max_pairing(m, v) == brute
