"""Orbit algebra: monomial/orbit conversions against brute-force convolution."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from e8jacobi import config, orbitalg
from e8jacobi.expansion import JacobiExpansion, multiply, x_form
from e8jacobi.genring import sakai_generators
from e8jacobi.lattice import (FUNDAMENTAL, RANK, ZERO, decode, dominant_batch,
                              dominant_by_norm, encode, fundamental_orbit,
                              height, norm, orbit_size, to_dominant)
from e8jacobi.orbitalg import (KEY_ONE, key_t_degree, lincomb, mono_to_orbit,
                               orbit_dict_to_upoly, orbit_to_mono, pack,
                               save_tables, unpack, upoly_eval_sizes,
                               upoly_to_orbit_dict)


def brute_product_counts(i: int, j: int) -> dict[tuple[int, ...], int]:
    """Orbit decomposition of orb(w_i)*orb(w_j) by explicit vector sums."""
    a, b = fundamental_orbit(i), fundamental_orbit(j)
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, RANK)
    doms = dominant_batch(sums)
    counts: dict[tuple[int, ...], int] = {}
    for row in map(tuple, doms):
        counts[row] = counts.get(row, 0) + 1
    # every orbit must appear a whole number of times
    out = {}
    for m, c in counts.items():
        size = orbit_size(m)
        assert c % size == 0, (m, c, size)
        out[m] = c // size
    return out


def test_pack_unpack_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        expo = tuple(rng.randint(0, 7) for _ in range(RANK))
        assert unpack(pack(expo)) == expo
    assert pack(ZERO) == KEY_ONE


def test_pack_rejects_exponents_out_of_range():
    for bad in (32, -1):
        with pytest.raises(ArithmeticError):
            pack((0,) * 7 + (bad,))


def u8_power(e: int) -> JacobiExpansion:
    return JacobiExpansion(0, 2 * e, 1, upoly=[(1, {pack((0,) * 7 + (e,)): 1})])


def test_product_overflow_raises():
    # u8^16 * u8^16 would carry into a ninth, nonexistent generator slot.
    assert multiply(u8_power(16), u8_power(15)).upolys == [(1, {pack((0,) * 7 + (31,)): 1})]
    with pytest.raises(ArithmeticError):
        multiply(u8_power(16), u8_power(16))


def test_single_factors_are_orbits():
    for i in range(RANK):
        e = tuple(1 if j == i else 0 for j in range(RANK))
        row = mono_to_orbit(e)
        w = tuple(e)
        assert row == {w: 1}


def test_mono_to_orbit_matches_brute_convolution():
    # u8^2 = orb(w8)^2 and u1*u8 = orb(w1)*orb(w8), via raw vector sums.
    cases = [((0, 0, 0, 0, 0, 0, 0, 2), brute_product_counts(7, 7)),
             ((1, 0, 0, 0, 0, 0, 0, 1), brute_product_counts(0, 7)),
             ((0, 0, 0, 0, 0, 0, 1, 1), brute_product_counts(6, 7))]
    for expo, brute in cases:
        assert mono_to_orbit(expo) == brute


def test_orbit_to_mono_inverts():
    for m in [(0,) * 7 + (2,), (1, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0, 0),
              (2, 0, 0, 0, 0, 0, 0, 0)]:
        mono = orbit_to_mono(m)
        # substitute the monomial expansions back: must give exactly orb(m)
        acc: dict[tuple[int, ...], int] = {}
        for key, c in mono.items():
            for y, n in mono_to_orbit(unpack(key)).items():
                acc[y] = acc.get(y, 0) + c * n
        assert {y: c for y, c in acc.items() if c} == {m: 1}


def test_upoly_roundtrip_and_eval():
    rng = random.Random(5)
    pool = [(0,) * 7 + (1,), (1, 0) * 4, (0, 0, 0, 0, 0, 0, 1, 1),
            (2, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 1)]
    d = {to_dominant(m): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
         for m in pool}
    d = {m: c for m, c in d.items() if c}
    p = orbit_dict_to_upoly(d)
    assert upoly_to_orbit_dict(p) == d
    total = sum(c * orbit_size(m) for m, c in d.items())
    assert upoly_eval_sizes(p) == total


def height_elimination(p):
    """The former conversion: eliminate a monomial of maximal height first."""
    den, nums = p
    work = {k: Fraction(c, den) for k, c in nums.items() if c}
    out = {}
    while work:
        top = max(work, key=lambda k: (height(unpack(k)), k))
        c = work.pop(top)
        x = unpack(top)
        out[x] = c
        for k, n in orbit_to_mono(x).items():
            if k == top:
                continue
            v = work.get(k, 0) - c * n
            if v:
                work[k] = v
            else:
                work.pop(k, None)
    return out


ORBIT_POOL = [ZERO] + [m for a in (1, 2, 3) for m in dominant_by_norm(a)]


@settings(max_examples=40, deadline=None)
@given(hs.dictionaries(hs.sampled_from(ORBIT_POOL),
                       hs.fractions(min_value=-9, max_value=9, max_denominator=6),
                       max_size=len(ORBIT_POOL)))
def test_upoly_to_orbit_dict_inverts(d):
    d = {m: c for m, c in d.items() if c}
    assert upoly_to_orbit_dict(orbit_dict_to_upoly(d)) == d


def test_conversion_matches_height_elimination():
    gens = sakai_generators(4)
    forms = [x_form(2, 4), multiply(gens["A1"], gens["B2"])]
    forms += [gens[name] for name in ("A1", "A2", "B2", "B3", "B4")]
    for f in forms:
        for n, p in enumerate(f.upolys):
            assert upoly_to_orbit_dict(p) == height_elimination(p) == f.coeffs[n]


def test_upoly_mul_matches_brute():
    u8 = JacobiExpansion(0, 1, 1, orbit=[{(0,) * 7 + (1,): Fraction(1)}])
    sq = multiply(u8, u8).coeffs[0]
    assert sq == {m: Fraction(c) for m, c in brute_product_counts(7, 7).items()}


def test_upoly_add_scale():
    a = (3, {KEY_ONE: 6, 5: 1})   # 2 + u^5 / 3
    assert lincomb([(1, a), (Fraction(-1), a)]) == (1, {})
    assert lincomb([(0, a)]) == (1, {})
    assert lincomb([(3, a)]) == (1, {KEY_ONE: 6, 5: 1})
    assert lincomb([(Fraction(1, 2), a)]) == (6, {KEY_ONE: 6, 5: 1})


def test_key_t_degree():
    expo = (0, 0, 0, 0, 0, 0, 0, 3)
    assert key_t_degree(pack(expo)) == 6  # T(w8) = 2 per power


@pytest.mark.parametrize("x", [ZERO, FUNDAMENTAL[0], FUNDAMENTAL[7],
                               (1, 0, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0, 0, 0)])
def test_orbit_pass_matches_unreduced(x, monkeypatch):
    # Reference: reduce every v in W w_i, not one per stabiliser orbit.
    monkeypatch.setattr(orbitalg, "_mpass", {})
    monkeypatch.setattr(orbitalg, "_mpass_dirty", False)
    for i in range(RANK):
        if orbit_size(FUNDAMENTAL[i]) > 69_120:
            continue
        dom = dominant_batch(fundamental_orbit(i) + np.array(x, dtype=np.int64))
        keys, counts = np.unique(encode(dom), return_counts=True)
        ref = {}
        for y, c in zip(decode(keys), counts):
            y = tuple(int(v) for v in y)
            assert orbit_size(x) * int(c) % orbit_size(y) == 0
            ref[y] = orbit_size(x) * int(c) // orbit_size(y)
        assert orbitalg._orbit_pass(x, i) == ref


def test_table_persistence_roundtrip(tmp_path, monkeypatch, cache_rows):
    # Start from empty tables, so the pass is built here whatever the session
    # loaded, and the session's own unsaved passes stay marked for its teardown.
    monkeypatch.setattr(orbitalg, "_mpass", {})
    monkeypatch.setattr(orbitalg, "_mono", {})
    monkeypatch.setattr(orbitalg, "_mpass_dirty", False)
    with config.using(cache_dir=str(tmp_path)):
        mono_to_orbit((0, 0, 0, 0, 0, 0, 0, 2))
        save_tables()
        assert cache_rows.read("orbit-pass-table") is not None


def test_truncated_table_loads_nothing(tmp_path, monkeypatch, cache_rows):
    # An unreadable pass table is a cache miss: nothing loaded, nothing raised.
    monkeypatch.setattr(orbitalg, "_mpass", {})
    cache_rows.write("orbit-pass-table", '{"0,0,0,0,0,0,0,0": {"1": {"0,0,0,0,0,0,0,1"')
    with config.using(cache_dir=str(tmp_path)):
        orbitalg.load_tables()
    assert orbitalg._mpass == {}


@pytest.mark.parametrize("text", ['{"0,0,0,0,0,0,0,0": [1]}',
                                  '{"0,0,0,0,0,0,0,0": {"1": {"0,0,0,0,0,0,0,1": "x"}}}'])
def test_wrong_shape_table_loads_nothing(tmp_path, monkeypatch, cache_rows, text):
    # A pass table that is a JSON object of the wrong shape is a miss as well.
    monkeypatch.setattr(orbitalg, "_mpass", {})
    cache_rows.write("orbit-pass-table", text)
    with config.using(cache_dir=str(tmp_path)):
        orbitalg.load_tables()
    assert orbitalg._mpass == {}
