"""Acceptance gate: sixteen numbered criteria, one test (and pass/fail line) each.

Every comparison is exact rational arithmetic.  Criteria with an extended tier
carry a companion ``test_criterion_NN_extended`` selected via ``-m extended``.
"""
import itertools
from fractions import Fraction

import pytest

import e8jacobi.structure as st
from e8jacobi import cli, linalg
from e8jacobi.expansion import (add, check_support, div_delta, div_e4,
                                eval_zero, level_trace, mul_series, multiply,
                                quasi_periodicity_violations, scale, scale_z,
                                theta_e8, to_payload, from_payload, x_form)
from e8jacobi.genring import (NAMED_POLYNOMIALS, WEAK_INDEX2, WEAK_INDEX3,
                              expand, pivot_identity_residual,
                              reduction_obstruction_e4sq, sakai_generators)
from e8jacobi.lattice import (FUNDAMENTAL, ZERO, dominant_by_T,
                              dominant_by_norm, orbit_size, orbit_vectors,
                              shell_count, sigma)
from e8jacobi.qseries import eisenstein

W = FUNDAMENTAL  # fundamental dominant weights, W[i] has a single 1 in slot i

# ---------------------------------------------------------------------------
# frozen reference data
# ---------------------------------------------------------------------------

RANKS = (1, 3, 5, 10, 15, 27, 39, 63, 90, 135, 187, 270,
         364, 505, 670, 902, 1173, 1545)
DELTAS = (0, 2, 5, 13, 23, 52, 82, 154, 240, 403, 601, 959,
          1373, 2063, 2911, 4184, 5739, 8033)
NORM_COUNTS = (1, 1, 1, 2, 1, 1, 2, 2, 2, 2, 2, 2, 3, 2, 2, 4, 3, 3,
               4, 3, 3, 4, 4)

#: orbit sizes of the six dominant vectors used as display subscripts
SUBSCRIPT_ORBITS = {
    (0, 0, 0, 0, 0, 0, 0, 1): 240,
    (1, 0, 0, 0, 0, 0, 0, 0): 2160,
    (0, 0, 0, 0, 0, 0, 1, 1): 13440,
    (1, 0, 0, 0, 0, 0, 0, 2): 30240,
    (0, 0, 0, 0, 0, 1, 0, 1): 181440,
    (1, 0, 0, 0, 0, 1, 0, 0): 604800,
}

#: generator counts of the index-t module by weight (Laurent polynomial data)
WEIGHT_POLYS = {
    1: {4: 1},
    2: {-4: 1, -2: 1, 0: 1},
    3: {-8: 1, -6: 1, -4: 1, -2: 1, 0: 1},
    4: {-16: 1, -14: 1, -12: 1, -10: 1, -8: 2, -6: 1, -4: 1, -2: 1, 0: 1},
    5: {-16: 2, -14: 2, -12: 3, -10: 2, -8: 2, -6: 1, -4: 1, -2: 1, 0: 1},
    6: {-24: 2, -22: 2, -20: 3, -18: 3, -16: 3, -14: 3, -12: 3, -10: 2,
        -8: 2, -6: 1, -4: 1, -2: 1, 0: 1},
    7: {-24: 3, -22: 6, -20: 8, -18: 4, -16: 3, -14: 4, -12: 3, -10: 2,
        -8: 2, -6: 1, -4: 1, -2: 1, 0: 1},
}

#: weak dimensions by weight up to 20 (the module's counting series)
DIM_SERIES = {
    1: {4: 1, 8: 1, 10: 1, 12: 1, 14: 1, 16: 2, 18: 1, 20: 2},
    2: {-4: 1, -2: 1, 0: 2, 2: 2, 4: 3, 6: 3, 8: 4, 10: 4, 12: 5, 14: 5,
        16: 6, 18: 6, 20: 7},
    3: {-8: 1, -6: 1, -4: 2, -2: 3, 0: 4, 2: 4, 4: 6, 6: 6, 8: 7, 10: 8,
        12: 9, 14: 9, 16: 11, 18: 11, 20: 12},
    4: {-16: 1, -14: 1, -12: 2, -10: 3, -8: 5, -6: 5, -4: 8, -2: 9, 0: 11,
        2: 12, 4: 15, 6: 15, 8: 18, 10: 19, 12: 21, 14: 22, 16: 25, 18: 25,
        20: 28},
    5: {-16: 2, -14: 2, -12: 5, -10: 6, -8: 9, -6: 10, -4: 14, -2: 15, 0: 19,
        2: 20, 4: 24, 6: 25, 8: 29, 10: 30, 12: 34, 14: 35, 16: 39, 18: 40,
        20: 44},
    6: {-24: 2, -22: 2, -20: 5, -18: 7, -16: 10, -14: 13, -12: 18, -10: 20,
        -8: 26, -6: 29, -4: 34, -2: 38, 0: 44, 2: 46, 4: 53, 6: 56, 8: 61,
        10: 65, 12: 71, 14: 73, 16: 80, 18: 83, 20: 88},
    7: {-24: 3, -22: 6, -20: 11, -18: 13, -16: 20, -14: 25, -12: 30, -10: 36,
        -8: 44, -6: 47, -4: 56, -2: 62, 0: 68, 2: 74, 4: 83, 6: 86, 8: 95,
        10: 101, 12: 107, 14: 113, 16: 122, 18: 125, 20: 134},
}

SINGULAR_DIMS = (1, 1, 1, 2, 1, 1, 2)  # indices 1..7

#: canonical singular form at index 7, orders q^1..q^4 (exact orbit dicts)
PHI7 = {
    1: {(0, 0, 0, 0, 0, 0, 1, 1): Fraction(1, 56)},
    2: {(1, 0, 0, 0, 0, 1, 0, 0): Fraction(1, 280)},
    3: {(0, 0, 0, 0, 0, 0, 1, 3): Fraction(5, 280),
        (1, 0, 0, 0, 0, 1, 0, 1): Fraction(1, 280)},
    4: {(0, 0, 0, 0, 0, 0, 2, 2): Fraction(5, 280),
        (1, 0, 0, 0, 1, 0, 0, 1): Fraction(1, 280)},
}

#: canonical singular form at index 10, orders q^1..q^5
PHI10 = {
    1: {(1, 0, 0, 0, 0, 0, 0, 2): Fraction(1, 126)},
    2: {(2, 0, 0, 0, 0, 0, 0, 2): Fraction(5, 630),
        (1, 0, 0, 0, 1, 0, 0, 0): Fraction(1, 630)},
    3: {(1, 0, 0, 0, 0, 1, 0, 2): Fraction(2, 1260),
        (0, 0, 0, 1, 0, 0, 1, 0): Fraction(1, 1260)},
    4: {(2, 0, 0, 0, 0, 0, 0, 4): Fraction(10, 1260),
        (0, 0, 0, 0, 2, 0, 0, 0): Fraction(10, 1260),
        (1, 0, 1, 0, 0, 1, 0, 0): Fraction(2, 1260),
        (0, 0, 0, 1, 0, 0, 1, 1): Fraction(1, 1260)},
    5: {(5, 0, 0, 0, 0, 0, 0, 0): Fraction(140, 1260),
        (1, 0, 0, 0, 0, 0, 0, 6): Fraction(10, 1260),
        (1, 0, 0, 0, 0, 1, 2, 0): Fraction(2, 1260),
        (1, 0, 0, 0, 1, 0, 0, 3): Fraction(2, 1260),
        (1, 0, 1, 0, 1, 0, 0, 0): Fraction(2, 1260),
        (0, 0, 0, 1, 0, 1, 0, 1): Fraction(1, 1260)},
}

#: canonical singular form at index 11, orders q^1..q^4
PHI11 = {
    1: {(0, 0, 0, 0, 0, 1, 0, 1): Fraction(1, 756)},
    2: {(0, 0, 0, 1, 0, 0, 0, 1): Fraction(3, 3780),
        (1, 0, 0, 0, 0, 0, 2, 0): Fraction(5, 3780)},
    3: {(0, 0, 0, 0, 0, 2, 0, 1): Fraction(10, 7560),
        (0, 0, 1, 0, 1, 0, 0, 0): Fraction(6, 7560),
        (1, 0, 0, 0, 0, 0, 1, 3): Fraction(10, 7560),
        (1, 1, 0, 0, 0, 0, 1, 1): Fraction(5, 7560),
        (3, 0, 0, 0, 0, 0, 1, 0): Fraction(10, 7560)},
    4: {(0, 0, 0, 0, 0, 2, 0, 2): Fraction(10, 7560),
        (0, 0, 1, 0, 0, 1, 1, 0): Fraction(6, 7560),
        (0, 1, 0, 1, 0, 0, 0, 1): Fraction(6, 7560),
        (1, 1, 0, 0, 0, 0, 1, 2): Fraction(5, 7560),
        (2, 0, 0, 0, 1, 0, 0, 1): Fraction(6, 7560)},
}


# ---------------------------------------------------------------------------
# shared heavyweight objects
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def modules(gens6):
    return {t: st.module_generators(t, trunc=trunc)
            for t, trunc in ((1, 3), (2, 4), (3, 4), (4, 5))}


@pytest.fixture(scope="session")
def singular(gens6):
    spaces = {}
    for t in range(1, 8):
        trunc = {6: 7, 7: 8}.get(t)
        spaces[t] = st.singular_solve(t, trunc=trunc)
    return spaces


@pytest.fixture(scope="session")
def modules_ext(gens6):
    return {t: st.module_generators(t, trunc=6)
            for t in (5, 6, 7)}


@pytest.fixture(scope="session")
def singular_ext(gens6):
    return {t: st.singular_solve(t, delta_power=3, trunc=trunc)
            for t, trunc in ((8, 7), (9, 8), (10, 9), (11, 9))}


def singular_member(space, f):
    """Exact membership of f in the span of a singular-space basis."""
    rows = [[b.coeff(n, m) for b in space.basis]
            for n, m in space.free_channels]
    rhs = [f.coeff(n, m) for n, m in space.free_channels]
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return False
    comb = None
    for c, b in zip(sol, space.basis):
        if c:
            comb = scale(b, c) if comb is None else add(comb, b, 1, c)
    tr = min(comb.trunc, f.trunc)
    return all(comb.coeffs[n] == f.coeffs[n] for n in range(tr))


# ---------------------------------------------------------------------------
# criterion 1-6: frozen tables and lattice sanity (tier 1)
# ---------------------------------------------------------------------------

def test_criterion_01():
    assert tuple(st.rank_r(18)[1:]) == RANKS
    for t in range(1, 19):
        assert len(dominant_by_T(t)) == RANKS[t - 1]


def test_criterion_02():
    assert tuple(st.delta_t(t) for t in range(1, 19)) == DELTAS
    for t in range(1, 7):  # independent channel enumeration
        assert len(st.obstruction_channels(t)) == DELTAS[t - 1]


def test_criterion_03():
    assert tuple(st.orbit_count_norm(t) for t in range(1, 24)) == NORM_COUNTS
    for t in range(1, 24):
        assert len(dominant_by_norm(t)) == NORM_COUNTS[t - 1]


def test_criterion_04():
    assert st.n_cap(2) == 1
    assert st.n_cap(5) == 3
    assert st.n_cap(6) == 5
    assert st.n_cap(13) == 10
    assert st.t1(13) == 2


def test_criterion_05():
    for n in range(1, 7):
        assert shell_count(n) == 240 * sigma(n, 3)
    for m, size in SUBSCRIPT_ORBITS.items():
        assert orbit_size(m) == size


def test_criterion_06():
    assert st.pairing_values() == [4, 5, 7, 10, 8, 6, 4, 2]


# ---------------------------------------------------------------------------
# criterion 7: generator constructions (tier 2)
# ---------------------------------------------------------------------------

def _two_term_trace_oracle(trunc):
    """Index-5 weight-6 trace construction, assembled from scratch.

    Builds the two coset families directly: the dilated factor contributes
    g(tau) times the z-rescaled theta (constant channel only below q^5), and
    the averaged family collapses to a root-of-unity filter keeping every
    fifth power, with shells decomposed orbit by orbit.  No Hecke machinery,
    no divisor loops shared with the library path.
    """
    e2 = eisenstein(2, 5 * trunc)
    g = []
    for j in range(5 * trunc):
        dilated = e2.coeffs[j // 5] if j % 5 == 0 else 0
        g.append(Fraction(5 * dilated - e2.coeffs[j], 4))
    prefactor = Fraction(5 ** 4, 5 ** 4 - 1)
    out = []
    for n in range(trunc):
        acc = {}
        if g[n]:
            acc[ZERO] = g[n]
        for nu in range(0, 5 * n + 1):
            c = g[5 * n - nu]
            if not c:
                continue
            orbits = (ZERO,) if nu == 0 else dominant_by_norm(nu)
            for m in orbits:
                acc[m] = acc.get(m, Fraction(0)) - Fraction(c, 5 ** 4)
        out.append({m: prefactor * c for m, c in acc.items() if c})
    return out


def test_criterion_07(gens6):
    e4, e6 = eisenstein(4, 6), eisenstein(6, 6)
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert eval_zero(gens6[name]) == e4
    for name in ("B2", "B3", "B4", "B5HAT", "B6"):
        assert eval_zero(gens6[name]) == e6
    for t in range(1, 7):
        assert x_form(t, 5).coeffs[0] == {ZERO: 1}
    oracle = _two_term_trace_oracle(5)
    lt = level_trace(5, 5)
    for n in range(5):
        assert lt.coeffs[n] == oracle[n]


# ---------------------------------------------------------------------------
# criterion 8: the pivot identity pinning B4 (tier 2, extended to q^4)
# ---------------------------------------------------------------------------

def test_criterion_08(gens6):
    assert pivot_identity_residual(gens6, 3).is_zero()


@pytest.mark.extended
def test_criterion_08_extended(gens6):
    assert pivot_identity_residual(gens6, 5).is_zero()


# ---------------------------------------------------------------------------
# criterion 9: the distinguished weight-16 index-5 combination (tier 2)
# ---------------------------------------------------------------------------

def test_criterion_09(gens6):
    p165 = NAMED_POLYNOMIALS["P165"]
    f = expand(p165, 5)
    quotient = div_e4(f)
    ok, witness = check_support(quotient)
    assert ok and witness is None
    e4, e6 = eisenstein(4, 5), eisenstein(6, 5)
    assert eval_zero(f) == (e4 ** 4).scale(864) + (e4 * e6 ** 2).scale(2296)
    divisible, obstruction = reduction_obstruction_e4sq(5)
    assert not divisible
    assert obstruction == (1, Fraction(-2450688), Fraction(1516800))


# ---------------------------------------------------------------------------
# criterion 10: leading terms of the four named numerators (tier 2)
# ---------------------------------------------------------------------------

def test_criterion_10(gens6):
    leading = {"P1": (1, W[0]), "P2": (1, W[7]), "P3": (1, W[6]),
               "P4": (2, W[1])}
    for name, (dpow, m) in leading.items():
        f = div_delta(expand(NAMED_POLYNOMIALS[name], 6), dpow)
        assert f.coeffs[0] == {m: 1}


# ---------------------------------------------------------------------------
# criterion 11: listed index-2 and index-3 generators (tier 2)
# ---------------------------------------------------------------------------

def test_criterion_11(gens6, capsys):
    assert cli.main(["verify", "eq43"]) == 0
    assert cli.main(["verify", "eq44"]) == 0
    capsys.readouterr()
    for k in WEAK_INDEX2:
        assert st.weak_basis(k, 2, trunc=4).dim \
            == DIM_SERIES[2][k]
    for k in WEAK_INDEX3:
        assert st.weak_basis(k, 3, trunc=4).dim \
            == DIM_SERIES[3][k]


# ---------------------------------------------------------------------------
# criterion 12: module generators and counting series (tier 2 / extended)
# ---------------------------------------------------------------------------

def test_criterion_12(modules):
    for t in (1, 2, 3, 4):
        assert modules[t].weight_poly() == WEIGHT_POLYS[t]
        assert modules[t].series(20) == DIM_SERIES[t]


@pytest.mark.extended
def test_criterion_12_extended(modules_ext):
    for t in (5, 6, 7):
        assert modules_ext[t].weight_poly() == WEIGHT_POLYS[t]
        assert modules_ext[t].series(20) == DIM_SERIES[t]


# ---------------------------------------------------------------------------
# criterion 13: singular spaces (tier 2 / extended)
# ---------------------------------------------------------------------------

def test_criterion_13(gens6, singular):
    assert tuple(singular[t].dimension for t in range(1, 8)) == SINGULAR_DIMS
    reduced = st.singular_solve(7, delta_power=2, trunc=7)
    m1 = (0, 0, 0, 0, 0, 0, 1, 1)
    form, coeff = reduced.phi(m1)
    assert coeff == Fraction(240, orbit_size(m1)) == Fraction(1, 56)
    assert form.coeffs[0] == {ZERO: 1}
    for n in range(1, 5):
        assert form.coeffs[n] == PHI7[n]
    # the full-power space agrees on its (shorter) overlap
    full_form, full_coeff = singular[7].phi(m1)
    assert full_coeff == coeff
    for n in range(full_form.trunc):
        assert full_form.coeffs[n] == form.coeffs[n]


@pytest.mark.extended
def test_criterion_13_extended(gens6, singular_ext):
    recovered = {8: scale_z(x_form(2, 6), 2), 9: scale_z(theta_e8(6), 3)}
    for t, f in recovered.items():
        assert (f.weight, f.index) == (4, t)
        assert singular_member(singular_ext[t], f)
    for t, table, m1 in ((10, PHI10, (1, 0, 0, 0, 0, 0, 0, 2)),
                         (11, PHI11, (0, 0, 0, 0, 0, 1, 0, 1))):
        form, coeff = singular_ext[t].phi(m1)
        assert coeff == Fraction(240, orbit_size(m1))
        assert form.coeffs[0] == {ZERO: 1}
        for n, expected in table.items():
            assert form.coeffs[n] == expected


# ---------------------------------------------------------------------------
# criterion 14: weak/holomorphic dimension gap (property suite)
# ---------------------------------------------------------------------------

def test_criterion_14(gens6):
    samples = ((6, 2, 4), (8, 2, 4), (10, 2, 4), (6, 3, 4), (8, 3, 4),
               (6, 4, 5))
    for k, t, trunc in samples:
        space = st.weak_basis(k, t, trunc=trunc)
        direct = st.holo_dim_direct(space)
        assert space.dim - direct == st.delta_t(t)
        assert st.holo_dim(k, t, trunc=trunc) == direct


# ---------------------------------------------------------------------------
# criterion 15: invariant property suite
# ---------------------------------------------------------------------------

def test_criterion_15(gens6, tmp_path):
    # quasi-periodicity spot checks on the index-raised forms
    for t in (2, 3):
        assert quasi_periodicity_violations(x_form(t, 4)) == []

    # product associativity and commutativity
    a1, a2, b2 = (gens6[n].truncate(4) for n in ("A1", "A2", "B2"))
    assert multiply(a1, a2) == multiply(a2, a1)
    assert multiply(multiply(a1, a2), b2) == multiply(a1, multiply(a2, b2))

    # restriction to the constant channel is a ring homomorphism
    prod = multiply(a1, a2)
    assert eval_zero(prod) == eval_zero(a1) * eval_zero(a2)
    f = mul_series(a2, eisenstein(4, 4), weight_shift=4)
    g = multiply(a1, a1)
    assert eval_zero(add(f, g)) == eval_zero(f) + eval_zero(g)

    # kernel canonicalization is stable under row shuffles
    from random import Random
    base = st.weak_basis(0, 3, trunc=4)
    for seed in (3, 11):
        shuffled = st.weak_basis(0, 3, trunc=4,
                                 shuffle=Random(seed))
        assert shuffled.dim == base.dim
        stacked = [list(v) for v in base.kernel] + \
                  [list(v) for v in shuffled.kernel]
        assert linalg.rank(stacked, len(base.columns)) == base.dim

    # cache round trip is the identity
    b4 = gens6["B4"].truncate(4)
    assert from_payload(to_payload(b4)) == b4

    # orbit-size formula against brute-force enumeration, every orbit <= 1e6
    checked = 0
    for bits in itertools.product((0, 1), repeat=8):
        if not any(bits):
            continue
        if orbit_size(bits) <= 10 ** 6:
            orbit_vectors(bits)  # asserts enumerated count == formula
            checked += 1
    assert checked == 30


# ---------------------------------------------------------------------------
# criterion 16: conjecture evidence (tier 2 / extended)
# ---------------------------------------------------------------------------

def test_criterion_16(modules, singular):
    for t in range(1, 8):
        assert singular[t].dimension == st.orbit_count_norm(t)
    for t, mod in modules.items():
        assert mod.min_weight >= -4 * t
        if t >= 2:
            for k in (0, -2, -4):
                assert mod.counts.get(k, 0) == 1


@pytest.mark.extended
def test_criterion_16_extended(modules_ext, singular_ext):
    for t in range(8, 12):
        assert singular_ext[t].dimension == st.orbit_count_norm(t)
    for t, mod in modules_ext.items():
        assert mod.min_weight >= -4 * t
        for k in (0, -2, -4):
            assert mod.counts.get(k, 0) == 1
