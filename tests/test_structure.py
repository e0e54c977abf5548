"""Structure layer: dimension tables, weak/holomorphic bases, singular forms."""
from fractions import Fraction
from random import Random

import pytest

import e8jacobi.structure as st
from e8jacobi import linalg
from e8jacobi.expansion import JacobiExpansion, div_delta, eval_zero, scale, x_form
from e8jacobi.genring import expand
from e8jacobi.lattice import (FUNDAMENTAL, ZERO, dominant_by_norm, norm,
                              orbit_size)
from e8jacobi.linalg import rank

W8 = FUNDAMENTAL[7]

RANKS = (1, 3, 5, 10, 15, 27, 39, 63, 90, 135, 187, 270,
         364, 505, 670, 902, 1173, 1545)
DELTAS = (0, 2, 5, 13, 23, 52, 82, 154, 240, 403, 601, 959,
          1373, 2063, 2911, 4184, 5739, 8033)
N_CAPS = (0, 1, 2, 3, 3, 5, 5, 6, 7, 8, 8, 10, 10)
M_CAPS = (0, 1, 2, 2, 3, 3, 4)
NORM_COUNTS = (1, 1, 1, 2, 1, 1, 2, 2, 2, 2, 2, 2, 3, 2, 2, 4, 3, 3,
               4, 3, 3, 4, 4)


def test_frozen_tables():
    assert tuple(st.rank_r(18)[1:]) == RANKS  # entry 0 is the index-0 ring
    assert tuple(st.delta_t(t) for t in range(1, 19)) == DELTAS
    assert tuple(st.n_cap(t) for t in range(1, 14)) == N_CAPS
    assert tuple(st.m_cap(t) for t in range(1, 8)) == M_CAPS
    assert tuple(st.t1(t) for t in range(1, 14)) == tuple(
        t // 5 for t in range(1, 14))
    assert tuple(st.orbit_count_norm(t) for t in range(1, 24)) == NORM_COUNTS


def test_obstruction_channel_counts():
    for t in range(1, 7):
        assert len(st.obstruction_channels(t)) == st.delta_t(t)


def test_pairing_values():
    assert st.pairing_values() == st.EXPECTED_PAIRING == [4, 5, 7, 10, 8, 6, 4, 2]


def test_weak_dimensions_index2(gens6):
    expected = {-4: 1, -2: 1, 0: 2, 2: 2, 4: 3, 6: 3, 8: 4}
    for k, d in expected.items():
        assert st.weak_basis(k, 2, trunc=3).dim == d


def test_min_weight(gens6):
    assert st.min_weight(1) == 4
    assert st.min_weight(2) == -4
    assert st.min_weight(3) == -8


def test_module_generators_index2(gens6):
    mod = st.module_generators(2, trunc=4)
    assert mod.weight_poly() == {-4: 1, -2: 1, 0: 1}
    assert mod.rank == st.rank_r(2)[-1] == 3
    assert mod.min_weight == -4
    assert mod.weight_poly_str() == "x^-4 + x^-2 + 1"
    series = mod.series(20)
    assert series == {-4: 1, -2: 1, 0: 2, 2: 2, 4: 3, 6: 3, 8: 4, 10: 4,
                      12: 5, 14: 5, 16: 6, 18: 6, 20: 7}
    assert st.gen_series(2, order=8, module=mod) == {
        -4: 1, -2: 1, 0: 2, 2: 2, 4: 3, 6: 3, 8: 4}


def test_generator_reconstruction_index2(gens6):
    mod = st.module_generators(2, trunc=4)
    for k, gen_list in mod.generators.items():
        for gen in gen_list:
            assert gen.weight == k
            assert len(gen.certificate) == 1  # single slot below index 5
            rebuilt = div_delta(expand(gen.certificate[0], 4),
                                st.n_cap(2))
            assert rebuilt == gen.form.truncate(rebuilt.trunc)


def test_kernel_shuffle_stability(gens6):
    base = st.weak_basis(0, 3, trunc=4)
    for seed in (1, 7):
        shuffled = st.weak_basis(0, 3, trunc=4,
                                 shuffle=Random(seed))
        assert shuffled.dim == base.dim
        assert shuffled.columns == base.columns
        stacked = [list(v) for v in base.kernel] + \
                  [list(v) for v in shuffled.kernel]
        assert rank(stacked, len(base.columns)) == base.dim


@pytest.mark.parametrize("k,t", [(-4, 2), (0, 2), (-8, 3), (0, 3), (-8, 4)])
def test_weak_kernel_matches_orbit_basis_rows(gens6, k, t):
    # The vanishing rows as built in the orbit basis give the same kernel.
    space = st.weak_basis(k, t, trunc=st.n_cap(t) + 1)
    forms = space.column_expansions
    rows = []
    for n in range(space.n_power):
        support = sorted({m for f in forms for m in f.coeffs[n]},
                         key=lambda m: (norm(m), m))
        rows += [[f.coeffs[n].get(m, Fraction(0)) for f in forms]
                 for m in support]
    assert space.dim
    assert space.kernel == linalg.kernel_basis(rows, len(space.columns))


def test_module_generator_checks_raise(gens6, monkeypatch):
    def all_columns(space, below4, below6):
        n = len(space.columns)
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    with monkeypatch.context() as mp:
        mp.setattr(st, "_image_vectors", all_columns)
        with pytest.raises(ArithmeticError, match="escaped the kernel span"):
            st.module_generators(2, trunc=4)
    real_rank_r = st.rank_r
    monkeypatch.setattr(st, "rank_r", lambda t: [r + 1 for r in real_rank_r(t)])
    with pytest.raises(ArithmeticError, match="does not match the rank"):
        st.module_generators(2, trunc=4)


def test_q0_terms_match_basis_forms(gens6):
    for k, t in ((-8, 3), (0, 3), (-8, 4)):
        space = st.weak_basis(k, t, trunc=st.n_cap(t) + 1)
        assert space.dim
        assert st._q0_terms(space) == [f.coeffs[0] for f in space.basis_forms()]


def test_singular_solve_checks_raise(gens6, monkeypatch):
    # Index 4 has a two-dimensional singular space.
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "rref", lambda matrix, ncols: [])
        with pytest.raises(ArithmeticError, match="has 1 forms, rank 2"):
            st.singular_solve(4)
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "solve", lambda matrix, rhs: [Fraction(0)] * len(matrix[0]))
        with pytest.raises(ArithmeticError, match="not independent"):
            st.singular_solve(4)
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "solve", lambda matrix, rhs: None)
        with pytest.raises(ArithmeticError, match="has no lift"):
            st.singular_solve(4)

    def x_form_with_constant_at_q1(t, trunc):
        f = x_form(t, trunc)
        coeffs = [dict(d) for d in f.coeffs]
        coeffs[1][ZERO] = Fraction(1)
        return JacobiExpansion(f.weight, f.index, f.trunc, orbit=coeffs,
                               holomorphic=True)

    monkeypatch.setattr(st, "x_form", x_form_with_constant_at_q1)
    with pytest.raises(ArithmeticError, match="non-singular support at q\\^1"):
        st.singular_solve(4)


def test_singular_theta_check_raises(gens6, monkeypatch):
    monkeypatch.setattr(st, "x_form", lambda t, trunc: scale(x_form(t, trunc), 2))
    with pytest.raises(ArithmeticError, match="constant term 2, not 1"):
        st.singular_solve(2)


def test_select_generators_checks_raise(gens6, monkeypatch):
    space = st.weak_basis(-8, 3, trunc=st.n_cap(3) + 1)
    assert space.dim
    monkeypatch.setattr(st.linalg, "rank", lambda rows, ncols=None: 0)
    with pytest.raises(ArithmeticError, match="found 0 of 1 generators in weight -8"):
        st._select_generators(space, [], 1)


def test_holo_dim_two_routes(gens6):
    for k, t in ((6, 2), (8, 2), (6, 3)):
        space = st.weak_basis(k, t, trunc=4)
        assert st.holo_dim(k, t, trunc=4) == st.holo_dim_direct(space)
    assert st.holo_dim(4, 2) == 1
    assert st.holo_dim(2, 5) == 0
    assert st.holo_dim(5, 2) == 0
    assert st.holo_dim(3, 1) == 0


def test_singular_spaces_small(gens6):
    expected_dim = {1: 1, 2: 1, 3: 1, 4: 2}
    for t, d in expected_dim.items():
        space = st.singular_solve(t)
        assert space.dimension == d
        assert len(space.basis) == d
        for m in dominant_by_norm(t):
            result = space.phi(m)
            assert result is not None
            form, coeff = result
            assert coeff == Fraction(240, orbit_size(m))
            assert form.coeff(0, ZERO) == 1
            other = [x for x in dominant_by_norm(t) if x != m]
            assert all(form.coeff(1, x) == 0 for x in other)


def test_singular_theta_member(gens6):
    space = st.singular_solve(1)
    form, coeff = space.phi(W8)
    assert coeff == 1
    assert form.coeff(1, W8) == 1
    assert eval_zero(form).coeffs[0] == 1


def test_truncation_errors(gens6):
    with pytest.raises(st.TruncationError):
        st.weak_basis(4, 2, trunc=1)
    with pytest.raises(st.TruncationError):
        st.singular_solve(2, trunc=1)


def test_stable_counts_shape():
    assert st.STABLE_COUNTS[0] == (2, 1)
    assert st.STABLE_COUNTS[-24] == (12, 12)
    assert sorted(st.STABLE_COUNTS) == list(range(-24, 2, 2))
