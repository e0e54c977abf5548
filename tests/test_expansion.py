"""Expansion engine: theta oracle, operators, ring laws, support checks."""
from fractions import Fraction

import pytest

from e8jacobi import expansion
from e8jacobi.config import TruncationError
from e8jacobi.expansion import (DivisionError, JacobiExpansion, _div_unit_series, add,
                                check_support, combine, div_delta, div_e4, eval_zero,
                                from_payload, from_qseries, hecke_v,
                                level_trace, mul_series, multiply, power,
                                quasi_periodicity_violations, scale, scale_z,
                                sub, theta_e8, to_payload, x_form, zero)
from e8jacobi.lattice import FUNDAMENTAL, ZERO, norm, orbit_size, shell_count
from e8jacobi.qseries import QSeries, discriminant, eisenstein

W8 = FUNDAMENTAL[7]


def test_theta_is_weight4_index1_with_shell_masses():
    th = theta_e8(6)
    assert (th.weight, th.index) == (4, 1)
    assert eval_zero(th) == eisenstein(4, 6)
    assert th.coeffs[0] == {ZERO: 1}
    assert th.coeffs[1] == {W8: 1}
    for n in range(6):
        mass = sum(c * orbit_size(m) for m, c in th.coeffs[n].items())
        assert mass == shell_count(n)
    ok, _ = check_support(th)
    assert ok


def test_x_forms_normalized():
    for t in (1, 2, 3):
        x = x_form(t, 4)
        assert (x.weight, x.index) == (4, t)
        assert x.coeffs[0] == {ZERO: 1}
        assert eval_zero(x) == eisenstein(4, 4)
    assert x_form(1, 4) == theta_e8(4)


def test_hecke_v_low_order():
    th = theta_e8(7)
    h2 = hecke_v(th, 2)
    # order-m averaging: q^0-term is sigma_3(m) * constant
    assert h2.coeffs[0] == {ZERO: 9}
    assert (h2.weight, h2.index) == (4, 2)


def test_multiply_commutes_and_associates(gens6):
    a = gens6["A1"].truncate(3)
    b = gens6["B2"].truncate(3)
    e = gens6["E4"].truncate(3)
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), e) == multiply(a, multiply(b, e))
    assert multiply(a, b).weight == 10 and multiply(a, b).index == 3


def test_eval_zero_is_ring_homomorphism(gens6):
    a = gens6["A2"].truncate(4)
    b = gens6["B3"].truncate(4)
    assert eval_zero(multiply(a, b)) == eval_zero(a) * eval_zero(b)
    f = mul_series(a, eisenstein(4, 4), weight_shift=4)   # weight 8, index 2
    g = multiply(gens6["A1"].truncate(4), gens6["A1"].truncate(4))
    assert eval_zero(add(f, g, 2, -3)) == eval_zero(f).scale(2) + eval_zero(g).scale(-3)


def test_scale_z_multiplies_index(gens6):
    f = gens6["A1"].truncate(4)
    g = scale_z(f, 2)
    assert (g.weight, g.index) == (4, 4)
    assert eval_zero(g) == eval_zero(f)
    # rescaling z by a maps the orbit of m to the orbit of a*m
    assert g.coeffs[1] == {tuple(2 * c for c in W8): 1}


def test_division_roundtrips(gens6):
    f = gens6["B2"].truncate(4)
    delta = discriminant(4)
    assert div_delta(mul_series(f, delta, weight_shift=12), 1) == f
    assert div_e4(mul_series(f, eisenstein(4, 4), weight_shift=4)) == f


def test_division_errors(gens6):
    with pytest.raises(DivisionError):
        div_delta(gens6["A1"].truncate(3), 1)  # q^0-term nonzero


def test_payload_roundtrip(gens6):
    f = gens6["B4"].truncate(4)
    assert from_payload(to_payload(f)) == f


def test_check_support_flags_weak_forms(gens6):
    from e8jacobi.genring import WEAK_INDEX2, expand
    poly, dpow = WEAK_INDEX2[-4]
    weak = div_delta(expand(poly, 4), dpow)
    ok, witness = check_support(weak)
    assert not ok and witness[0] == 0 and norm(witness[1]) > 0


def test_quasi_periodicity_spot(gens6):
    assert quasi_periodicity_violations(gens6["A2"].truncate(4)) == []
    assert quasi_periodicity_violations(theta_e8(4)) == []


def test_level_trace_eval_and_b5hat(gens6):
    b5 = gens6["B5HAT"]
    assert (b5.weight, b5.index) == (6, 5)
    assert eval_zero(b5) == eisenstein(6, 6)
    with pytest.raises(ValueError):
        level_trace(7, 3)


def test_power_and_linear_ops(gens6):
    a = gens6["A1"].truncate(3)
    assert power(a, 2) == multiply(a, a)
    assert sub(a, a).is_zero()
    assert scale(a, Fraction(1, 2)).coeffs[0] == {ZERO: Fraction(1, 2)}


def test_zero_and_from_qseries():
    z = zero(8, 2, 4)
    assert z.is_zero() and z.trunc == 4
    e = from_qseries(eisenstein(4, 4), 4)
    assert e.index == 0 and e.coeffs[1] == {ZERO: 240}


def test_representation_length_checks_raise():
    with pytest.raises(ValueError):
        JacobiExpansion(4, 1, 3, upoly=[(1, {})] * 2)
    with pytest.raises(ValueError):
        JacobiExpansion(4, 1, 2, orbit=[{}] * 3)


def test_unit_series_checks_raise():
    f = zero(4, 1, 2)
    with pytest.raises(DivisionError):
        _div_unit_series(f, QSeries([0, 1]))


def test_delta_shift_checks_raise():
    with pytest.raises(TruncationError):
        div_delta(zero(24, 1, 2), 2)


def test_like_forms_checks_raise(gens6):
    a, b = gens6["A1"].truncate(2), gens6["B2"].truncate(2)
    with pytest.raises(ValueError):
        add(a, b)
    with pytest.raises(ValueError):
        combine([1, 1], [a, b])


def test_level_trace_constant_term_checks_raise(monkeypatch):
    monkeypatch.setattr(expansion, "eval_zero", lambda f: QSeries([0, 1], f.trunc))
    with pytest.raises(ArithmeticError):
        level_trace(2, 2)
