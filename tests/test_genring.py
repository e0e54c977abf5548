"""Generator ring: parsing, bidegrees, pinning, and the frozen identities."""
import random
from fractions import Fraction

import pytest

from e8jacobi import genring
from e8jacobi.expansion import (add, eval_zero, from_qseries, multiply, scale,
                                to_payload, zero)
from e8jacobi.genring import (DELTA_POLY, GEN_INDEX, GEN_ORDER, GEN_WEIGHT,
                              NAMED_POLYNOMIALS, P4, PIVOT_SCALE, WEAK_INDEX2,
                              WEAK_INDEX3, GeneratorPolynomial, expand,
                              monomials, pin_b4, pivot_identity_residual,
                              restriction_at_zero, sakai_generators)
from e8jacobi.lattice import FUNDAMENTAL, ZERO
from e8jacobi.qseries import QSeries, discriminant, eisenstein

W7, W8 = FUNDAMENTAL[6], FUNDAMENTAL[7]


def test_generator_tables():
    assert GEN_ORDER == ("E4", "E6", "A1", "A2", "A3", "A4", "A5",
                         "B2", "B3", "B4", "B6")
    for i, name in enumerate(GEN_ORDER):
        expected_weight = 4 if name[0] in "EA" and name != "E6" else 6
        assert GEN_WEIGHT[i] == expected_weight
        expected_index = 0 if name[0] == "E" else int(name[1])
        assert GEN_INDEX[i] == expected_index


def test_parse_print_roundtrip():
    rng = random.Random(1)
    for poly in NAMED_POLYNOMIALS.values():
        assert GeneratorPolynomial.from_text(poly.to_text()) == poly
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            expo = tuple(rng.randint(0, 2) for _ in GEN_ORDER)
            terms[expo] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = sum((GeneratorPolynomial.monomial(e, c) for e, c in terms.items()),
                GeneratorPolynomial.zero())
        assert GeneratorPolynomial.from_text(p.to_text()) == p


def test_parse_error_reports_position():
    with pytest.raises(ValueError, match="position"):
        GeneratorPolynomial.from_text("A1^2 - A2*Q7")


def test_zero_denominator_reports_position():
    with pytest.raises(ValueError, match="zero denominator.*position 5"):
        GeneratorPolynomial.from_text("A1^2-1/0*A2*E4")


def test_monomial_enumeration():
    assert [GeneratorPolynomial.monomial(e).weight
            for e in map(tuple, monomials(4, 1))] == [4]
    for expo in monomials(16, 5):
        p = GeneratorPolynomial.monomial(tuple(expo))
        assert (p.weight, p.index) == (16, 5)
    no_e4 = monomials(16, 5, allow_e4=False)
    assert all(e[0] == 0 for e in no_e4)
    assert len(monomials(16, 5)) > len(no_e4)


def test_named_polynomial_bidegrees():
    expected = {"P165": (16, 5), "Q185": (18, 5), "P1": (16, 2),
                "P2": (16, 2), "P3": (16, 3), "P4": (28, 3)}
    for name, (w, t) in expected.items():
        p = NAMED_POLYNOMIALS[name]
        assert (p.weight, p.index) == (w, t)
        assert p.is_bihomogeneous()
    # P165 avoids E4 entirely, so P165/E4 is the interesting quotient.
    assert all(e[0] == 0 for e in NAMED_POLYNOMIALS["P165"].terms)


def test_pin_b4_constants_and_q1(gens6):
    partial = {k: f.truncate(4) for k, f in gens6.items() if k != "B4"}
    _, alpha, beta = pin_b4(partial)
    assert (alpha, beta) == (Fraction(-17, 16), Fraction(1, 16))
    b4 = gens6["B4"]
    assert eval_zero(b4) == eisenstein(6, 6)
    assert b4.coeffs[1] == {ZERO: -8, W8: Fraction(-4, 15), W7: Fraction(-1, 15),
                            tuple(2 * c for c in W8): Fraction(1, 15)}


@pytest.mark.parametrize("fault, message", [
    ("trace", "level_trace\\(4\\) does not restrict to E6"),
    ("hecke", "V2\\(B2\\) does not restrict to 33\\*E6"),
    ("rank", "degenerate"),
])
def test_pinning_checks_raise(gens6, monkeypatch, fault, message):
    partial = {k: f.truncate(3) for k, f in gens6.items() if k != "B4"}
    real_trace, real_hecke = genring.level_trace, genring.hecke_v
    if fault == "trace":
        monkeypatch.setattr(genring, "level_trace",
                            lambda t, trunc: scale(real_trace(t, trunc), 1 + (t == 4)))
    elif fault == "hecke":
        monkeypatch.setattr(genring, "hecke_v", lambda f, m: scale(real_hecke(f, m), 2))
    else:
        monkeypatch.setattr(genring.linalg, "rank", lambda rows, ncols=None: 1)
    with pytest.raises(ArithmeticError, match=message):
        pin_b4(partial)


def test_shallow_ring_is_cut_from_the_deeper_one(engine_cache, monkeypatch):
    builds = []
    real = genring._partial_generators
    monkeypatch.setattr(genring, "_partial_generators",
                        lambda trunc: builds.append(trunc) or real(trunc))
    monkeypatch.setattr(genring, "_ring", {})
    monkeypatch.setattr(genring, "_mono_cache", {})
    sakai_generators(5)
    cut = sakai_generators(3)
    assert builds == [5]
    monkeypatch.setattr(genring, "_ring", {})
    monkeypatch.setattr(genring, "_mono_cache", {})
    fresh = sakai_generators(3)
    assert builds == [5, 3]
    assert cut.keys() == fresh.keys()
    for name, f in fresh.items():
        assert cut[name].trunc == f.trunc == 3 and cut[name] == f, name


def test_monomial_bodies_are_cut_from_the_deepest(gens6, monkeypatch):
    monkeypatch.setattr(genring, "_mono_cache", {})
    poly = GeneratorPolynomial.from_text("A1^2*B2 - A2*B2*E4 + 3*A1*B3*E4")
    shallow = expand(poly, 3)
    assert {f.trunc for f in genring._mono_cache.values()} == {3}
    expand(poly, 5)
    bodies = dict(genring._mono_cache)
    assert {f.trunc for f in bodies.values()} == {5}
    assert expand(poly, 3) == shallow
    assert genring._mono_cache.keys() == bodies.keys()
    assert all(genring._mono_cache[ab] is f for ab, f in bodies.items())


def test_pinning_depth_check_raises(gens6, monkeypatch):
    partial = {k: f.truncate(3) for k, f in gens6.items() if k != "B4"}
    real_hecke = genring.hecke_v
    monkeypatch.setattr(genring, "hecke_v", lambda f, m: real_hecke(f, m).truncate(2))
    with pytest.raises(ArithmeticError, match="reaches truncation 2, not 3"):
        pin_b4(partial)


def test_expand_checks_raise(gens6, monkeypatch):
    poly = GeneratorPolynomial.from_text("A1*B2 - A3*E6")
    with pytest.raises(ArithmeticError, match="shorter than the requested 5"):
        genring._expand(poly, 5, sakai_generators(3), {})
    with pytest.raises(ValueError, match="bihomogeneous"):
        expand(GeneratorPolynomial.from_text("A1 + A2"), 3)
    monkeypatch.setattr(genring, "combine",
                        lambda coeffs, forms: zero(2, 0, forms[0].trunc))
    with pytest.raises(ArithmeticError, match="bidegree"):
        expand(poly, 3)


@pytest.mark.parametrize("warm", [True, False])
def test_residual_of_a_foreign_ring_uses_its_own_bodies(gens6, monkeypatch, warm):
    # A copy of the ring with B4 doubled breaks the pivot identity.
    ring = sakai_generators(3)
    if warm:
        assert pivot_identity_residual(ring, 3).is_zero()
    else:
        monkeypatch.setattr(genring, "_mono_cache", {})
    bodies = dict(genring._mono_cache)
    doubled = dict(ring, B4=scale(ring["B4"], 2))
    assert not pivot_identity_residual(doubled, 3).is_zero()
    assert genring._mono_cache.keys() == bodies.keys()
    assert all(genring._mono_cache[ab] is f for ab, f in bodies.items())


def test_eisenstein_products_are_built_once(gens6, monkeypatch):
    genring._eisenstein_power.cache_clear()
    powers = []
    real_pow = QSeries.__pow__
    monkeypatch.setattr(QSeries, "__pow__", lambda s, e: powers.append(e) or real_pow(s, e))
    poly = GeneratorPolynomial.from_text("A1*B3*E4^3 - 2*A2*B2*E4^3 + 5*A4*E6^3")
    first = expand(poly, 4)
    assert powers
    calls = len(powers)
    assert expand(poly, 4) == first and len(powers) == calls


def _expand_term_by_term(poly, trunc):
    gens = sakai_generators(trunc)
    out = zero(poly.weight, poly.index, trunc)
    for expo, c in poly.terms.items():
        term = from_qseries(QSeries.constant(c, trunc), 0)
        for name, e in zip(GEN_ORDER, expo):
            for _ in range(e):
                term = multiply(term, gens[name])
        out = add(out, term)
    return out


def test_expand_matches_term_by_term_sum(gens6):
    # The second polynomial has the Eisenstein parts E4^3 (two terms),
    # E4^2*E6 and E6^3.
    mixed = GeneratorPolynomial.from_text(
        "A1*B3*E4^3 - 2*A2*B2*E4^3 + 3/2*A1*A3*E4^2*E6 + 5*A4*E6^3")
    assert len({e[:2] for e in mixed.terms}) == 3
    for poly in (P4, mixed):
        assert expand(poly, 5) == _expand_term_by_term(poly, 5)


def test_eval_zero_of_all_generators(gens6):
    e4, e6 = eisenstein(4, 6), eisenstein(6, 6)
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert eval_zero(gens6[name]) == e4
    for name in ("B2", "B3", "B4", "B5HAT", "B6"):
        assert eval_zero(gens6[name]) == e6


def test_restriction_at_zero_matches_expansion(gens6):
    # The polynomial-side value at z = 0 that a cached form is checked against.
    polys = list(NAMED_POLYNOMIALS.values()) + [
        DELTA_POLY, WEAK_INDEX3[-8][0], GeneratorPolynomial.from_text("-3/7*A1*B3 + 5/2*A2*B2")]
    for poly in polys:
        assert restriction_at_zero(poly, 4) == eval_zero(expand(poly, 4)), poly


def test_delta_poly_expansion(gens6):
    d = expand(DELTA_POLY, 6)
    assert d.index == 0 and d.weight == 12
    assert eval_zero(d) == discriminant(6)


def test_expand_is_linear_and_multiplicative(gens6):
    p = GeneratorPolynomial.from_text("A1*B2")
    q = GeneratorPolynomial.from_text("A3*E6")
    lhs = expand(p - q, 4)
    rhs = add(expand(p, 4), expand(q, 4), 1, -1)
    assert lhs == rhs
    assert expand(p, 4) == multiply(gens6["A1"].truncate(4),
                                           gens6["B2"].truncate(4))


def test_expand_zero():
    assert expand(GeneratorPolynomial.zero(), 3).is_zero()


def test_small_truncation_consistency(gens6):
    small = sakai_generators(2)
    for name, f in small.items():
        assert f == gens6[name].truncate(2)


def test_pivot_identity_to_q2(gens6):
    res = pivot_identity_residual(gens6, 3)
    assert res.is_zero()
    assert PIVOT_SCALE == 179712


def test_weak_tables_are_bihomogeneous():
    for table, index in ((WEAK_INDEX2, 2), (WEAK_INDEX3, 3)):
        for k, (poly, dpow) in table.items():
            assert poly.is_bihomogeneous()
            assert poly.index == index
            assert poly.weight == k + 12 * dpow
