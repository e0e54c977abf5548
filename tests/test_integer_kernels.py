"""Integer u-monomial kernels against a Fraction reference.

Every q-order of an expansion in the u-monomial basis is one positive
denominator over integer numerators, reduced so that equal polynomials are
equal pairs.  The references below compute the same results coefficient by
coefficient in `Fraction`s.
"""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as hs

from e8jacobi import genring
from e8jacobi.expansion import (JacobiExpansion, _div_unit_series, combine,
                                div_delta, div_e4, mul_series, multiply, scale)
from e8jacobi.genring import P165, Q185, WEAK_INDEX3, expand
from e8jacobi.lattice import ZERO, dominant_by_norm
from e8jacobi.orbitalg import (lincomb, mono_to_orbit, orbit_dict_to_upoly,
                               orbit_to_mono, unpack, upoly_to_orbit_dict)
from e8jacobi.qseries import QSeries, discriminant, eisenstein

ORBITS = [ZERO] + [m for a in (1, 2, 3) for m in dominant_by_norm(a)]
# monomials whose orbit decompositions are cheap, with exponents small enough
# that a product of two stays within the key packing
KEYS = sorted({k for x in ORBITS for k in orbit_to_mono(x)})

fractions = hs.fractions(min_value=-60, max_value=60, max_denominator=12)
frac_polys = hs.dictionaries(hs.sampled_from(KEYS), fractions, max_size=5)
coefficients = hs.one_of(hs.integers(-9, 9), fractions)


def canon(d: dict) -> tuple[int, dict[int, int]]:
    """The canonical (den, numerators) pair of a Fraction-valued dict."""
    d = {k: Fraction(c) for k, c in d.items() if c}
    den = 1
    for c in d.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return den, {k: int(c * den) for k, c in d.items()}


def as_fractions(p) -> dict:
    den, nums = p
    return {k: Fraction(v, den) for k, v in nums.items()}


def is_canonical(p) -> bool:
    den, nums = p
    return den > 0 and all(nums.values()) and gcd(den, *nums.values()) == 1


def ref_sum(terms) -> dict:
    acc = {}
    for c, d in terms:
        for k, v in d.items():
            acc[k] = acc.get(k, 0) + Fraction(c) * v
    return {k: v for k, v in acc.items() if v}


def form(orders, weight=0, index=1) -> JacobiExpansion:
    return JacobiExpansion(weight, index, len(orders), upoly=[canon(d) for d in orders])


def ref_div(orders, s: QSeries) -> list[dict]:
    """Key-by-key recursion of f = s * out, as the Fraction engine divided."""
    out = []
    for n in range(min(len(orders), s.trunc)):
        acc = dict(orders[n])
        for j in range(1, n + 1):
            for k, v in out[n - j].items():
                acc[k] = acc.get(k, 0) - s.coeffs[j] * v
        out.append({k: v / s.coeffs[0] for k, v in acc.items() if v})
    return out


def orders_of(length):
    return hs.lists(frac_polys, min_size=length, max_size=length)


@settings(max_examples=60, deadline=None)
@given(hs.lists(hs.tuples(coefficients, frac_polys), max_size=5))
def test_lincomb_matches_reference(terms):
    got = lincomb((c, canon(d)) for c, d in terms)
    assert is_canonical(got)
    assert got == canon(ref_sum(terms))


@settings(max_examples=40, deadline=None)
@given(hs.integers(1, 3).flatmap(lambda t: hs.lists(
    hs.tuples(coefficients, orders_of(t)), min_size=1, max_size=4)))
def test_combine_matches_reference(terms):
    got = combine([c for c, _ in terms], [form(o) for _, o in terms]).upolys
    trunc = len(terms[0][1])
    assert got == [canon(ref_sum((c, o[n]) for c, o in terms)) for n in range(trunc)]
    assert all(is_canonical(p) for p in got)


@settings(max_examples=30, deadline=None)
@given(orders_of(3), coefficients)
def test_cancellation_to_zero(orders, c):
    f = form(orders)
    g = combine([c, -c], [f, f])
    assert g.is_zero() and g.upolys == [(1, {})] * 3
    assert scale(f, 0).upolys == [(1, {})] * 3


@settings(max_examples=40, deadline=None)
@given(hs.integers(1, 3).flatmap(lambda t: hs.tuples(orders_of(t), orders_of(t))))
def test_multiply_matches_reference(pair):
    a, b = pair
    got = multiply(form(a), form(b)).upolys
    for n, p in enumerate(got):
        ref = {}
        for i in range(n + 1):
            for ka, ca in a[i].items():
                for kb, cb in b[n - i].items():
                    ref[ka + kb] = ref.get(ka + kb, 0) + ca * cb
        assert p == canon(ref)


@settings(max_examples=40, deadline=None)
@given(orders_of(3), hs.lists(fractions, min_size=3, max_size=3))
def test_mul_series_matches_reference(orders, coeffs):
    s = QSeries(coeffs)
    got = mul_series(form(orders), s).upolys
    assert got == [canon(ref_sum((s.coeffs[n - j], orders[j]) for j in range(n + 1)))
                   for n in range(3)]


@settings(max_examples=40, deadline=None)
@given(orders_of(4))
def test_div_e4_matches_reference(orders):
    f = form(orders, weight=4)
    got = div_e4(f)
    assert got.upolys == [canon(d) for d in ref_div(orders, eisenstein(4, 4))]
    assert mul_series(got, eisenstein(4, 4), weight_shift=4).upolys == f.upolys


@settings(max_examples=40, deadline=None)
@given(hs.integers(1, 2).flatmap(lambda n0: hs.tuples(hs.just(n0), orders_of(4 - n0))))
def test_div_delta_matches_reference(case):
    n0, orders = case
    f = form([{}] * n0 + orders, weight=12 * n0)
    unit = QSeries(discriminant(4).coeffs[1:]) ** n0
    assert div_delta(f, n0).upolys == [canon(d) for d in ref_div(orders, unit)]


@settings(max_examples=30, deadline=None)
@given(orders_of(3), hs.lists(fractions.filter(bool), min_size=3, max_size=3))
def test_division_by_rational_series_matches_reference(orders, coeffs):
    s = QSeries(coeffs)
    assert _div_unit_series(form(orders), s).upolys == [canon(d) for d in ref_div(orders, s)]


@settings(max_examples=40, deadline=None)
@given(hs.dictionaries(hs.sampled_from(ORBITS), fractions, max_size=6))
def test_orbit_dict_to_upoly_matches_reference(d):
    got = orbit_dict_to_upoly(d)
    assert is_canonical(got)
    assert got == canon(ref_sum((c, orbit_to_mono(x)) for x, c in d.items()))


@settings(max_examples=40, deadline=None)
@given(frac_polys)
def test_upoly_to_orbit_dict_matches_reference(d):
    ref = ref_sum((c, mono_to_orbit(unpack(k))) for k, c in d.items())
    assert upoly_to_orbit_dict(canon(d)) == ref


def test_empty_orders():
    assert lincomb([]) == (1, {})
    assert upoly_to_orbit_dict((1, {})) == {}
    assert orbit_dict_to_upoly({}) == (1, {})
    f = form([{}, {}])
    assert multiply(f, f).upolys == [(1, {}), (1, {})]
    assert div_e4(f).upolys == [(1, {}), (1, {})]


def test_upolys_agree_between_deep_and_direct_rings(gens6):
    # The process ring is six orders deep; a ring built at three orders
    # directly must store the very same pairs, since generator pinning
    # compares them with ==.
    gens = genring._partial_generators(3)
    gens["B4"] = genring.pin_b4(gens)[0]
    for name, f in gens.items():
        assert f.upolys == gens6[name].truncate(3).upolys, name
    for poly in (P165, Q185, WEAK_INDEX3[-8][0]):
        expand(poly, 6)   # so the bodies of expand(poly, 3) are cut from deeper ones
        assert genring._expand(poly, 3, gens, {}).upolys == expand(poly, 3).upolys
    direct = JacobiExpansion(4, 1, 3, orbit=gens6["A1"].truncate(3).coeffs)
    assert direct.upolys == gens6["A1"].truncate(3).upolys
