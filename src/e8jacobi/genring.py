"""The bigraded ring of generators: E4, E6, A1..A5, B2, B3, B4, B6.

GeneratorPolynomial is a sparse polynomial over exponent vectors
(a, b; c1..c5; d2, d3, d4, d6) in the order E4, E6, A1, A2, A3, A4, A5,
B2, B3, B4, B6; the bigrading is weight = 4a + 6b + 4*sum(c) + 6*sum(d),
index = sum(i * c_i) + sum(j * d_j).

The module also constructs the named Fourier expansions: A-forms from the
index-raising Hecke operators and the doubled theta, B-forms from level
traces, and B4 pinned by a two-condition linear solve against the weight-18
pivot identity (see pin_b4).  It owns the one generator ring of the process:
`sakai_generators` keeps the deepest set built so far and cuts every request
from it, and `expand` reads monomial bodies cut from the deepest ones
computed, so callers never choose between copies of the ring.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import config, linalg
from .expansion import (
    JacobiExpansion,
    add,
    combine,
    eval_zero,
    from_qseries,
    hecke_v,
    level_trace,
    mul_series,
    multiply,
    scale,
    scale_z,
    sub,
    theta_e8,
    x_form,
    zero,
)
from .qseries import QSeries, discriminant, eisenstein

GEN_ORDER = ("E4", "E6", "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B6")
GEN_WEIGHT = (4, 6, 4, 4, 4, 4, 4, 6, 6, 6, 6)
GEN_INDEX = (0, 0, 1, 2, 3, 4, 5, 2, 3, 4, 6)
_GEN_POS = {name: i for i, name in enumerate(GEN_ORDER)}

Expo = tuple[int, ...]


def weight_of(expo: Expo) -> int:
    return sum(e * w for e, w in zip(expo, GEN_WEIGHT))


def index_of(expo: Expo) -> int:
    return sum(e * t for e, t in zip(expo, GEN_INDEX))


class GeneratorPolynomial:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Expo, Fraction] | None = None):
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, expo: Expo, coeff=1) -> "GeneratorPolynomial":
        return cls({tuple(expo): Fraction(coeff)})

    @classmethod
    def zero(cls) -> "GeneratorPolynomial":
        return cls({})

    def is_zero(self) -> bool:
        return not self.terms

    def is_bihomogeneous(self) -> bool:
        grades = {(weight_of(e), index_of(e)) for e in self.terms}
        return len(grades) <= 1

    @property
    def weight(self) -> int:
        grades = {weight_of(e) for e in self.terms}
        if len(grades) != 1:
            raise ValueError("polynomial is not weight-homogeneous")
        return grades.pop()

    @property
    def index(self) -> int:
        grades = {index_of(e) for e in self.terms}
        if len(grades) != 1:
            raise ValueError("polynomial is not index-homogeneous")
        return grades.pop()

    def __add__(self, other: "GeneratorPolynomial") -> "GeneratorPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return GeneratorPolynomial(out)

    def __sub__(self, other: "GeneratorPolynomial") -> "GeneratorPolynomial":
        return self + (-other)

    def __neg__(self) -> "GeneratorPolynomial":
        return GeneratorPolynomial({e: -c for e, c in self.terms.items()})

    def scale(self, c) -> "GeneratorPolynomial":
        c = Fraction(c)
        return GeneratorPolynomial({e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[Expo, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return GeneratorPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "GeneratorPolynomial":
        assert k >= 0
        out = GeneratorPolynomial.monomial((0,) * len(GEN_ORDER))
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- text format --------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "GeneratorPolynomial":
        out = cls.zero()
        compact = text.replace(" ", "")
        for match in re.finditer(r"[+-]?[^+-]+", compact):
            chunk = match.group(0)
            if not chunk:
                continue
            sign = Fraction(-1 if chunk[0] == "-" else 1)
            body = chunk.lstrip("+-")
            coeff = sign
            expo = [0] * len(GEN_ORDER)
            pos = match.start() + (len(chunk) - len(body))
            for factor in body.split("*"):
                m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(\d+))?", factor)
                if m and m.group(1) in _GEN_POS:
                    expo[_GEN_POS[m.group(1)]] += int(m.group(2) or 1)
                elif re.fullmatch(r"\d+(?:/\d+)?", factor):
                    try:
                        coeff *= Fraction(factor)
                    except ZeroDivisionError:
                        raise ValueError(f"zero denominator in {factor!r} "
                                         f"at position {pos}") from None
                else:
                    raise ValueError(
                        f"cannot parse factor {factor!r} at position {pos}")
                pos += len(factor) + 1
            out = out + cls.monomial(tuple(expo), coeff)
        return out

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            factors = []
            for name, e in zip(GEN_ORDER, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors) if factors else "1"
            mag = abs(c)
            body = mono if mag == 1 and factors else f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return self.to_text()


def monomials(weight: int, index: int, *, allow_e4: bool = True,
              allow_e6: bool = True) -> list[Expo]:
    """All exponent vectors of exact bidegree (weight, index), sorted."""
    if weight < 0 or index < 0 or weight % 2:
        return []
    out: list[Expo] = []
    ab_slots = [(GEN_WEIGHT[i], GEN_INDEX[i]) for i in range(2, len(GEN_ORDER))]

    def rec(slot: int, rem_idx: int, rem_wt: int, expo: list[int]) -> None:
        if slot == len(ab_slots):
            if rem_idx:
                return
            for a in range(0, rem_wt // 4 + 1):
                rest = rem_wt - 4 * a
                if rest % 6 == 0 and (allow_e4 or a == 0):
                    b = rest // 6
                    if allow_e6 or b == 0:
                        out.append(tuple([a, b] + expo))
            return
        w, t = ab_slots[slot]
        for e in range(min(rem_idx // t, rem_wt // w) + 1):
            expo.append(e)
            rec(slot + 1, rem_idx - e * t, rem_wt - e * w, expo)
            expo.pop()

    rec(0, index, weight, [])
    return sorted(out)


# -- built-in polynomial constants (exact rational coefficients) -------------

P165 = GeneratorPolynomial.from_text(
    "864*A1^3*A2 + 3825*A1*B2^2 - 770*A3*B2*E6 - 840*A2*B3*E6 "
    "+ 60*A1*B4*E6 + 21*A5*E6^2")

Q185 = GeneratorPolynomial.from_text(
    "-2880*A1^3*B2 + 1350*A1*A2*B2*E4 + 1920*A1^2*B3*E4 - 70*A3*B2*E4^2 "
    "- 600*A2*B3*E4^2 - 60*A1*B4*E4^2 - 567*A1*A2^2*E6 + 672*A1^2*A3*E6 "
    "- 2400*B2*B3*E6 - 504*A2*A3*E4*E6 - 21*A5*E4^2*E6")

P1 = GeneratorPolynomial.from_text(
    "-12*A1^2*E4^2 + 17*A2*E4^3 + 10*A2*E6^2 - 15*B2*E4*E6").scale(Fraction(1, 4))

P2 = GeneratorPolynomial.from_text(
    "24*A1^2*E4^2 - 14*A2*E4^3 + 5*A2*E6^2 - 15*B2*E4*E6").scale(Fraction(1, 72))

P3 = GeneratorPolynomial.from_text(
    "-27*A1*A2*E4^2 - 45*A1*B2*E6 + 37*A3*E4^3 + 35*A3*E6^2").scale(Fraction(7, 18))

P4 = GeneratorPolynomial.from_text(
    "126*A1^3*E4^4 - 414*A1^3*E4*E6^2 + 675*A1*A2*E4^2*E6^2 - 243*A1*A2*E4^5 "
    "- 1440*A1*B2*E6^3 - 251*A3*E4^3*E6^2 + 122*A3*E4^6 + 465*A3*E6^4 "
    "- 20*B3*E4^4*E6 + 980*B3*E4*E6^3").scale(Fraction(1, 864))

# The discriminant as a generator polynomial, for moving between quotient
# representations with different denominator powers.
DELTA_POLY = (GeneratorPolynomial.from_text("E4^3")
              - GeneratorPolynomial.from_text("E6^2")).scale(Fraction(1, 1728))

# Weak-form generators of small index: map weight -> (numerator, delta power).
# Dividing the numerator's expansion by Delta^power yields the generator.
WEAK_INDEX2 = {
    -4: (GeneratorPolynomial.from_text("A1^2 - A2*E4"), 1),
    -2: (GeneratorPolynomial.from_text("A2*E6 - B2*E4"), 1),
    0: (GeneratorPolynomial.from_text("A1^2*E4 - B2*E6"), 1),
}

WEAK_INDEX3 = {
    -8: (GeneratorPolynomial.from_text(
        "6*A1^3*E4 - 9*A1*A2*E4^2 + 3*A3*E4^3 - 10*A3*E6^2 "
        "+ 30*A1*B2*E6 - 20*B3*E4*E6"), 2),
    -6: (GeneratorPolynomial.from_text(
        "6*A1^3*E6 + 30*A1*B2*E4^2 - 9*A1*A2*E4*E6 "
        "- 20*B3*E4^3 - 7*A3*E4^2*E6"), 2),
    -4: (GeneratorPolynomial.from_text("A1*A2 - A3*E4"), 1),
    -2: (GeneratorPolynomial.from_text("A1*B2 - A3*E6"), 1),
    0: (GeneratorPolynomial.from_text("A1^3 - B3*E6"), 1),
}

NAMED_POLYNOMIALS = {"P165": P165, "Q185": Q185, "P1": P1, "P2": P2, "P3": P3, "P4": P4}

for _name, _poly in NAMED_POLYNOMIALS.items():
    assert _poly.is_bihomogeneous(), _name
assert (P165.weight, P165.index) == (16, 5) and len(P165.terms) == 6
assert (Q185.weight, Q185.index) == (18, 5) and len(Q185.terms) == 11
assert (P1.weight, P1.index) == (16, 2)
assert (P2.weight, P2.index) == (16, 2)
assert (P3.weight, P3.index) == (16, 3)
assert (P4.weight, P4.index) == (28, 3)


# -- expansion machinery ------------------------------------------------------

#: The one generator ring of the process: the deepest set built so far.  Every
#: request is cut from it, so truncated sets share its coefficient dicts,
#: which nothing may mutate.
_ring: dict[str, JacobiExpansion] = {}
#: Expansions of A/B monomials by exponent, at the deepest order requested.
#: Only the ring and the ring `_deepest` is building read or fill it: a body
#: is keyed by exponent alone, so any other ring gets bodies of its own.
_mono_cache: dict[Expo, JacobiExpansion] = {}

_STRIP = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B6")


def sakai_generators(trunc: int | None = None) -> dict[str, JacobiExpansion]:
    """All named generator expansions (plus B5HAT) at the given truncation."""
    if trunc is None:
        trunc = config.get_config().truncation
    assert trunc >= 1
    return {name: f.truncate(trunc) for name, f in _deepest(trunc).items()}


def _deepest(trunc: int) -> dict[str, JacobiExpansion]:
    """The ring itself, rebuilt first at `trunc` (at least 3: the B4 pinning
    reads q^2 data) if it is shallower.  Products read these forms, so each
    generator converts to the u-monomial basis once, for every truncation."""
    if not _ring or _ring["A1"].trunc < trunc:
        gens = _partial_generators(max(trunc, 3))
        gens["B4"] = pin_b4(gens, _mono_cache)[0]
        _ring.clear()
        _ring.update(gens)
    return _ring


def _partial_generators(trunc: int) -> dict[str, JacobiExpansion]:
    gens = {
        "E4": from_qseries(eisenstein(4, trunc), 4),
        "E6": from_qseries(eisenstein(6, trunc), 6),
        "A1": theta_e8(trunc),
        "A2": x_form(2, trunc),
        "A3": x_form(3, trunc),
        "A4": scale_z(theta_e8(trunc), 2),
        "A5": x_form(5, trunc),
        "B2": level_trace(2, trunc),
        "B3": level_trace(3, trunc),
        "B5HAT": level_trace(5, trunc),
        "B6": level_trace(6, trunc),
    }
    for name in ("A1", "A2", "A3", "A4", "A5"):
        if gens[name].coeff(0) != 1:
            raise ArithmeticError(f"{name} has constant term {gens[name].coeff(0)}, not 1")
    return gens


def _ab_expansion(ab: Expo, trunc: int, gens: dict[str, JacobiExpansion],
                  bodies: dict[Expo, JacobiExpansion]) -> JacobiExpansion:
    """Expansion of the monomial in A/B generators only (no E4/E6 part), cut
    from a body of `bodies` at least `trunc` deep or else built at `trunc`."""
    hit = bodies.get(ab)
    if hit is not None and hit.trunc >= trunc:
        return hit if hit.trunc == trunc else hit.truncate(trunc)
    if any(ab):
        name = next(n for n in _STRIP if ab[_GEN_POS[n] - 2])
        sub_ab = list(ab)
        sub_ab[_GEN_POS[name] - 2] -= 1
        out = multiply(_ab_expansion(tuple(sub_ab), trunc, gens, bodies), gens[name])
    else:
        out = from_qseries(QSeries.constant(1, trunc), 0)
    bodies[ab] = out
    return out


@lru_cache(maxsize=None)
def _eisenstein_power(a: int, b: int, trunc: int) -> QSeries:
    """E4^a * E6^b to `trunc` orders (shared: nothing may mutate it)."""
    return (eisenstein(4, trunc) ** a) * (eisenstein(6, trunc) ** b)


def restriction_at_zero(poly: GeneratorPolynomial, trunc: int) -> QSeries:
    """The value of `expand(poly)` at z = 0, read off the polynomial: every
    generator restricts to the Eisenstein series of its weight (A_i -> E4,
    B_j -> E6).  Summed over one denominator: E4^a * E6^b is integral."""
    den = lcm(*(c.denominator for c in poly.terms.values()))
    vals = [0] * trunc
    for expo, c in poly.terms.items():
        a = sum(e for e, w in zip(expo, GEN_WEIGHT) if w == 4)
        m = c.numerator * (den // c.denominator)
        for n, v in enumerate(_eisenstein_power(a, sum(expo) - a, trunc).coeffs):
            vals[n] += m * v.numerator
    return QSeries([Fraction(v, den) for v in vals], trunc)


def expand(poly: GeneratorPolynomial, trunc: int | None = None) -> JacobiExpansion:
    """Fourier expansion of a bihomogeneous generator polynomial."""
    if trunc is None:
        trunc = config.get_config().truncation
    return _expand(poly, trunc, _deepest(trunc), _mono_cache)


def _expand(poly: GeneratorPolynomial, trunc: int, gens: dict[str, JacobiExpansion],
            bodies: dict[Expo, JacobiExpansion]) -> JacobiExpansion:
    """`expand` over `gens`, at least `trunc` deep, reading and filling the
    monomial bodies `bodies` of that ring."""
    if gens["A1"].trunc < trunc:
        raise ArithmeticError(f"generator set of truncation {gens['A1'].trunc} "
                              f"is shorter than the requested {trunc}")
    if not poly.is_bihomogeneous():
        raise ValueError(f"expand requires a bihomogeneous polynomial, not {poly}")
    if poly.is_zero():
        return zero(0, 0, trunc)
    by_eisenstein: dict[tuple[int, int], list] = {}
    for expo, coeff in sorted(poly.terms.items()):
        by_eisenstein.setdefault(expo[:2], []).append(
            (coeff, _ab_expansion(expo[2:], trunc, gens, bodies)))
    parts = []
    for (a, b), terms in by_eisenstein.items():
        coeffs, forms = zip(*terms)
        part = forms[0] if coeffs == (1,) else combine(coeffs, forms)
        if a or b:
            part = mul_series(part, _eisenstein_power(a, b, trunc), weight_shift=4 * a + 6 * b)
        parts.append(part)
    out = parts[0] if len(parts) == 1 else combine([1] * len(parts), parts)
    if (out.weight, out.index) != (poly.weight, poly.index):
        raise ArithmeticError(f"expansion of bidegree {(out.weight, out.index)} "
                              f"for a polynomial of {(poly.weight, poly.index)}")
    return out


# -- B4 pinning ---------------------------------------------------------------

PIVOT_SCALE = 179712
_B4_SLOT = _GEN_POS["B4"]
#: The generators that the monomial bodies of P165 and Q185 multiply.
_PIVOT_GENS = tuple(n for n in _STRIP
                    if any(e[_GEN_POS[n]] for p in (P165, Q185) for e in p.terms))


def pivot_identity_residual(gens: dict[str, JacobiExpansion], trunc: int) -> JacobiExpansion:
    """E6*P165 + E4*Q185 - 179712*Delta*E4*B5HAT; zero iff the identity holds.

    `gens` shares the process ring's monomial bodies only if each generator
    they multiply equals the ring's; any other ring is expanded afresh."""
    same = bool(_ring) and all(
        gens[n].upolys == _ring[n].upolys[:gens[n].trunc] for n in _PIVOT_GENS)
    return _residual(gens, trunc, _mono_cache if same else {})


def _residual(gens: dict[str, JacobiExpansion], trunc: int,
              bodies: dict[Expo, JacobiExpansion]) -> JacobiExpansion:
    lhs = add(
        mul_series(_expand(P165, trunc, gens, bodies), eisenstein(6, trunc), weight_shift=6),
        mul_series(_expand(Q185, trunc, gens, bodies), eisenstein(4, trunc), weight_shift=4),
    )
    rhs = mul_series(
        gens["B5HAT"].truncate(trunc),
        (discriminant(trunc) * eisenstein(4, trunc)).scale(PIVOT_SCALE),
        weight_shift=16,
    )
    return sub(lhs, rhs)


def pin_b4(gens: dict[str, JacobiExpansion], bodies: dict[Expo, JacobiExpansion] | None = None,
           ) -> tuple[JacobiExpansion, Fraction, Fraction]:
    """Pin B4 = alpha * level_trace(4) + beta * V2(B2) on a ring without B4.

    `gens` holds every other generator, at truncation >= 3, as
    `sakai_generators` builds them; B4 is pinned at the same truncation.
    `bodies` holds the monomial bodies of this ring (`_deepest` passes the
    process cache for the ring it builds; by default they are fresh).
    Conditions: (i) restriction to z = 0 equals E6; since both candidates
    restrict to multiples of E6 (checked: the trace restricts to E6 and V2
    scales the restriction by 1 + 2^5 = 33), this reads alpha + 33*beta = 1.
    (ii) one probe coefficient of the weight-18 pivot identity, using that
    the identity's B4-dependence collapses to 103680 * Delta * A1 * B4
    because 60*A1*B4*(E6^2 - E4^3) = -103680 * Delta * A1 * B4.  The full
    identity is then verified to the working truncation; failure of
    uniqueness or of the identity is a hard error.
    """
    if bodies is None:
        bodies = {}
    trunc = gens["A1"].trunc
    lt4 = level_trace(4, trunc)
    vb2 = hecke_v(level_trace(2, 2 * trunc - 1), 2)
    if vb2.trunc < trunc:
        raise ArithmeticError(f"V2(B2) reaches truncation {vb2.trunc}, not {trunc}")
    vb2 = vb2.truncate(trunc)
    if eval_zero(lt4) != eisenstein(6, trunc):
        raise ArithmeticError("level_trace(4) does not restrict to E6 at z = 0")
    if eval_zero(vb2) != eisenstein(6, trunc).scale(33):
        raise ArithmeticError("V2(B2) does not restrict to 33*E6 at z = 0")

    probe_trunc = min(trunc, 3)
    p_nob4 = GeneratorPolynomial(
        {e: c for e, c in P165.terms.items() if not e[_B4_SLOT]})
    q_nob4 = GeneratorPolynomial(
        {e: c for e, c in Q185.terms.items() if not e[_B4_SLOT]})
    k_form = sub(
        add(
            mul_series(_expand(p_nob4, probe_trunc, gens, bodies),
                       eisenstein(6, probe_trunc), weight_shift=6),
            mul_series(_expand(q_nob4, probe_trunc, gens, bodies),
                       eisenstein(4, probe_trunc), weight_shift=4),
        ),
        mul_series(
            gens["B5HAT"].truncate(probe_trunc),
            (discriminant(probe_trunc) * eisenstein(4, probe_trunc)).scale(PIVOT_SCALE),
            weight_shift=16,
        ),
    )
    multiplier = mul_series(gens["A1"].truncate(probe_trunc),
                            discriminant(probe_trunc).scale(103680),
                            weight_shift=12)
    d1 = multiply(multiplier, lt4.truncate(probe_trunc))
    d2 = multiply(multiplier, vb2.truncate(probe_trunc))

    rows: list[list[Fraction]] = [[Fraction(1), Fraction(33)]]
    rhs: list[Fraction] = [Fraction(1)]
    for n in range(probe_trunc):
        support = sorted(set(d1.coeffs[n]) | set(d2.coeffs[n]) | set(k_form.coeffs[n]))
        for m in support:
            rows.append([d1.coeff(n, m), d2.coeff(n, m)])
            rhs.append(k_form.coeff(n, m))
    if linalg.rank(rows) != 2:
        raise ArithmeticError("B4 pinning system is degenerate")
    solution = linalg.solve(rows, rhs)
    if solution is None:
        raise ArithmeticError("B4 pinning system is inconsistent")
    alpha, beta = solution
    b4 = add(scale(lt4, alpha), scale(vb2, beta))

    gens_full = dict(gens)
    gens_full["B4"] = b4
    residual = _residual(gens_full, trunc, bodies)
    if not residual.is_zero():
        raise ArithmeticError("pivot identity fails for the pinned B4")
    return b4, alpha, beta


def reduction_obstruction_e4sq(trunc: int | None = None):
    """Check whether the z=0 reduction of P165 is divisible by E4^2.

    The reduction lies in weight 16; divisibility by E4^2 would force the
    weight-8 quotient to be a multiple of E4^2 (the full weight-8 space).
    Returns (divisible, witness) where witness names the first failing
    q-order with both coefficient values.
    """
    if trunc is None:
        trunc = config.get_config().truncation
    reduction = eval_zero(expand(P165, trunc))
    e4 = eisenstein(4, trunc)
    quotient = reduction / (e4 * e4)
    candidate = (e4 * e4).scale(quotient.coeffs[0])
    for n in range(trunc):
        if quotient.coeffs[n] != candidate.coeffs[n]:
            return False, (n, quotient.coeffs[n], candidate.coeffs[n])
    return True, None
