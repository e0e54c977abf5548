"""Truncated Fourier expansions of W(E8)-invariant Jacobi forms.

A JacobiExpansion stores, for each q-order n < trunc, the coefficient as a
W-invariant function of the elliptic variables, in one or both of two bases:
a polynomial in the fundamental orbit sums u_1..u_8 (the u-monomial basis,
where the engine multiplies, divides and combines forms), or a map
{dominant weight -> Fraction} (the public orbit-sum basis, for conditions
that name an orbit, for payloads and for display).  Each is materialized
lazily from the other and interconverted exactly; `combine` sums many forms
in one pass.

In the u-monomial basis a q-order is one positive denominator over int
numerators (`orbitalg.UPoly`), kept canonical, so `multiply`, `mul_series`,
`combine` and the divisions by E4 and Delta run on ints alone; the
denominators live in `_den` beside the numerator dicts in `_upoly`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import orbitalg as oa
from .config import TruncationError
from .lattice import ZERO, dominant_by_norm, norm, orbit_size, orbit_vectors, sigma, t_degree
from .qseries import QSeries, discriminant, eisenstein

OrbitDict = dict[tuple[int, ...], Fraction]
UPoly = oa.UPoly


class JacobiExpansion:
    __slots__ = ("weight", "index", "trunc", "holomorphic", "_orbit", "_upoly", "_den")

    def __init__(self, weight: int, index: int, trunc: int, *,
                 orbit: list[OrbitDict] | None = None,
                 upoly: list[UPoly] | None = None,
                 holomorphic: bool = False):
        if weight % 2 or index < 0 or trunc < 1:
            raise ValueError(f"no invariant expansion of weight {weight}, index {index}, "
                             f"truncation {trunc}")
        for rep in (orbit, upoly):
            if rep is not None and len(rep) != trunc:
                raise ValueError(f"{len(rep)} q-orders given for truncation {trunc}")
        if orbit is None and upoly is None:
            raise ValueError("an expansion needs its orbit or its u-monomial coefficients")
        self.weight = weight
        self.index = index
        self.trunc = trunc
        self.holomorphic = holomorphic
        self._orbit = orbit
        self._upoly = self._den = None
        if upoly is not None:
            self._den = [den for den, _ in upoly]
            self._upoly = [nums for _, nums in upoly]

    # -- representations ----------------------------------------------------

    @property
    def coeffs(self) -> list[OrbitDict]:
        if self._orbit is None:
            self._orbit = [oa.upoly_to_orbit_dict(p) for p in self.upolys]
        return self._orbit

    @property
    def upolys(self) -> list[UPoly]:
        """The canonical (denominator, numerators) pair of each q-order."""
        if self._upoly is None:
            ups = [oa.orbit_dict_to_upoly(d) for d in self._orbit]
            self._den = [den for den, _ in ups]
            self._upoly = [nums for _, nums in ups]
        return list(zip(self._den, self._upoly))

    def coeff(self, n: int, m=ZERO) -> Fraction:
        if not 0 <= n < self.trunc:
            raise IndexError(f"order q^{n} beyond truncation {self.trunc}")
        return Fraction(self.coeffs[n].get(tuple(m), 0))

    def truncate(self, trunc: int) -> "JacobiExpansion":
        if trunc > self.trunc:
            raise ValueError(f"cannot extend truncation {self.trunc} to {trunc}")
        return JacobiExpansion(
            self.weight, self.index, trunc,
            orbit=None if self._orbit is None else self._orbit[:trunc],
            upoly=None if self._upoly is None else self.upolys[:trunc],
            holomorphic=self.holomorphic)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JacobiExpansion):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        if (self.weight, self.index) != (other.weight, other.index):
            return False
        if self._upoly is not None and other._upoly is not None:
            return self.upolys[:n] == other.upolys[:n]   # canonical pairs
        a, b = self.coeffs, other.coeffs
        return all(a[i] == b[i] for i in range(n))

    def is_zero(self) -> bool:
        rep = self._upoly if self._upoly is not None else self._orbit
        return all(not d for d in rep)

    def __repr__(self):
        return (f"JacobiExpansion(weight={self.weight}, index={self.index}, "
                f"orders<{self.trunc}, {'holo' if self.holomorphic else 'weak'})")

    # -- display ------------------------------------------------------------

    def term_str(self, n: int) -> str:
        d = self.coeffs[n]
        if not d:
            return "0"
        parts = []
        for m in sorted(d, key=lambda m: (norm(m), m)):
            c = d[m]
            if m == ZERO:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{orbit_symbol(m)}" if c != 1 else orbit_symbol(m))
        return " + ".join(parts)


@lru_cache(maxsize=None)
def orbit_symbol(m: tuple[int, ...]) -> str:
    """Display symbol O_{a,size}^{[coords]} for the orbit of a dominant weight.

    The label a = (m, m)/2 is half the squared norm: for an index-1 holomorphic
    form the orbit of label a first contributes at order q^a.
    """
    coords = "".join(map(str, m)) if max(m) <= 9 else ",".join(map(str, m))
    return f"O_{{{norm(m) // 2},{orbit_size(tuple(m))}}}^{{[{coords}]}}"


# -- constructors -----------------------------------------------------------

def zero(weight: int, index: int, trunc: int) -> JacobiExpansion:
    return JacobiExpansion(weight, index, trunc,
                           upoly=[(1, {}) for _ in range(trunc)], holomorphic=True)


def from_qseries(f: QSeries, weight: int, index: int = 0) -> JacobiExpansion:
    return JacobiExpansion(
        weight, index, f.trunc,
        upoly=[(c.denominator, {oa.KEY_ONE: c.numerator} if c else {}) for c in f.coeffs],
        holomorphic=True)


def theta_e8(trunc: int) -> JacobiExpansion:
    """Lattice theta series: weight 4, index 1; q^n-term sums the norm-2n shell."""
    orbit = [dict.fromkeys(dominant_by_norm(n), Fraction(1)) for n in range(trunc)]
    return JacobiExpansion(4, 1, trunc, orbit=orbit, holomorphic=True)


# -- linear structure -------------------------------------------------------

def _check_like(forms) -> None:
    if len({(f.weight, f.index) for f in forms}) > 1:
        raise ValueError("can only add like forms")


def add(f: JacobiExpansion, g: JacobiExpansion, cf=1, cg=1) -> JacobiExpansion:
    _check_like((f, g))
    trunc = min(f.trunc, g.trunc)
    cf, cg = Fraction(cf), Fraction(cg)
    if f._orbit is not None and g._orbit is not None:
        out: list[OrbitDict] = []
        for n in range(trunc):
            d: OrbitDict = {}
            for src, c in ((f._orbit[n], cf), (g._orbit[n], cg)):
                for m, v in src.items():
                    w = d.get(m, 0) + c * v
                    if w:
                        d[m] = w
                    else:
                        d.pop(m, None)
            out.append(d)
        return JacobiExpansion(f.weight, f.index, trunc, orbit=out,
                               holomorphic=f.holomorphic and g.holomorphic)
    fu, gu = f.upolys, g.upolys
    return JacobiExpansion(f.weight, f.index, trunc,
                           upoly=[oa.lincomb(((cf, fu[n]), (cg, gu[n]))) for n in range(trunc)],
                           holomorphic=f.holomorphic and g.holomorphic)


def combine(coeffs, forms: list[JacobiExpansion]) -> JacobiExpansion:
    """The linear combination sum c*f of like forms, in the u-monomial basis."""
    terms = [(c, f) for c, f in zip(coeffs, forms) if c]
    like = forms[0]
    _check_like([like] + [f for _, f in terms])
    trunc = min(f.trunc for f in forms)
    ups = [f.upolys for _, f in terms]
    out = [oa.lincomb((c, u[n]) for (c, _), u in zip(terms, ups)) for n in range(trunc)]
    return JacobiExpansion(like.weight, like.index, trunc, upoly=out,
                           holomorphic=all(f.holomorphic for _, f in terms))


def sub(f: JacobiExpansion, g: JacobiExpansion) -> JacobiExpansion:
    return add(f, g, 1, -1)


def scale(f: JacobiExpansion, c) -> JacobiExpansion:
    c = Fraction(c)
    if f._orbit is not None:
        return JacobiExpansion(
            f.weight, f.index, f.trunc,
            orbit=[{m: c * v for m, v in d.items() if c * v} for d in f._orbit],
            holomorphic=f.holomorphic)
    return JacobiExpansion(
        f.weight, f.index, f.trunc,
        upoly=[oa.lincomb(((c, p),)) for p in f.upolys],
        holomorphic=f.holomorphic)


# -- multiplicative structure ----------------------------------------------

def multiply(f: JacobiExpansion, g: JacobiExpansion) -> JacobiExpansion:
    """Product of two expansions; weights and indices add.

    Order n sums the pairs (i, n - i), each a product of integer numerators
    over den_f[i] * den_g[n - i], scaled to the lcm of those denominators."""
    trunc = min(f.trunc, g.trunc)
    fu, gu = f.upolys[:trunc], g.upolys[:trunc]
    oa.check_product((k for _, p in fu for k in p), (k for _, p in gu for k in p))
    out: list[UPoly] = []
    for n in range(trunc):
        pairs = [(fu[i], gu[n - i]) for i in range(n + 1) if fu[i][1] and gu[n - i][1]]
        den = lcm(*(da * db for (da, _), (db, _) in pairs))
        acc: dict[int, int] = {}
        get = acc.get
        for (da, a), (db, b) in pairs:
            m = den // (da * db)
            if len(a) > len(b):
                a, b = b, a
            for ka, ca in a.items():
                ca *= m
                for kb, cb in b.items():
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
        out.append(oa.canonical(den, {k: v for k, v in acc.items() if v}))
    return JacobiExpansion(f.weight + g.weight, f.index + g.index, trunc,
                           upoly=out, holomorphic=f.holomorphic and g.holomorphic)


def mul_series(f: JacobiExpansion, s: QSeries, weight_shift: int | None = None) -> JacobiExpansion:
    """Multiply by an index-0 q-series (e.g. E4, E6, Delta powers)."""
    trunc = min(f.trunc, s.trunc)
    fu = f.upolys
    out = [oa.lincomb((s.coeffs[n - j], fu[j]) for j in range(n + 1)) for n in range(trunc)]
    if weight_shift is None:
        weight_shift = 0
    return JacobiExpansion(f.weight + weight_shift, f.index, trunc,
                           upoly=out, holomorphic=f.holomorphic)


class DivisionError(ValueError):
    pass


def div_delta(f: JacobiExpansion, n0: int) -> JacobiExpansion:
    """Divide by Delta^n0: requires the first n0 q-orders to vanish identically."""
    ups = f.upolys
    for n in range(min(n0, f.trunc)):
        if ups[n][1]:
            bad = oa.upoly_to_orbit_dict(ups[n])
            m = min(bad, key=lambda m: (norm(m), m))
            raise DivisionError(
                f"not divisible by Delta^{n0}: q^{n} has coefficient "
                f"{bad[m]} at orbit {orbit_symbol(m)}")
    trunc = f.trunc - n0
    if trunc < 1:
        raise TruncationError(f"dividing by Delta^{n0} needs truncation > {n0}, "
                              f"got {f.trunc}: exhausted by the Delta shift")
    g = JacobiExpansion(f.weight - 12 * n0, f.index, trunc, upoly=ups[n0:])
    if not n0:
        return g
    # remaining unit factor: (Delta/q)^n0, channel-wise division
    return _div_unit_series(g, _delta_over_q_power(n0, f.trunc))


@lru_cache(maxsize=None)
def _delta_over_q_power(n0: int, trunc: int) -> QSeries:
    """(Delta/q)^n0 to trunc - 1 orders (shared: nothing may mutate it)."""
    return QSeries(discriminant(trunc).coeffs[1:]) ** n0


def div_e4(f: JacobiExpansion) -> JacobiExpansion:
    """Exact channel-wise division by E4 (unit constant term)."""
    return _div_unit_series(
        JacobiExpansion(f.weight - 4, f.index, f.trunc, upoly=f.upolys,
                        holomorphic=False),
        eisenstein(4, f.trunc))


def _div_unit_series(f: JacobiExpansion, s: QSeries) -> JacobiExpansion:
    """f / s for a series s with nonzero constant term: order n of the quotient
    is (f[n] - sum_j s_j out[n - j]) / s_0, one `lincomb`.  For the integral
    s with s_0 = 1 met in practice, no denominator beyond f's arises."""
    lead = s.coeffs[0]
    if not lead:
        raise DivisionError("division by a q-series with zero constant term")
    trunc = min(f.trunc, s.trunc)
    fu = f.upolys
    inv = 1 / lead
    cs = [-c * inv for c in s.coeffs[:trunc]]
    out: list[UPoly] = []
    for n in range(trunc):
        out.append(oa.lincomb([(inv, fu[n])] + [(cs[j], out[n - j]) for j in range(1, n + 1)]))
    return JacobiExpansion(f.weight, f.index, trunc, upoly=out)


def power(f: JacobiExpansion, e: int) -> JacobiExpansion:
    assert e >= 0
    if e == 0:
        return from_qseries(QSeries.constant(1, f.trunc), 0, 0)
    out = f
    for _ in range(e - 1):
        out = multiply(out, f)
    return out


# -- evaluations and checks -------------------------------------------------

def eval_zero(f: JacobiExpansion) -> QSeries:
    """Restrict the elliptic variables to zero: orb(m) -> |W m|."""
    if f._orbit is not None:
        vals = []
        for d in f._orbit:
            den = lcm(*(c.denominator for c in d.values()))
            vals.append(Fraction(sum(c.numerator * (den // c.denominator) * orbit_size(m)
                                     for m, c in d.items()), den))
    else:
        vals = [oa.upoly_eval_sizes(p) for p in f.upolys]
    return QSeries(vals, f.trunc)


def check_support(f: JacobiExpansion):
    """Scan for coefficients outside the holomorphic support cone.

    Returns (True, None) if every stored coefficient satisfies
    (m, m) <= 2*n*index, else (False, (n, m, coefficient)) for the first
    violation in (n, norm, m) order.
    """
    for n, d in enumerate(f.coeffs):
        bad = [m for m in d if norm(m) > 2 * n * f.index]
        if bad:
            m = min(bad, key=lambda m: (norm(m), m))
            return False, (n, m, d[m])
    return True, None


def scale_z(f: JacobiExpansion, a: int) -> JacobiExpansion:
    """Substitute z -> a z: index multiplies by a^2, orbits dilate by a."""
    assert a >= 1
    if a == 1:
        return f
    orbit = [{tuple(a * v for v in m): c for m, c in d.items()} for d in f.coeffs]
    return JacobiExpansion(f.weight, f.index * a * a, f.trunc, orbit=orbit,
                           holomorphic=f.holomorphic)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def hecke_v(f: JacobiExpansion, m: int) -> JacobiExpansion:
    """Index-raising Hecke operator V_m.

    For input of weight k: c'(n, l) = sum over a | gcd(n, m) with l/a in the
    lattice of a^(k-1) * c(n m / a^2, l / a).  Verified constructions exist for
    index-1 and index-2 inputs only; anything else is rejected.
    """
    if f.index not in (1, 2):
        raise ValueError(f"hecke_v is only supported for index-1/2 inputs, got index {f.index}")
    assert m >= 1
    if m == 1:
        return f
    k = f.weight
    trunc_out = (f.trunc - 1) // m + 1
    coeffs = f.coeffs
    orbit: list[OrbitDict] = []
    for n in range(trunc_out):
        d: OrbitDict = {}
        for a in _divisors(m):
            if n % a:
                continue
            n2 = n * m // (a * a)
            assert (n * m) % (a * a) == 0
            if n2 >= f.trunc:
                raise ValueError("input truncation too short for hecke_v")
            for x, c in coeffs[n2].items():
                y = tuple(a * v for v in x)
                w = d.get(y, 0) + a ** (k - 1) * c
                if w:
                    d[y] = w
                else:
                    d.pop(y, None)
        orbit.append(d)
    return JacobiExpansion(k, f.index * m, trunc_out, orbit=orbit,
                           holomorphic=f.holomorphic)


def x_form(t: int, trunc: int) -> JacobiExpansion:
    """X_t := V_t(theta)/sigma_3(t), normalized to constant term 1."""
    theta = theta_e8(trunc * t - t + 1)
    return scale(hecke_v(theta, t), Fraction(1, sigma(t, 3)))


# -- level trace ------------------------------------------------------------

def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def _ramanujan_sum(g: int, mu: int) -> int:
    """Sum of e^(2 pi i b mu / g) over units b mod g."""
    total = 0
    for d in _divisors(g):
        if mu % d == 0:
            total += d * _mobius(g // d)
    return total


def level_trace(t: int, trunc: int) -> JacobiExpansion:
    """Weight-6 index-t holomorphic form from the level-t coset trace.

    Sums D^-4 * g_{A,B,D}(tau) * theta((A tau + B)/D, A z) over factorizations
    A*D = t, 0 <= B < D, gcd(A, B, D) = 1, with
    g_{A,B,D} = [(t/D^2) E2((A tau + B)/D) - E2(tau)] / (t - 1).
    The B-sums collapse to Ramanujan sums, so only integral q-powers ever
    appear and all arithmetic stays rational.  Normalized so the restriction
    to z = 0 equals E6 exactly (proportionality is asserted, not assumed).
    """
    if t not in (2, 3, 4, 5, 6):
        raise ValueError(f"level_trace supports t in 2..6, got {t}")
    e2 = eisenstein(2, max(trunc, trunc * t))
    acc: list[OrbitDict] = [{} for _ in range(trunc)]

    def put(n: int, x: tuple[int, ...], c: Fraction) -> None:
        d = acc[n]
        w = d.get(x, 0) + c
        if w:
            d[x] = w
        else:
            d.pop(x, None)

    for d_ in _divisors(t):
        D, A = d_, t // d_
        g = gcd(A, D)
        q = D // g  # only q | nu survives the B-sum
        base = Fraction(1, D ** 4 * (t - 1))
        a_over_g = A // g  # integral since g | A
        # The B-sum kills q^(nu/D)-coefficients unless (D/g) | nu, and for
        # nu = (D/g)*mu the surviving power n = nu*A/D = mu*A/g is always an
        # integer — fractional q-powers are impossible by construction.
        # term 1: (t/D^2) E2((A tau + B)/D) theta(...); nu = j + h, n = nu A / D
        pref1 = base * Fraction(t, D * D)
        for mu in range((trunc - 1) // a_over_g + 1):
            n = mu * a_over_g
            nu = q * mu
            s = q * _ramanujan_sum(g, mu)
            if not s:
                continue
            for h in range(nu + 1):
                c = pref1 * e2[nu - h] * s
                if not c:
                    continue
                for x in dominant_by_norm(h):
                    put(n, tuple(A * v for v in x), c)
        # term 2: -E2(tau) theta(...); nu = h = q*mu, n = j + mu A / g
        for muh in range((trunc - 1) // a_over_g + 1):
            nmin = muh * a_over_g
            s = q * _ramanujan_sum(g, muh)
            if not s:
                continue
            shells = dominant_by_norm(q * muh)
            for j in range(trunc - nmin):
                c = -base * e2[j] * s
                if not c:
                    continue
                for x in shells:
                    put(nmin + j, tuple(A * v for v in x), c)

    raw = JacobiExpansion(6, t, trunc, orbit=acc, holomorphic=True)
    ez = eval_zero(raw)
    if not ez[0]:
        raise ArithmeticError(f"level_trace({t}) has vanishing constant term")
    target = eisenstein(6, trunc)
    scaled = ez.scale(1 / ez[0])
    if scaled != target:
        raise ArithmeticError(f"level_trace({t}) restriction is not proportional to E6")
    return scale(raw, 1 / ez[0])


# -- quasi-periodicity ------------------------------------------------------

def quasi_periodicity_violations(f: JacobiExpansion, max_orbit: int = 250_000):
    """Explicit search for stored coefficient pairs breaking quasi-periodicity.

    Two cells (n1, m1), (n2, m2) with equal discriminant 2 n t - (m, m) whose
    orbits meet the same residue class mod t*E8 must carry equal coefficients.
    Returns the list of violating pairs (empty = consistent).
    """
    t = f.index
    if t == 0:
        return []
    import numpy as np

    cells = []
    for n, d in enumerate(f.coeffs):
        for m, c in d.items():
            cells.append((2 * n * t - norm(m), n, m, c))
    residues: dict[tuple[int, tuple[int, ...]], "np.ndarray"] = {}

    def residue_keys(m):
        key = (t, m)
        if key not in residues:
            if orbit_size(m) > max_orbit:
                residues[key] = None
            else:
                from .lattice import encode

                arr = orbit_vectors(m) % t
                residues[key] = np.unique(encode(arr))
        return residues[key]

    bad = []
    for i in range(len(cells)):
        di, ni, mi, ci = cells[i]
        for j in range(i + 1, len(cells)):
            dj, nj, mj, cj = cells[j]
            if di != dj or ci == cj:
                continue
            ri, rj = residue_keys(mi), residue_keys(mj)
            if ri is None or rj is None:
                continue
            if len(np.intersect1d(ri, rj, assume_unique=True)):
                bad.append(((ni, mi, ci), (nj, mj, cj)))
    return bad


# -- serialization ----------------------------------------------------------

@lru_cache(maxsize=None)
def _key_text(m: tuple[int, ...]) -> str:
    """Payload text "a,b,..." of an orbit key."""
    return ",".join(map(str, m))


@lru_cache(maxsize=None)
def _text_key(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def to_payload(f: JacobiExpansion) -> dict:
    """JSON-ready form of `f`; whoever dumps it sorts the keys."""
    return {
        "weight": f.weight,
        "index": f.index,
        "truncation": f.trunc,
        "holomorphic": f.holomorphic,
        "coeffs": [
            {_key_text(m): [str(c.numerator), str(c.denominator)] for m, c in d.items()}
            for d in f.coeffs
        ],
    }


def from_payload(payload: dict) -> JacobiExpansion:
    orbit = [
        {_text_key(key): Fraction(int(num), int(den)) for key, (num, den) in d.items()}
        for d in payload["coeffs"]
    ]
    if len(orbit) != payload["truncation"]:
        raise ValueError(f"payload has {len(orbit)} q-orders, truncation {payload['truncation']}")
    return JacobiExpansion(payload["weight"], payload["index"], payload["truncation"],
                           orbit=orbit, holomorphic=payload["holomorphic"])
