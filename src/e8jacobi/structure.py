"""Structure of the bigraded module of weak invariant Jacobi expansions.

The weak forms of fixed lattice index t form a free module of rank r(t) over
the ring generated by the two Eisenstein series.  Everything here rests on one
representation: a weak form of weight k and index t is a quotient

    sum_j  P_j * E4^j * P165^(t1-j)   over   Delta^N * E4^t1,

with t1 = t // 5, N = n_cap(t), and one unknown bihomogeneous polynomial P_j
in the basic forms per slot j (the top slot may use E4; the lower slots may
not, which is what makes the representation unique).  The numerator must
vanish to order N in q; that single linear condition system yields bases
(`weak_basis`), minimal weights (`min_weight`), module generators and their
counting polynomial (`module_generators`, `gen_series`), dimensions of the
holomorphic subspaces (`holo_dim`), the weight-4 singular spaces
(`singular_solve`), and the numerical-evidence report (`conjecture_report`).
Each function takes a truncation only: the columns are expanded by
`genring.expand`, which serves every truncation from the one generator ring.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from random import Random

from . import config, linalg
from . import orbitalg as oa
from .expansion import (JacobiExpansion, _div_unit_series, add, combine,
                        div_delta, div_e4, x_form)
from .genring import GEN_ORDER, GeneratorPolynomial, P165, expand, monomials
from .lattice import (FUNDAMENTAL, ZERO, dominant_by_T, dominant_by_norm,
                      max_norm_by_T, max_pairing, norm, orbit_size, shell)
from .qseries import QSeries, discriminant, eisenstein


TruncationError = config.TruncationError


_NGEN = len(GEN_ORDER)
_E4_MONO = GeneratorPolynomial.monomial((1,) + (0,) * (_NGEN - 1))
_E6_MONO = GeneratorPolynomial.monomial((0, 1) + (0,) * (_NGEN - 2))

#: index degrees (with multiplicity) of the nine basic forms
_INDEX_DEGREES = ((1, 1), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1))


# -- elementary counting ------------------------------------------------------

def _check_index(t: int) -> None:
    if t < 1:
        raise ValueError(f"lattice index must be >= 1, not {t}")


def rank_r(t_max: int) -> list[int]:
    """Ranks r(0..t_max) of the index-graded free modules of weak forms.

    Taylor coefficients of the reciprocal of
    (1-x)(1-x^2)^2(1-x^3)^2(1-x^4)^2(1-x^5)(1-x^6): the number of monomials
    of total lattice index t in the nine basic forms.
    """
    if t_max < 0:
        raise ValueError(f"largest index must be >= 0, not {t_max}")
    denom = [0] * (t_max + 1)
    denom[0] = 1
    for d, mult in _INDEX_DEGREES:
        for _ in range(mult):
            for n in range(t_max, d - 1, -1):
                denom[n] -= denom[n - d]
    out = [0] * (t_max + 1)
    out[0] = 1
    for n in range(1, t_max + 1):
        out[n] = -sum(denom[j] * out[n - j] for j in range(1, n + 1))
    return out


def delta_t(t: int) -> int:
    """Count of obstruction channels separating weak from holomorphic forms.

    Sums ceil((x,x)/2t) over the nonzero dominant weights x with T(x) <= t:
    the number of coefficient conditions a weak form of index t must satisfy
    to be holomorphic (for weights >= 6 they are independent).
    """
    _check_index(t)
    return sum(-(-norm(x) // (2 * t)) for x in dominant_by_T(t) if x != ZERO)


def t1(t: int) -> int:
    """Number of E4 factors cleared from the denominator: floor(t/5)."""
    _check_index(t)
    return t // 5


def n_cap(t: int) -> int:
    """Power N_t of the cusp form in the canonical denominator."""
    _check_index(t)
    t0, r = divmod(t, 6)
    return 5 * t0 + (0, 0, 1, 2, 3, 3)[r]


def weak_trunc(t: int) -> int:
    """Least truncation of a weak basis at index t: the numerator over
    Delta^N vanishes to q^N, N = n_cap(t), so orders q^0..q^N are read."""
    return n_cap(t) + 1


def m_cap(t: int) -> int:
    """Number of q-orders that determine a singular form of index t.

    The ceiling of (x,x)/2t over dominant x with T(x) <= t: past this order a
    singular-support expansion carries no further free coefficients.
    """
    _check_index(t)
    return -(-max_norm_by_T(t) // (2 * t))


def _reduced_delta_power(t: int) -> int:
    """The reduced cusp-form power D = N_t - 1 of the singular ansatz."""
    return max(n_cap(t) - 1, 0)


def singular_trunc(t: int, delta_power: int | None = None) -> int:
    """Least truncation of the singular solve at index t over Delta^D: the
    principal part and the determining orders, D + m_cap(t), and at least the
    q^1-term of the quotient, D + 2."""
    D = _reduced_delta_power(t) if delta_power is None else delta_power
    return max(D + m_cap(t), D + 2)


def orbit_count_norm(t: int) -> int:
    """N(t): number of Weyl orbits of lattice vectors with (v,v) = 2t."""
    return len(dominant_by_norm(t))


def obstruction_channels(t: int) -> list[tuple[int, tuple[int, ...]]]:
    """The delta_t(t) coefficient channels (n, x) obstructing holomorphy.

    A weak form of index t is holomorphic iff its coefficient vanishes on
    every channel: nonzero dominant x with T(x) <= t at orders
    n < ceil((x,x)/2t).
    """
    out = []
    for x in dominant_by_T(t):
        if x == ZERO:
            continue
        for n in range(-(-norm(x) // (2 * t))):
            out.append((n, x))
    if len(out) != delta_t(t):
        raise ArithmeticError(f"{len(out)} obstruction channels at index {t}, "
                              f"not delta_t = {delta_t(t)}")
    return out


def pairing_values() -> list[int]:
    """Max pairing of each fundamental-weight orbit against a norm-4 vector.

    The norm-4 shell is a single Weyl orbit, so the eight values do not
    depend on which shell vector is chosen.
    """
    v = tuple(int(c) for c in shell(2)[0])
    return [max_pairing(w, v) for w in FUNDAMENTAL]


def _orbit_key(m):
    return (norm(m), m)


# -- the common ansatz --------------------------------------------------------

@dataclass(frozen=True)
class SlotSpec:
    """One unknown polynomial slot of the quotient representation."""
    j: int                     # E4-power carried by this slot's clearing factor
    weight: int                # weight of the unknown polynomial
    index: int                 # lattice index of the unknown polynomial
    allow_e4: bool             # only the top slot may contain E4
    expos: tuple[tuple[int, ...], ...]   # admissible monomial exponents


def _slot_specs(k: int, t: int, dpow: int) -> list[SlotSpec]:
    """Slot layout for weight k, index t over Delta^dpow * E4^t1."""
    top = t1(t)
    specs = []
    for j in range(top + 1):
        w = k + 12 * dpow - 12 * top + 12 * j
        idx = t - 5 * (top - j)
        allow = j == top
        specs.append(SlotSpec(j, w, idx, allow,
                              tuple(monomials(w, idx, allow_e4=allow))))
    return specs


def _column_forms(specs: list[SlotSpec], trunc: int) -> tuple[
        list[tuple[int, tuple[int, ...]]], list[JacobiExpansion]]:
    """Numerator expansion of every admissible monomial, slot by slot.

    The column for monomial m in slot j is the expansion of
    m * E4^j * P165^(top-j); all columns share one bidegree.
    """
    top = specs[-1].j
    p165_pow: dict[int, GeneratorPolynomial] = {}
    cols: list[tuple[int, tuple[int, ...]]] = []
    forms: list[JacobiExpansion] = []
    for s in specs:
        p = top - s.j
        if p not in p165_pow:
            p165_pow[p] = P165 ** p
        e4_part = GeneratorPolynomial.monomial(
            (s.j,) + (0,) * (_NGEN - 1))
        factor = p165_pow[p] * e4_part
        for expo in s.expos:
            poly = GeneratorPolynomial.monomial(expo) * factor
            forms.append(expand(poly, trunc))
            cols.append((s.j, expo))
    return cols, forms


@dataclass
class WeakSpace:
    """Basis of the weak forms of one bidegree, with polynomial certificates.

    Kernel vectors live over `columns`; each maps to a tuple of slot
    polynomials (`certificate`) and, through exact division by the cleared
    denominator, to a weak expansion (`form`).
    """
    weight: int
    index: int
    n_power: int
    trunc: int
    slots: list[SlotSpec]
    columns: list[tuple[int, tuple[int, ...]]]
    kernel: list[tuple]
    column_expansions: list[JacobiExpansion] | None
    _colindex: dict | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.kernel)

    def column_index(self) -> dict[tuple[int, tuple[int, ...]], int]:
        if self._colindex is None:
            self._colindex = {c: i for i, c in enumerate(self.columns)}
        return self._colindex

    def certificate(self, vec) -> list[GeneratorPolynomial]:
        """Slot polynomials P_0..P_t1 of a kernel-span vector."""
        per_slot: list[dict] = [{} for _ in self.slots]
        for c, (j, expo) in zip(vec, self.columns):
            if c:
                per_slot[j][expo] = Fraction(c)
        return [GeneratorPolynomial(d) for d in per_slot]

    def numerator(self, vec) -> JacobiExpansion:
        if self.column_expansions is None:
            raise ArithmeticError("column expansions were released; rebuild the space")
        return combine(vec, self.column_expansions)

    def form(self, vec) -> JacobiExpansion:
        """The weak expansion of a kernel-span vector (exact division)."""
        f = div_delta(self.numerator(vec), self.n_power)
        for _ in range(self.slots[-1].j):
            f = div_e4(f)
        if (f.weight, f.index) != (self.weight, self.index):
            raise ArithmeticError(f"weak form of bidegree {(f.weight, f.index)} in the "
                                  f"space of bidegree {(self.weight, self.index)}")
        return f

    def basis_forms(self) -> list[JacobiExpansion]:
        return [self.form(v) for v in self.kernel]

    def release(self) -> None:
        """Drop the column expansions (keep certificates and dimensions)."""
        self.column_expansions = None


def _upoly_rows(layer: list[oa.UPoly]) -> list[list[int]]:
    """One integer row per u-monomial of the q-order `layer` (one u-polynomial
    per column): its coefficients times the lcm of the layer's denominators,
    a positive multiple of the rational row, with the same kernel."""
    den = lcm(*(d for d, _ in layer))
    scaled = [(nums, den // d) for d, nums in layer]
    return [[nums.get(key, 0) * m for nums, m in scaled]
            for key in sorted({key for _, nums in layer for key in nums})]


def weak_basis(k: int, t: int, trunc: int | None = None,
               shuffle: Random | None = None) -> WeakSpace:
    """Basis of the weak forms of weight k and lattice index t.

    Builds the constraint system "numerator vanishes to q-order N" over the
    admissible slot monomials and returns its kernel with certificates.  The
    rows are the u-monomial coefficients: at each q-order the change to the
    orbit basis is invertible, so the row space, and with it the canonical
    kernel, is the same in either basis.
    `shuffle` permutes the internal column/row order — the computed space is
    unchanged (property tests).
    """
    _check_index(t)
    if trunc is None:
        trunc = config.get_config().truncation
    N = n_cap(t)
    if trunc < (need := weak_trunc(t)):
        raise TruncationError(
            f"weak basis at index {t} needs series order >= {need} "
            f"(numerator vanishing to q^{N}); configured {trunc}")
    specs = _slot_specs(k, t, N)
    cols, forms = _column_forms(specs, trunc)
    ups = [f.upolys for f in forms]
    rows = []
    for n in range(N):
        rows += _upoly_rows([u[n] for u in ups])
    perm = None
    if shuffle is not None and cols:
        perm = list(range(len(cols)))
        shuffle.shuffle(perm)
        rows = [[row[p] for p in perm] for row in rows]
        shuffle.shuffle(rows)
    kernel = linalg.kernel_basis(rows, len(cols)) if cols else []
    if perm is not None:
        restored = []
        for vec in kernel:
            out = [Fraction(0)] * len(cols)
            for i, p in enumerate(perm):
                out[p] = vec[i]
            restored.append(tuple(out))
        kernel = [tuple(v) for v in
                  linalg.rref(restored, len(cols))] if restored else []
    return WeakSpace(k, t, N, trunc, specs, cols, list(kernel), forms)


def min_weight(t: int, trunc: int | None = None) -> int:
    """Minimal weight carrying a nonzero weak form of index t.

    Descends from weight 4 (never empty) and stops after two consecutive
    trivial kernels: a nonzero space at weight k forces nonzero spaces at
    every even weight >= k+4 via the Eisenstein action, so two consecutive
    zeros certify that everything below is zero.
    """
    k = 4
    last = None
    consecutive = 0
    while True:
        if weak_basis(k, t, trunc).dim:
            last, consecutive = k, 0
        else:
            consecutive += 1
            if consecutive == 2:
                if last is None:
                    raise ArithmeticError(f"no weak forms of index {t} at weights 4 and 2")
                return last
        k -= 2
        if k < -5 * t - 8:
            raise ArithmeticError("scan descended past the prior weight bound")


# -- module generators --------------------------------------------------------

@dataclass
class Generator:
    """One module generator: weight, slot certificate, and expansion."""
    weight: int
    certificate: list[GeneratorPolynomial]
    form: JacobiExpansion


@dataclass
class ModuleDescription:
    """Generators of the index-t module of weak forms over the Eisenstein ring.

    `counts[k]` is the number of new generators in weight k (the coefficient
    of x^k in the counting polynomial); their sum is the module rank r(t).
    """
    index: int
    counts: dict[int, int]
    generators: dict[int, list[Generator]]
    min_weight: int
    weak_dims: dict[int, int]

    @property
    def rank(self) -> int:
        return sum(self.counts.values())

    def weight_poly(self) -> dict[int, int]:
        """Nonzero generator counts by weight (Laurent-polynomial data)."""
        return {k: d for k, d in sorted(self.counts.items()) if d}

    def series(self, order: int = 20) -> dict[int, int]:
        """Weak dimensions by weight up to `order`, from the counts."""
        return _counts_to_series(self.weight_poly(), self.min_weight, order)

    def weight_poly_str(self) -> str:
        return _laurent_str(self.weight_poly())

    def series_str(self, order: int = 20) -> str:
        return _laurent_str(self.series(order))


def _counts_to_series(counts: dict[int, int], k_min: int,
                      order: int) -> dict[int, int]:
    def fill_count(d: int) -> int:
        if d < 0:
            return 0
        return sum(1 for a in range(d // 4 + 1) if (d - 4 * a) % 6 == 0)

    return {k: s for k in range(k_min, order + 1, 2)
            if (s := sum(d * fill_count(k - kk) for kk, d in counts.items()))}


def _laurent_str(coeffs: dict[int, int]) -> str:
    parts = []
    for k, c in sorted(coeffs.items()):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mono = "x" if k == 1 else f"x^{k}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def _act_e6(cert: list[GeneratorPolynomial]) -> list[GeneratorPolynomial]:
    return [_E6_MONO * p for p in cert]


def _act_e4(cert: list[GeneratorPolynomial]) -> list[GeneratorPolynomial]:
    """Slot action of E4: shifts each slot up by one and re-multiplies.

    E4 * (P_j E4^j P165^(top-j)) redistributes as slot j+1 carrying
    P165 * P_j, except that the top slot absorbs E4 * P_top directly.
    """
    top = len(cert) - 1
    out = [GeneratorPolynomial.zero() for _ in cert]
    for j in range(1, top + 1):
        out[j] = P165 * cert[j - 1]
    out[top] = out[top] + _E4_MONO * cert[top]
    return out


def _cert_vector(cert: list[GeneratorPolynomial], space: WeakSpace) -> list[Fraction]:
    vec = [Fraction(0)] * len(space.columns)
    lookup = space.column_index()
    for j, poly in enumerate(cert):
        for expo, c in poly.terms.items():
            i = lookup.get((j, expo))
            if i is None:
                raise ArithmeticError(
                    f"slot {j} monomial {expo} is not admissible in the target space")
            vec[i] = c
    return vec


def _image_vectors(space: WeakSpace, below4: WeakSpace | None,
                   below6: WeakSpace | None) -> list[list[Fraction]]:
    """E4- and E6-multiples of the lower spaces, in `space` coordinates."""
    out = []
    if below4 is not None:
        for v in below4.kernel:
            out.append(_cert_vector(_act_e4(below4.certificate(v)), space))
    if below6 is not None:
        for v in below6.kernel:
            out.append(_cert_vector(_act_e6(below6.certificate(v)), space))
    return out


def module_generators(t: int, trunc: int | None = None) -> ModuleDescription:
    """All r(t) generators of the index-t module of weak forms.

    Scans weights upward from the prior lower bound; in each weight the
    number of new generators is dim J^w_k minus the rank of
    E4*J^w_{k-4} + E6*J^w_{k-6} inside it.  Representatives are chosen
    deterministically: kernel vectors are recombined to reduced echelon
    order of their q^0 orbit coefficients, then greedily taken modulo the
    Eisenstein image.
    """
    _check_index(t)
    if trunc is None:
        trunc = config.get_config().truncation

    start = -5 * t - (5 * t) % 2
    weights = list(range(start, 4 + 1, 2))
    spaces = {k: weak_basis(k, t, trunc) for k in weights}

    counts: dict[int, int] = {}
    generators: dict[int, list[Generator]] = {}
    expected = rank_r(t)[t]
    total = 0
    k_min = None
    for k in weights:
        space = spaces[k]
        if space.dim and k_min is None:
            k_min = k
        image = _image_vectors(space, spaces.get(k - 4), spaces.get(k - 6))
        # the independent rows of image + kernel: those in the image count its
        # rank, and all of them span image + kernel, which must be the kernel
        picked = linalg.independent_rows(image + space.kernel, len(space.columns))
        if len(picked) != space.dim:
            raise ArithmeticError("Eisenstein image escaped the kernel span")
        d_k = space.dim - sum(1 for i in picked if i < len(image))
        counts[k] = d_k
        total += d_k
        if d_k:
            generators[k] = _select_generators(space, image, d_k)
        space.release()
    if total != expected:
        raise ArithmeticError(
            f"generator count {total} at index {t} does not match the rank {expected}")
    if k_min is None:
        raise ArithmeticError(f"no weak forms of index {t} in weights {start}..4")
    return ModuleDescription(t, counts, generators, k_min,
                             {k: spaces[k].dim for k in weights})


def _q0_terms(space: WeakSpace) -> list[dict]:
    """q^0 orbit terms of the basis forms: since (Delta/q) and E4 have constant
    term 1, they are the q^N terms of the numerators over Delta^N * E4^t1."""
    n, cols = space.n_power, space.column_expansions
    return [oa.upoly_to_orbit_dict(oa.lincomb((c, f.upolys[n]) for c, f in zip(vec, cols)))
            for vec in space.kernel]


def _select_generators(space: WeakSpace, image: list[list[Fraction]],
                       d_k: int) -> list[Generator]:
    q0s = _q0_terms(space)
    support = sorted({m for d in q0s for m in d}, key=_orbit_key)
    rows = []
    for d, vec in zip(q0s, space.kernel):
        rows.append([d.get(m, Fraction(0)) for m in support] + [Fraction(c) for c in vec])
    ncols = len(space.columns)
    candidates = [row[len(support):] for row in
                  linalg.rref(rows, len(support) + ncols)]
    # the candidates independent modulo the image and the candidates before them
    picked = linalg.independent_rows(image + candidates, ncols)
    selected = [candidates[i - len(image)] for i in picked if i >= len(image)]
    if len(selected) != d_k:
        raise ArithmeticError(f"generator selection found {len(selected)} of "
                              f"{d_k} generators in weight {space.weight}")
    return [Generator(space.weight, space.certificate(c), space.form(c))
            for c in selected]


def gen_series(t: int, order: int = 20, module: ModuleDescription | None = None,
               trunc: int | None = None) -> dict[int, int]:
    """Weak dimensions of index t by weight, up to x^order.

    The counting polynomial of the module generators divided by
    (1-x^4)(1-x^6), as a Laurent series.
    """
    if module is None:
        module = module_generators(t, trunc=trunc)
    if module.index != t:
        raise ValueError(f"module of index {module.index} given for index {t}")
    return module.series(order)


# -- holomorphic dimensions ---------------------------------------------------

def holo_dim(k: int, t: int, trunc: int | None = None) -> int:
    """Dimension of the holomorphic forms of weight k and index t.

    Below the singular weight 4 the space is zero; at weight 4 it is the
    singular space; for even k >= 6 the delta_t obstruction channels are
    independent, so the dimension is the weak dimension minus delta_t.
    """
    _check_index(t)
    if k < 4 or k % 2:
        return 0
    if k == 4:
        return singular_solve(t, trunc=trunc).dimension
    return weak_basis(k, t, trunc).dim - delta_t(t)


def holo_dim_direct(space: WeakSpace) -> int:
    """Holomorphic dimension inside a weak space, by obstruction rank.

    Counts the weak basis forms' independent conditions on the obstruction
    channels directly — no use of the delta_t identity — so it serves as the
    second, independent computation of the holomorphic dimension.
    """
    t = space.index
    channels = obstruction_channels(t)
    need = 1 + max(n for n, _ in channels)
    forms = space.basis_forms()
    if forms and forms[0].trunc < need:
        raise TruncationError(
            f"obstruction rank at index {t} needs {need} form orders; "
            f"have {forms[0].trunc}")
    rows = [[f.coeffs[n].get(x, Fraction(0)) for n, x in channels]
            for f in forms]
    return space.dim - (linalg.rank(rows, len(channels)) if rows else 0)


# -- singular weight ----------------------------------------------------------

@dataclass
class SingularSpace:
    """The weight-4 forms of index t whose support is purely singular.

    Basis elements are normalized to q^0-term 1 (the first element, the
    index-raised theta form) or 0 (the rest).  `free_channels` lists the
    coordinates (q-order, orbit) that determine such a form.
    """
    index: int
    dimension: int
    delta_power: int
    m_cap: int
    basis: list[JacobiExpansion]
    free_channels: list[tuple[int, tuple[int, ...]]]

    def phi(self, m) -> tuple[JacobiExpansion, Fraction] | None:
        """The canonical singular form attached to a norm-2t orbit.

        The unique basis combination with q^0-term 1 whose q^1-term is
        supported on the single orbit of m; returns (form, coefficient of m).
        None when no unique combination exists.
        """
        m = tuple(m)
        channels = dominant_by_norm(self.index)
        if m not in channels:
            raise ValueError(f"{m} is not dominant of squared norm {2 * self.index}")
        rows = [[b.coeff(0, ZERO) for b in self.basis] + [Fraction(1)]]
        for x in channels:
            if x != m:
                rows.append([b.coeff(1, x) for b in self.basis] + [Fraction(0)])
        # unique iff every basis column is a pivot of the RREF of [rows | rhs]
        # and the right-hand side is not: len(basis) rows, the last one with
        # its pivot in the last basis column
        nb = len(self.basis)
        reduced = linalg.rref(rows, nb + 1)
        if len(reduced) != nb or not reduced[-1][nb - 1]:
            return None
        out = combine([row[nb] for row in reduced], self.basis)
        return out, out.coeff(1, m)


def singular_solve(t: int, delta_power: int | None = None,
                   trunc: int | None = None) -> SingularSpace:
    """Solve for the weight-4 singular forms of index t.

    Ansatz: the weight-4 slot system over Delta^D * E4^t1 with the reduced
    power D = N_t - 1 (or the given `delta_power`).  Conditions: the Laurent
    quotient must be holomorphic, vanish at q^0, and vanish on every
    non-singular channel up to the determining order m_cap(t).  The span of
    the solutions plus the index-raised theta form is the full space.
    """
    _check_index(t)
    if trunc is None:
        trunc = config.get_config().truncation
    D = _reduced_delta_power(t) if delta_power is None else delta_power
    top = t1(t)
    M = m_cap(t)
    required = singular_trunc(t, D)
    if trunc < required:
        raise TruncationError(
            f"singular solve at index {t} needs series order >= {required}; "
            f"configured {trunc}")

    specs = _slot_specs(4, t, D)
    cols, forms = _column_forms(specs, trunc)
    delta_over_q = QSeries(discriminant(trunc + 1).coeffs[1:])
    unit = (delta_over_q ** D) * (eisenstein(4, trunc) ** top)
    quotients = [_div_unit_series(f, unit) for f in forms]

    ups = [h.upolys for h in quotients]
    rows = []
    for n in range(max(D + M, D + 1)):
        if n < D:
            # The principal part must vanish entirely, in any basis.
            rows += _upoly_rows([u[n] for u in ups])
            continue
        # From the q^0-term on, only non-singular channels are pinned:
        # the norm-2(n-D)t orbits (the constant term at n = D) stay free.
        layer = [oa.upoly_to_orbit_dict(u[n]) for u in ups]
        support = sorted({m for d in layer for m in d
                          if norm(m) != 2 * (n - D) * t}, key=_orbit_key)
        for key in support:
            rows.append([d.get(key, 0) for d in layer])
    kernel = linalg.kernel_basis(rows, len(cols)) if cols else []

    solutions = []
    for vec in kernel:
        comb = combine(vec, quotients)
        solutions.append(JacobiExpansion(4, t, comb.trunc - D, upoly=comb.upolys[D:],
                                         holomorphic=True))

    order_cap = trunc - D
    x_t = x_form(t, order_cap)
    if x_t.coeff(0, ZERO) != 1:
        raise ArithmeticError(f"x_form({t}) has constant term {x_t.coeff(0, ZERO)}, not 1")

    channels = [(0, ZERO)] + [(n, m) for n in range(1, max(M, 2))
                              for m in dominant_by_norm(n * t)]
    channels = [(n, m) for n, m in channels if n < order_cap]

    def coord_vec(f):
        return [f.coeffs[n].get(m, Fraction(0)) for n, m in channels]

    sol_rows = [coord_vec(f) for f in solutions]
    x_row = coord_vec(x_t)
    dim = linalg.rank([x_row] + sol_rows, len(channels))
    reduced = linalg.rref(sol_rows, len(channels)) if sol_rows else []
    lift_system = [[sol_rows[j][i] for j in range(len(solutions))]
                   for i in range(len(channels))]
    basis = [x_t]
    base_rows = [x_row]
    # Each form appended below has coordinates row - c0 * x_row, so base_rows
    # spans x_row and the rows taken so far: the rows to take are the
    # independent rows of [x_row] + reduced after x_row itself.
    picked = linalg.independent_rows([x_row] + reduced, len(channels))
    for row in [reduced[i - 1] for i in picked if i]:
        lift = linalg.solve(lift_system, list(row))
        if lift is None:
            raise ArithmeticError(f"singular basis row at index {t} has no lift")
        comb = combine(lift, solutions)
        c0 = comb.coeff(0, ZERO)
        if c0:
            comb = add(comb, x_t, 1, -c0)
        basis.append(comb)
        base_rows.append(coord_vec(comb))
    if len(basis) != dim:
        raise ArithmeticError(f"singular basis at index {t} has {len(basis)} forms, rank {dim}")
    if linalg.rank(base_rows, len(channels)) != dim:
        raise ArithmeticError(f"singular basis at index {t} is not independent")

    for f in basis:
        for n in range(f.trunc):
            for m in f.coeffs[n]:
                if norm(m) != 2 * n * t:
                    raise ArithmeticError(f"non-singular support at q^{n}, orbit {m}")
    return SingularSpace(t, dim, D, M, basis, channels)


# -- conjecture evidence --------------------------------------------------------

#: observed stable counts of new generators by weight: weight ->
#: (first index at which the count stabilizes, stable count)
STABLE_COUNTS = {
    0: (2, 1), -2: (2, 1), -4: (2, 1), -6: (3, 1), -8: (4, 2),
    -10: (5, 2), -12: (5, 3), -14: (7, 4), -16: (8, 5), -18: (9, 6),
    -20: (10, 8), -22: (11, 9), -24: (12, 12),
}

EXPECTED_PAIRING = [4, 5, 7, 10, 8, 6, 4, 2]


def conjecture_report(t_range) -> dict:
    """Numerical evidence report over the given index range.

    Checks, per index: the minimal weight against the -4t bound; uniqueness
    of the weight 0/-2/-4 generators (index >= 2); the generator-count
    stabilization against the observed stable table; the singular dimension
    H(t) against the norm-orbit count N(t) with the canonical q^1
    coefficients against 240/orbit-size; plus the eight orbit-pairing values.
    Reports only over the computed range; never extrapolates.
    """
    t_list = sorted(t_range)
    report: dict = {"indices": t_list}

    observed_pairing = pairing_values()
    report["pairing_values"] = {
        "observed": observed_pairing,
        "expected": EXPECTED_PAIRING,
        "ok": observed_pairing == EXPECTED_PAIRING,
    }

    per_index = {}
    for t in t_list:
        mod = module_generators(t)
        entry = {
            "min_weight": mod.min_weight,
            "min_weight_bound": -4 * t,
            "min_weight_ok": mod.min_weight >= -4 * t,
            "rank": mod.rank,
            "rank_expected": rank_r(t)[t],
            "counts": mod.weight_poly(),
        }
        entry["rank_ok"] = entry["rank"] == entry["rank_expected"]
        if t >= 2:
            top3 = {k: mod.counts.get(k, 0) for k in (0, -2, -4)}
            entry["top_generator_counts"] = top3
            entry["top_generators_ok"] = all(v == 1 for v in top3.values())
        per_index[t] = entry
    report["per_index"] = per_index

    stability = {}
    for k, (threshold, stable) in sorted(STABLE_COUNTS.items(), reverse=True):
        seen = {t: per_index[t]["counts"].get(k, 0)
                for t in t_list if t >= threshold}
        if seen:
            stability[k] = {
                "threshold": threshold,
                "stable_count": stable,
                "observed": seen,
                "ok": all(v == stable for v in seen.values()),
            }
    report["stability"] = stability

    singular = {}
    for t in t_list:
        space = singular_solve(t)
        n_t = orbit_count_norm(t)
        entry = {"H": space.dimension, "N": n_t,
                 "ok": space.dimension == n_t, "phi": {}}
        for m in dominant_by_norm(t):
            got = space.phi(m)
            expected = Fraction(240, orbit_size(m))
            entry["phi"]["".join(map(str, m))] = {
                "coefficient": None if got is None else str(got[1]),
                "expected": str(expected),
                "ok": got is not None and got[1] == expected,
            }
        singular[t] = entry
    report["singular"] = singular

    report["ok"] = (
        report["pairing_values"]["ok"]
        and all(e["min_weight_ok"] and e["rank_ok"]
                and e.get("top_generators_ok", True)
                for e in per_index.values())
        and all(s["ok"] for s in stability.values())
        and all(s["ok"] and all(p["ok"] for p in s["phi"].values())
                for s in singular.values())
    )
    return report


def report_text(report: dict) -> str:
    """Aligned-text rendering of a conjecture report."""
    lines = []
    pv = report["pairing_values"]
    lines.append(f"pairing values: observed {pv['observed']} "
                 f"expected {pv['expected']} [{'ok' if pv['ok'] else 'FAIL'}]")
    lines.append("")
    lines.append(f"{'t':>3} {'min_wt':>7} {'bound':>6} {'rank':>5} "
                 f"{'r(t)':>5} {'top(0,-2,-4)':>14} verdict")
    for t, e in sorted(report["per_index"].items()):
        top = e.get("top_generator_counts")
        top_s = ",".join(str(top[k]) for k in (0, -2, -4)) if top else "-"
        ok = (e["min_weight_ok"] and e["rank_ok"]
              and e.get("top_generators_ok", True))
        lines.append(f"{t:>3} {e['min_weight']:>7} {e['min_weight_bound']:>6} "
                     f"{e['rank']:>5} {e['rank_expected']:>5} {top_s:>14} "
                     f"{'ok' if ok else 'FAIL'}")
    if report["stability"]:
        lines.append("")
        lines.append(f"{'weight':>7} {'from t':>7} {'stable':>7} observed")
        for k, s in sorted(report["stability"].items(), reverse=True):
            obs = " ".join(f"{t}:{v}" for t, v in sorted(s["observed"].items()))
            lines.append(f"{k:>7} {s['threshold']:>7} {s['stable_count']:>7} "
                         f"{obs} [{'ok' if s['ok'] else 'FAIL'}]")
    if report["singular"]:
        lines.append("")
        lines.append(f"{'t':>3} {'H':>3} {'N':>3} {'phi q^1 coefficients':>30}")
        for t, s in sorted(report["singular"].items()):
            phis = " ".join(f"{mm}:{p['coefficient']}"
                            for mm, p in s["phi"].items())
            flag = "ok" if s["ok"] and all(p["ok"] for p in s["phi"].values()) \
                else "FAIL"
            lines.append(f"{t:>3} {s['H']:>3} {s['N']:>3} {phis} [{flag}]")
    lines.append("")
    lines.append(f"overall: {'ok' if report['ok'] else 'FAIL'}")
    return "\n".join(lines)
