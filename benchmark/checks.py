"""Independent checks for the benchmark's outputs.

Nothing here imports the engine.  The E8 data (Cartan and Gram matrices,
positive roots, dominant weights of a given norm, orbit sizes) and the
level-one q-series (E4 and E6 from divisor sums, the discriminant) are
rebuilt from their definitions, so a check compares the engine against a
second computation, or against a property every correct answer must have;
never against a stored copy of earlier output.

Orbit sizes use the height formula |W| = prod over positive roots of
(ht + 1)/ht, applied to the stabiliser of a dominant weight (whose positive
roots are those orthogonal to it); the engine instead reads Coxeter types off
the Dynkin diagram.

Each check returns a list of error strings; an empty list means it passed.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

RANK = 8
WEYL_ORDER = 696_729_600
# Bourbaki numbering: the chain 1-3-4-5-6-7-8 with node 2 attached to node 4.
EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))

NAMES = ("E4", "E6", "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B6")
WEIGHT = {"E4": 4, "E6": 6, "A1": 4, "A2": 4, "A3": 4, "A4": 4, "A5": 4,
          "B2": 6, "B3": 6, "B4": 6, "B6": 6}
INDEX = {"E4": 0, "E6": 0, "A1": 1, "A2": 2, "A3": 3, "A4": 4, "A5": 5,
         "B2": 2, "B3": 3, "B4": 4, "B6": 6}


# -- the lattice ----------------------------------------------------------------

def cartan() -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(RANK)] for i in range(RANK)]
    for a, b in EDGES:
        c[a - 1][b - 1] = c[b - 1][a - 1] = -1
    return c


CARTAN = cartan()


def _inverse(mat: list[list[int]]) -> list[list[Fraction]]:
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


GRAM = _inverse(CARTAN)  # pairings of the fundamental weights


@lru_cache(maxsize=None)
def norm(m: tuple[int, ...]) -> Fraction:
    return sum(m[i] * GRAM[i][j] * m[j] for i in range(RANK) for j in range(RANK))


@lru_cache(maxsize=None)
def positive_roots() -> tuple[tuple[int, ...], ...]:
    """Positive roots in simple-root coordinates, by adding simple roots."""
    simple = [tuple(int(i == j) for j in range(RANK)) for i in range(RANK)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(RANK):
                # simply laced: beta + alpha_i is a root iff (beta, alpha_i) = -1
                pairing = sum(beta[j] * CARTAN[j][i] for j in range(RANK))
                if pairing == -1:
                    gamma = tuple(beta[j] + (j == i) for j in range(RANK))
                    if gamma not in roots:
                        roots.add(gamma)
                        nxt.append(gamma)
        frontier = nxt
    return tuple(sorted(roots))


def _height_product(roots) -> Fraction:
    out = Fraction(1)
    for r in roots:
        h = sum(r)
        out *= Fraction(h + 1, h)
    return out


@lru_cache(maxsize=None)
def orbit_size(m: tuple[int, ...]) -> int:
    """|W m| for a dominant weight m in fundamental-weight coordinates."""
    if any(c < 0 for c in m):
        raise ValueError(f"{m} is not dominant")
    stab = [r for r in positive_roots() if sum(a * b for a, b in zip(m, r)) == 0]
    size = WEYL_ORDER / _height_product(stab)
    assert size.denominator == 1
    return int(size)


def dominant_of_norm(n2: int) -> list[tuple[int, ...]]:
    """All dominant weights of squared norm n2 (every Gram entry is positive)."""
    out = []

    def rec(i: int, cur: list[int], partial: Fraction) -> None:
        if i == RANK:
            if partial == n2:
                out.append(tuple(cur))
            return
        c = 0
        while True:
            trial = cur + [c] + [0] * (RANK - i - 1)
            value = norm(tuple(trial))
            if value > n2:
                break
            rec(i + 1, cur + [c], value)
            c += 1

    rec(0, [], Fraction(0))
    return sorted(out)


def rank_r(t: int) -> int:
    """Monomials of index t in nine forms of index 1, 2, 2, 3, 3, 4, 4, 5, 6."""
    ways = [1] + [0] * t
    for d in (1, 2, 2, 3, 3, 4, 4, 5, 6):
        for n in range(d, t + 1):
            ways[n] += ways[n - d]
    return ways[t]


# -- level-one q-series -----------------------------------------------------------

def sigma(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(k: int, n: int) -> list[Fraction]:
    lead = {4: 240, 6: -504}[k]
    return [Fraction(1)] + [Fraction(lead * sigma(i, k - 1)) for i in range(1, n)]


def smul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        if a[i]:
            for j in range(n - i):
                out[i + j] += a[i] * b[j]
    return out


def spow(a: list[Fraction], e: int, n: int) -> list[Fraction]:
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(e):
        out = smul(out, a)
    return out


def discriminant(n: int) -> list[Fraction]:
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    return [(x - y) / 1728 for x, y in zip(spow(e4, 3, n), spow(e6, 2, n))]


def modular_span(series: list[Fraction], k: int) -> bool:
    """Is the series a combination of E4^a E6^b with 4a + 6b = k?"""
    n = len(series)
    cols = [smul(spow(eisenstein(4, n), a, n), spow(eisenstein(6, n), (k - 4 * a) // 6, n))
            for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0 and k - 4 * a >= 0]
    rows = [[c[i] for c in cols] + [series[i]] for i in range(n)]
    # Gaussian elimination over Q: consistent iff no pivot lands in the last column
    r = 0
    for c in range(len(cols) + 1):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        if c == len(cols):
            return False
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return True


def level_one_errors(series: list[Fraction], k: int, label: str) -> list[str]:
    """Restriction to z = 0 of a weak form of weight k must be level one."""
    if k < 0 or k == 2:
        ok = not any(series)
        want = "0"
    elif k == 0:
        ok = not any(series[1:])
        want = "a constant"
    else:
        ok = modular_span(series, k)
        want = f"a level-one modular form of weight {k}"
    return [] if ok else [f"{label}: restriction at z=0 {series} is not {want}"]


# -- generator polynomials --------------------------------------------------------

def parse_poly(text: str) -> dict[tuple[int, ...], Fraction]:
    """'3/2*A1^2*E4 - B2' -> {exponent vector over NAMES: coefficient}."""
    out: dict[tuple[int, ...], Fraction] = {}
    compact = text.replace(" ", "")
    if not re.fullmatch(r"[-+]?[^-+]+([-+][^-+]+)*", compact):
        raise ValueError(f"cannot parse polynomial {text!r}")
    for chunk in re.findall(r"[-+]?[^-+]+", compact):
        coeff = Fraction(-1 if chunk[0] == "-" else 1)
        expo = [0] * len(NAMES)
        for factor in chunk.lstrip("+-").split("*"):
            m = re.fullmatch(r"([AEB]\d)(?:\^(\d+))?", factor)
            if m and m.group(1) in NAMES:
                expo[NAMES.index(m.group(1))] += int(m.group(2) or 1)
            elif re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
            else:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
        key = tuple(expo)
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def poly_text(poly: dict[tuple[int, ...], Fraction]) -> str:
    text = ""
    for expo, c in sorted(poly.items(), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(NAMES, expo) if e]
        mag = abs(c)
        body = "*".join(factors) if mag == 1 else "*".join([str(mag)] + factors)
        if not text:
            text = body if c > 0 else f"-{body}"
        else:
            text += (" + " if c > 0 else " - ") + body
    return text


def grade(expo) -> tuple[int, int]:
    """(weight, index) of a monomial."""
    return (sum(e * WEIGHT[n] for n, e in zip(NAMES, expo)),
            sum(e * INDEX[n] for n, e in zip(NAMES, expo)))


def monomials(weight: int, index: int) -> list[tuple[int, ...]]:
    """Every monomial in the eleven names of the given weight and index."""
    out = []

    def rec(i: int, w: int, t: int, cur: list[int]) -> None:
        if i == len(NAMES):
            if w == 0 and t == 0:
                out.append(tuple(cur))
            return
        e = 0
        while e * WEIGHT[NAMES[i]] <= w and e * INDEX[NAMES[i]] <= t:
            rec(i + 1, w - e * WEIGHT[NAMES[i]], t - e * INDEX[NAMES[i]], cur + [e])
            e += 1

    rec(0, weight, index, [])
    return out


def restriction_of_poly(poly, n: int) -> list[Fraction]:
    """z = 0 restriction of a polynomial: A_i -> E4 and B_j -> E6."""
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    out = [Fraction(0)] * n
    for expo, c in poly.items():
        fours = sum(e for name, e in zip(NAMES, expo) if WEIGHT[name] == 4)
        sixes = sum(e for name, e in zip(NAMES, expo) if WEIGHT[name] == 6)
        term = smul(spow(e4, fours, n), spow(e6, sixes, n))
        out = [x + c * y for x, y in zip(out, term)]
    return out


# -- expansions as the command line prints them --------------------------------

_TERM = re.compile(r"(?:(-?\d+(?:/\d+)?)\*)?O_\{(\d+),(\d+)\}\^\{\[([\d,]+)\]\}")


def _split_top(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            start = i + 3
            i += 3
            continue
        i += 1
    parts.append(text[start:])
    return parts


def parse_expansion(text: str) -> dict[int, dict[tuple[int, ...], Fraction]]:
    """'1 + q*O_{1,240}^{[00000001]} + q^2*(...)' -> {order: {orbit: coeff}}.

    The printed orbit labels O_{a,size} are checked against the coordinates.
    """
    text = text.strip()
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    if text == "0":
        return out
    for part in _split_top(text):
        m = re.fullmatch(r"q(?:\^(\d+))?\*(.*)", part)
        if m:
            order = int(m.group(1) or 1)
            body = m.group(2)
        else:
            order, body = 0, part
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        if order in out:
            raise ValueError(f"order q^{order} printed twice")
        terms: dict[tuple[int, ...], Fraction] = {}
        for term in _split_top(body):
            if re.fullmatch(r"-?\d+(/\d+)?", term):
                orbit, coeff = (0,) * RANK, Fraction(term)
            else:
                tm = _TERM.fullmatch(term)
                if not tm:
                    raise ValueError(f"cannot parse term {term!r}")
                coords = tm.group(4)
                orbit = tuple(int(c) for c in (coords.split(",") if "," in coords else coords))
                if len(orbit) != RANK:
                    raise ValueError(f"orbit {coords} does not have {RANK} coordinates")
                if norm(orbit) != 2 * int(tm.group(2)) or orbit_size(orbit) != int(tm.group(3)):
                    raise ValueError(f"orbit label {term!r} does not match its coordinates")
                coeff = Fraction(tm.group(1) or 1)
            if orbit in terms:
                raise ValueError(f"orbit {orbit} printed twice at q^{order}")
            terms[orbit] = coeff
        out[order] = terms
    return out


def restriction(coeffs: dict[int, dict[tuple[int, ...], Fraction]], n: int) -> list[Fraction]:
    """z = 0 restriction: each orbit sum becomes its size."""
    return [sum((c * orbit_size(m) for m, c in coeffs.get(i, {}).items()), Fraction(0))
            for i in range(n)]


# -- checks on command-line sessions --------------------------------------------

def check_generators(text: str, t: int, certificate_orders: int) -> list[str]:
    """`generators t --certificates`: counts and every generator's restriction."""
    lines = text.strip().splitlines()
    errors = []
    try:
        counts = parse_counts(lines[0] if lines else "")
    except ValueError as exc:
        return [f"generators {t}: {exc}"]
    if sum(counts.values()) != rank_r(t):
        errors.append(f"generators {t}: counts {counts} sum to {sum(counts.values())}, "
                      f"not r({t}) = {rank_r(t)}")
    certs: dict[int, list[str]] = {}
    for line in lines[1:]:
        m = re.fullmatch(r"weight (-?\d+): (.*)", line)
        if not m:
            errors.append(f"generators {t}: unexpected line {line!r}")
            continue
        certs.setdefault(int(m.group(1)), []).append(m.group(2))
    if {k: len(v) for k, v in certs.items()} != {k: d for k, d in counts.items() if d}:
        errors.append(f"generators {t}: certificates {sorted(certs)} do not match counts")
    n_pow = delta_power(t)
    n = certificate_orders + n_pow
    delta_n = spow(discriminant(n), n_pow, n)
    for k, texts in sorted(certs.items()):
        for cert in texts:
            try:
                poly = parse_poly(cert)
            except ValueError as exc:
                errors.append(f"generators {t} weight {k}: {exc}")
                continue
            if any(grade(e) != (k + 12 * n_pow, t) for e in poly):
                errors.append(f"generators {t}: certificate of weight {k} is not "
                              f"bihomogeneous of weight {k + 12 * n_pow}, index {t}")
                continue
            numerator = restriction_of_poly(poly, n)
            if any(numerator[:n_pow]):
                errors.append(f"generators {t}: weight-{k} numerator is not divisible "
                              f"by Delta^{n_pow} at z=0")
                continue
            # divide by Delta^N = q^N (1 + ...): exact power-series division
            shifted, lead = numerator[n_pow:], delta_n[n_pow:]
            quotient: list[Fraction] = []
            for i in range(len(shifted)):
                acc = shifted[i] - sum(lead[j] * quotient[i - j] for j in range(1, i + 1))
                quotient.append(acc / lead[0])
            errors += level_one_errors(quotient, k, f"generators {t} weight {k}")
    return errors


def delta_power(t: int) -> int:
    """N_t, the power of the discriminant in the weak-form denominator."""
    t0, r = divmod(t, 6)
    return 5 * t0 + (0, 0, 1, 2, 3, 3)[r]


def counting_series(counts: dict[int, int], k: int) -> int:
    """Coefficient of x^k in counts / ((1 - x^4)(1 - x^6))."""
    def fill(d: int) -> int:
        return 0 if d < 0 else sum(1 for a in range(d // 4 + 1) if (d - 4 * a) % 6 == 0)
    return sum(c * fill(k - kk) for kk, c in counts.items())


def check_series(counts: dict[int, int], weak_dims: dict[int, int], t: int) -> list[str]:
    return [f"index {t} weight {k}: counting series gives {counting_series(counts, k)}, "
            f"direct weak dimension is {d}"
            for k, d in sorted(weak_dims.items()) if counting_series(counts, k) != d]


def parse_counts(line: str) -> dict[int, int]:
    counts = {}
    for part in line.strip().split(" + "):
        m = re.fullmatch(r"(?:(\d+)\*)?x(?:\^(-?\d+))?|(\d+)", part)
        if not m:
            raise ValueError(f"cannot parse counting polynomial {line!r}")
        if m.group(3):
            counts[0] = int(m.group(3))
        else:
            counts[int(m.group(2) or 1)] = int(m.group(1) or 1)
    return counts


def check_phi(t: int, m: tuple[int, ...], q1_coeff: Fraction,
              coeffs: dict[int, dict[tuple[int, ...], Fraction]], n: int) -> list[str]:
    """A canonical singular form phi_m of index t, known to n orders."""
    label = f"singular {t} phi[{''.join(map(str, m))}]"
    errors = []
    if coeffs.get(0, {}) != {(0,) * RANK: 1}:
        errors.append(f"{label}: q^0-term is {coeffs.get(0)}, not 1")
    want = Fraction(240, orbit_size(m))
    if q1_coeff != want or coeffs.get(1, {}).get(m) != want:
        errors.append(f"{label}: q^1 coefficient {q1_coeff} (printed) / "
                      f"{coeffs.get(1, {}).get(m)} (expansion), expected 240/|W m| = {want}")
    for order, terms in coeffs.items():
        for x, c in terms.items():
            if c and norm(x) != 2 * order * t:
                errors.append(f"{label}: q^{order} coefficient on orbit "
                              f"{''.join(map(str, x))} of norm {norm(x)}, not {2 * order * t}")
    if restriction(coeffs, n) != eisenstein(4, n):
        errors.append(f"{label}: restriction at z=0 {restriction(coeffs, n)} is not E4")
    return errors


def dominant_up_to_level(t: int) -> list[tuple[int, ...]]:
    """Dominant weights m with (m, w8) <= t, w8 the highest root."""
    level = [GRAM[7][i] for i in range(RANK)]
    out = []

    def rec(i: int, cur: list[int], rem: Fraction) -> None:
        if i == RANK:
            out.append(tuple(cur))
            return
        c = 0
        while c * level[i] <= rem:
            rec(i + 1, cur + [c], rem - c * level[i])
            c += 1

    rec(0, [], Fraction(t))
    return out


def singular_orders(t: int, truncation: int) -> int:
    """q-orders of the singular basis at index t and a configured truncation.

    The solve divides by Delta^D, D = N_t - 1, and needs M + D orders, where
    M = ceil(max (m, m) / 2t) over dominant m with (m, w8) <= t.
    """
    d = max(delta_power(t) - 1, 0)
    top = max(norm(m) for m in dominant_up_to_level(t))
    m_cap = -(-top // (2 * t))
    return max(m_cap, 2, truncation - d)


def check_singular(text: str, t: int, orders: int) -> list[str]:
    """`basis singular t`: dimension N(t) and every canonical phi to `orders`."""
    lines = text.strip().splitlines()
    dims = re.fullmatch(r"dimension (\d+)", lines[0]) if lines else None
    n_t = len(dominant_of_norm(2 * t))
    if not dims:
        return [f"singular {t}: no dimension line"]
    errors = []
    if int(dims.group(1)) != n_t:
        errors.append(f"singular {t}: dimension {dims.group(1)} != N({t}) = {n_t}")
    seen = []
    for head, body in zip(lines[1::2], lines[2::2]):
        hm = re.fullmatch(r"phi\[O_\{\d+,\d+\}\^\{\[([\d,]+)\]\}\]  "
                          r"\(q\^1 coefficient (-?\d+(?:/\d+)?)\):", head)
        if not hm:
            errors.append(f"singular {t}: cannot parse {head!r}")
            continue
        coords = hm.group(1)
        m = tuple(int(c) for c in (coords.split(",") if "," in coords else coords))
        seen.append(m)
        try:
            coeffs = parse_expansion(body)
        except ValueError as exc:
            errors.append(f"singular {t}: {exc}")
            continue
        errors += check_phi(t, m, Fraction(hm.group(2)), coeffs, orders)
    if sorted(seen) != dominant_of_norm(2 * t):
        errors.append(f"singular {t}: phi printed for {seen}, "
                      f"expected every orbit of norm {2 * t}")
    return errors


def check_dimension(text: str, expected: int, label: str) -> list[str]:
    got = text.strip()
    return [] if got == f"dimension {expected}" else [f"{label}: printed {got!r}, expected "
                                                       f"dimension {expected}"]


def check_pass(text: str, check: str) -> list[str]:
    last = text.strip().splitlines()[-1] if text.strip() else ""
    return [] if last == f"{check}: pass" else [f"verify {check}: last line {last!r}"]


def check_expand(text: str, poly_src: str, orders: int) -> list[str]:
    """`expand P`: restriction at z=0 equals P with A_i -> E4, B_j -> E6."""
    try:
        coeffs = parse_expansion(text)
        poly = parse_poly(poly_src)
    except ValueError as exc:
        return [f"expand {poly_src}: {exc}"]
    got = restriction(coeffs, orders)
    want = restriction_of_poly(poly, orders)
    if got != want:
        return [f"expand {poly_src}: restriction at z=0 {got} != {want}"]
    return []
