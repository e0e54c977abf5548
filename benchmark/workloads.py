"""The two workloads: what each process runs, and the seeded `expand` stream."""
from __future__ import annotations

import random
from fractions import Fraction

from checks import monomials, poly_text

# cli-sessions: `--order 2` keeps every command at truncation 3, where the
# generator ring needs the Weyl orbits up to w5 but never the 483,840-vector
# orbit of w4; each session therefore fits the run budget (see README).
CLI_ORDER = 2
CLI_SETUP = ("verify", "lemma31")
CLI_COMMANDS = (
    ("generators", "3", "--certificates"),
    ("basis", "singular", "3"),
    ("basis", "holo", "2", "--weight", "8"),
    ("verify", "eq44"),
)
# weak dimensions of index 3 compared with the counting series of `generators 3`
CLI_SERIES_WEIGHTS = (-8, -2, 4)
CLI_HOLO = (8, 2)  # (weight, index) of the `basis holo` command
CLI_CERT_ORDERS = 8  # q-orders to which the checker follows each certificate

# index-sweep: the calls scripts/reproduce_tables.py makes, in one process.
# singular_solve(7) (about 40 s) is left out to fit the run budget (see
# README); singular_solve(6) reuses the set-up's truncation 7.
SWEEP_SETUP_TRUNC = 7
SWEEP_MODULES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6))   # (index, truncation)
SWEEP_SINGULAR = ((1, 6), (2, 6), (3, 6), (4, 6), (5, 6), (6, 7))

# expand stream: a hundred polynomials for each (index, weight) below, 2000 in all
EXPAND_GRADES = tuple((t, k) for t in range(3, 7) for k in range(8, 17, 2))
EXPAND_PER_GRADE = 100


def expand_stream(seed: int) -> list[str]:
    """2000 bihomogeneous polynomials of index 3-6 and weight 8-16.

    Each has 1-4 distinct monomials of one grade and small rational
    coefficients p/q, 1 <= p <= 9, 1 <= q <= 4, of either sign.  The grades
    are fixed, so the work per seed stays close; the seed picks the
    monomials, the coefficients and the order of the stream.
    """
    rng = random.Random(seed)
    out: list[str] = []
    for t, k in EXPAND_GRADES:
        monos = monomials(k, t)
        made: set[str] = set()
        while len(made) < EXPAND_PER_GRADE:
            terms = rng.sample(monos, rng.randint(1, min(4, len(monos))))
            poly = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                    for e in terms}
            made.add(poly_text(poly))
        out += sorted(made)
    rng.shuffle(out)
    return out
