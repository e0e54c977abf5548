"""The checkers accept correct outputs and reject corrupted ones.

    python3 -m pytest benchmark/test_checks.py -q

Each sample below is what the command line printed at `--order 2`; each
corruption changes one coefficient, puts one count off by one or moves one
orbit, and the matching check must report it.
"""
from fractions import Fraction

import pytest

import checks
import run

EXPAND_A1 = "1 + q*O_{1,240}^{[00000001]} + q^2*O_{2,2160}^{[10000000]}"

SINGULAR_3 = """dimension 1
phi[O_{3,6720}^{[00000010]}]  (q^1 coefficient 1/28):
  1 + q*1/28*O_{3,6720}^{[00000010]}
"""

SINGULAR_4 = """dimension 2
phi[O_{4,17280}^{[01000000]}]  (q^1 coefficient 1/72):
  1 + q*1/72*O_{4,17280}^{[01000000]}
phi[O_{4,240}^{[00000002]}]  (q^1 coefficient 1):
  1 + q*O_{4,240}^{[00000002]}
"""

GENERATORS_3 = """x^-8 + x^-6 + x^-4 + x^-2 + 1
weight -8: -1/103680*E4^3*A3 + 1/34560*E4^2*A1*A2 + 1/15552*E4*E6*B3 - 1/51840*E4*A1^3 + 1/31104*E6^2*A3 - 1/10368*E6*A1*B2
weight -6: -1/46656*E4^3*B3 - 7/933120*E4^2*E6*A3 + 1/31104*E4^2*A1*B2 - 1/103680*E4*E6*A1*A2 + 1/155520*E6*A1^3
weight -4: 1/155520*E4^4*A3 - 1/77760*E4^3*A1*A2 - 1/46656*E4^2*E6*B3 + 1/155520*E4^2*A1^3 - 13/933120*E4*E6^2*A3 + 1/31104*E4*E6*A1*B2 + 1/311040*E6^2*A1*A2
weight -2: 5/559872*E4^4*B3 - 1/11197440*E4^3*E6*A3 - 1/82944*E4^3*A1*B2 + 1/103680*E4^2*E6*A1*A2 + 7/559872*E4*E6^2*B3 - 1/155520*E4*E6*A1^3 + 17/2239488*E6^3*A3 - 5/248832*E6^2*A1*B2
weight 0: -7/44789760*E4^5*A3 + 7/1658880*E4^4*A1*A2 + 47/2239488*E4^3*E6*B3 - 1/276480*E4^3*A1^3 + 343/44789760*E4^2*E6^2*A3 - 1/31104*E4^2*E6*A1*B2 + 1/184320*E4*E6^2*A1*A2 + 1/2239488*E6^3*B3 - 7/2488320*E6^2*A1^3
"""


# -- the toolkit itself -------------------------------------------------------------

def test_lattice_toolkit():
    assert len(checks.positive_roots()) == 120
    assert checks._height_product(checks.positive_roots()) == checks.WEYL_ORDER
    fundamental = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    assert [checks.orbit_size(w) for w in fundamental] == \
        [2160, 17280, 69120, 483840, 241920, 60480, 6720, 240]
    assert [checks.norm(w) for w in fundamental] == [4, 8, 14, 30, 20, 12, 6, 2]
    # the theta series of E8 is E4: shells of norm 2n hold 240 sigma_3(n) vectors
    for n in range(1, 5):
        assert sum(checks.orbit_size(m) for m in checks.dominant_of_norm(2 * n)) == \
            checks.eisenstein(4, n + 1)[n]
    assert [checks.rank_r(t) for t in range(1, 6)] == [1, 3, 5, 10, 15]


def test_qseries_toolkit():
    assert checks.discriminant(6) == [0, 1, -24, 252, -1472, 4830]
    e4, e6 = checks.eisenstein(4, 6), checks.eisenstein(6, 6)
    assert checks.modular_span(checks.smul(e4, e6), 10)
    assert not checks.modular_span(checks.smul(e4, e4)[:1] + [Fraction(1)] * 5, 8)


def test_polynomial_round_trip():
    text = "3/4*E4*A3*A5 - 2*A1^2*B4"
    assert checks.poly_text(checks.parse_poly(text)) == text
    assert checks.parse_poly("-2*A1^2*B4 + 3/4*E4*A3*A5") == checks.parse_poly(text)
    with pytest.raises(ValueError):
        checks.parse_poly("A1*Q7")


# -- corrupted outputs ------------------------------------------------------------------

def test_expand_check():
    assert checks.check_expand(EXPAND_A1, "A1", 3) == []
    changed = EXPAND_A1.replace("q^2*O", "q^2*2*O")
    assert checks.check_expand(changed, "A1", 3)
    moved = EXPAND_A1.replace("q*O_{1,240}^{[00000001]}", "q*O_{2,2160}^{[10000000]}")
    assert checks.check_expand(moved, "A1", 3)
    mislabelled = EXPAND_A1.replace("[00000001]", "[10000000]")
    assert checks.check_expand(mislabelled, "A1", 3)


def test_singular_check():
    assert checks.check_singular(SINGULAR_3, 3, checks.singular_orders(3, 3)) == []
    assert checks.check_singular(SINGULAR_4, 4, checks.singular_orders(4, 3)) == []
    for bad in (SINGULAR_3.replace("1/28", "1/27", 1),            # printed coefficient
                SINGULAR_3.replace("q*1/28", "q*1/27"),           # expansion coefficient
                SINGULAR_3.replace("dimension 1", "dimension 2"),  # count off by one
                SINGULAR_3.replace("  1 + q", "  2 + q")):         # q^0 term
        assert checks.check_singular(bad, 3, 2)
    moved = SINGULAR_4.replace("1 + q*O_{4,240}^{[00000002]}", "1 + q*O_{3,6720}^{[00000010]}")
    assert checks.check_singular(moved, 4, 2)


def test_phi_check():
    m = (0, 0, 0, 0, 0, 0, 1, 0)
    phi = {0: {(0,) * 8: Fraction(1)}, 1: {m: Fraction(1, 28)}}
    assert checks.check_phi(3, m, Fraction(1, 28), phi, 2) == []
    assert checks.check_phi(3, m, Fraction(1, 28), {0: phi[0], 1: {m: Fraction(1, 27)}}, 2)
    moved = {0: phi[0], 1: {(0, 1, 0, 0, 0, 0, 0, 0): Fraction(1, 28)}}
    assert checks.check_phi(3, m, Fraction(1, 28), moved, 2)


def test_generators_check():
    assert checks.check_generators(GENERATORS_3, 3, 8) == []
    off_by_one = GENERATORS_3.replace("x^-8 +", "2*x^-8 +", 1)
    assert checks.check_generators(off_by_one, 3, 8)
    changed = GENERATORS_3.replace("-1/103680*E4^3*A3", "-1/103681*E4^3*A3")
    assert checks.check_generators(changed, 3, 8)
    moved = GENERATORS_3.replace("weight 0:", "weight 2:")
    assert checks.check_generators(moved, 3, 8)


def test_series_and_level_one_checks():
    counts = {-8: 1, -6: 1, -4: 1, -2: 1, 0: 1}
    dims = {k: checks.counting_series(counts, k) for k in (-8, -2, 4)}
    assert dims == {-8: 1, -2: 3, 4: 6}
    assert checks.check_series(counts, dims, 3) == []
    assert checks.check_series(counts, {**dims, 4: 5}, 3)
    e4 = checks.eisenstein(4, 3)
    assert checks.level_one_errors(e4, 4, "x") == []
    assert checks.level_one_errors([e4[0], e4[1] + 1, e4[2]], 4, "x")
    assert checks.level_one_errors([Fraction(0), Fraction(1)], -2, "x")
    assert checks.level_one_errors([Fraction(3), Fraction(1)], 0, "x")


def test_pass_and_dimension_checks():
    assert checks.check_pass("index 3: ...\neq44: pass\n", "eq44") == []
    assert checks.check_pass("eq44: FAIL\nwitness: q^1\n", "eq44")
    assert checks.check_dimension("dimension 2\n", 2, "holo") == []
    assert checks.check_dimension("dimension 3\n", 2, "holo")


def _session(outs):
    argvs = [["verify", "lemma31"], ["generators", "3"], ["basis", "singular", "3"],
             ["basis", "holo", "2"], ["verify", "eq44"], ["expand", "--", "A1"]]
    return {"ops": [{"argv": a, "rc": 0, "out": o, "err": ""} for a, o in zip(argvs, outs)],
            "weak_dims": {"-8": 1, "-2": 3, "4": 6}, "holo_direct": 2}


def test_session_checks():
    outs = ["lemma31: pass\n", GENERATORS_3, SINGULAR_3, "dimension 2\n", "eq44: pass\n",
            EXPAND_A1 + "\n"]
    s1 = _session(outs)
    assert run.check_sessions(s1, _session(outs), ["A1"]) == ([], 0)
    # session 2 printing other bytes is an error, even when each output is valid
    s2 = _session(outs[:5] + [EXPAND_A1 + " \n"])
    errors, failed = run.check_sessions(s1, s2, ["A1"])
    assert errors and not failed
    # a failed operation is counted, and it is an error too
    s2 = _session(outs)
    s2["ops"][5].update(rc=3, out="")
    errors, failed = run.check_sessions(s1, s2, ["A1"])
    assert errors and failed == 1
    # a verify that prints FAIL exits 1: counted, and its output still checked
    bad = _session(outs[:4] + ["eq44: FAIL\nwitness: q^1\n"] + outs[5:])
    bad["ops"][4]["rc"] = 1
    errors, failed = run.check_sessions(bad, bad, ["A1"])
    assert failed == 2 and any("verify eq44: last line" in e for e in errors)
    # a session that ran fewer commands than the workload names
    errors, failed = run.check_sessions(s1, _session(outs[:5]), ["A1"])
    assert errors and not failed


def test_sweep_check():
    m = (0, 0, 0, 0, 0, 0, 1, 0)
    good = {"modules": [{"index": 1, "counts": {"4": 1}, "weak_dims": {"4": 1},
                         "generators": [{"weight": 4, "coeffs": {
                             "0": {"0,0,0,0,0,0,0,0": "1"},
                             "1": {"0,0,0,0,0,0,0,1": "1"}}}]}],
            "singular": [{"index": 3, "dimension": 1, "phis": [
                {"orbit": list(m), "coefficient": "1/28",
                 "coeffs": {"0": {"0,0,0,0,0,0,0,0": "1"}, "1": {"0,0,0,0,0,0,1,0": "1/28"}}}]}]}
    assert run.check_sweep(good) == []
    bad = {"modules": [dict(good["modules"][0], counts={"4": 2})], "singular": []}
    assert run.check_sweep(bad)
    bad = {"modules": [], "singular": [dict(good["singular"][0], dimension=2)]}
    assert run.check_sweep(bad)
    gen = good["modules"][0]["generators"][0]
    bad = {"modules": [dict(good["modules"][0], generators=[
        dict(gen, coeffs={"0": gen["coeffs"]["0"], "1": {"0,0,0,0,0,0,0,1": "2"}})])],
        "singular": []}
    assert run.check_sweep(bad)
