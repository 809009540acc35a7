"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (integer or rational comparisons).
"""

import time
from fractions import Fraction

import pytest

from conftest import session_path
from fthresh import (
    Ideal,
    QuotientRing,
    check_lemma22,
    check_monotonicity,
    check_colon_lemma,
    check_reduction,
    check_superficial,
    check_theorem_A_randomized,
    f_rational_probe,
    fedder_f_pure,
    fpt_estimate,
    guess_rational,
    hilbert_data,
    nu,
    threshold_estimate,
    verify_gr_claim,
    verify_theorem_A,
)
from fthresh.cli import run
from oracles import macaulay_member, nu_monomial_oracle


def report(number, name, condition):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if condition else 'FAIL'}"
    print(line)
    assert condition, line


def test_criterion_1_regular_ring_exactness():
    started = time.time()
    ok = True
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            names = ["x", "y", "z"][:d]
            ring = QuotientRing(p, names)
            m = ring.maximal_ideal()
            e_top = 3
            est = threshold_estimate(m, m, e_top)
            for record in est.records:
                ok = ok and record.nu == d * (record.q - 1)
            ok = ok and est.lower <= d <= est.upper
    elapsed = time.time() - started
    report(1, "regular-ring exactness", ok and elapsed < 60)


def test_criterion_2_blowup_example():
    started = time.time()
    ring = QuotientRing(2, ["x", "y", "z", "w"], ["x*y - z^2*w"])
    m = ring.maximal_ideal()
    est = threshold_estimate(m, m, 3)
    ratios = [Fraction(r.nu, r.q) for r in est.records]
    ok = ratios == sorted(ratios) and all(r <= Fraction(5, 2) for r in ratios)
    for record in est.records:
        lower = Fraction(record.nu, record.q)
        upper = Fraction(record.nu + 5, record.q)
        ok = ok and lower <= Fraction(5, 2) <= upper
    # cross-check nu at e = 1 against the Macaulay-matrix membership oracle
    gens = [
        {(2, 0, 0, 0): 1},
        {(0, 2, 0, 0): 1},
        {(0, 0, 2, 0): 1},
        {(0, 0, 0, 2): 1},
        {(1, 1, 0, 0): 1, (0, 0, 2, 1): 1},
    ]
    from fthresh.ring import monomials_of_degree

    nu1 = est.records[0].nu
    ok = ok and any(
        not macaulay_member({mono: 1}, gens, 4, 2, 8) for mono in monomials_of_degree(4, nu1)
    )
    ok = ok and all(
        macaulay_member({mono: 1}, gens, 4, 2, 8) for mono in monomials_of_degree(4, nu1 + 1)
    )
    report(2, "blow-up fixture brackets 5/2", ok and time.time() - started < 300)


def test_criterion_3_graded_side():
    ring = QuotientRing(2, ["x", "y", "z", "w"], ["x*y"])
    n = ring.maximal_ideal()
    vars4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    ok = True
    for e in (1, 2, 3):
        q = 2**e
        bracket = [tuple(q * c for c in v) for v in vars4] + [(1, 1, 0, 0)]
        oracle = nu_monomial_oracle(vars4, bracket, 4, 3 * (q - 1) + 2)
        ok = ok and nu(n, n, e).nu == oracle == 3 * (q - 1)
    est = threshold_estimate(n, n, 3)
    ok = ok and guess_rational(est.lower, est.upper, 64) == 3 and est.guess == 3
    report(3, "graded fixture nu = 3(q-1), guess 3", ok)


def test_criterion_4_theorem_comparison():
    code, _ = run(
        ["verify-thmA", "--session", session_path("ex-blowup.json"), "--b", "b", "--e-max", "2"]
    )
    ok = code == 0
    for p in (2, 3):
        suite = check_theorem_A_randomized(p, 25, 2, 0)
        ok = ok and suite.verdict == "pass" and not suite.witnesses["failures"]
    report(4, "finite-level graded comparison, 25/25 per prime", ok)


def test_criterion_5_monotonicity_suite():
    ok = True
    for p in (2, 3):
        regular = QuotientRing(p, ["x", "y"])
        node = QuotientRing(p, ["x", "y"], ["x*y"])
        for ring, trials in ((regular, 13), (node, 12)):
            suite = check_monotonicity(ring, trials, 2, 0)
            ok = ok and suite.verdict == "pass" and not suite.witnesses["violations"]
    report(5, "monotonicity and scaling, 50 trials, 0 violations", ok)


def test_criterion_6_fedder():
    ok = all(fedder_f_pure(QuotientRing(p, ["x", "y"], ["x*y"])) for p in (2, 3, 5, 7))
    ok = ok and not fedder_f_pure(QuotientRing(2, ["x", "y"], ["x^3 + y^3"]))
    ok = ok and fedder_f_pure(QuotientRing(3, ["x", "y"], ["x^2 - y^2"]))
    report(6, "Fedder criterion booleans", ok)


def test_criterion_7_fpt():
    ring = QuotientRing(2, ["x", "y"])
    est = fpt_estimate(ring.maximal_ideal(), 3)
    ok = [b for _, _, b in est.records] == [2 * (q - 1) for q in (2, 4, 8)]
    ok = ok and est.guess == 2
    line = QuotientRing(2, ["x"])
    square = fpt_estimate(Ideal(line, ["x^2"]), 3)
    ok = ok and square.guess == Fraction(1, 2)
    ok = ok and square.upper - square.lower <= Fraction(3, 8)
    report(7, "fpt brackets and guesses", ok)


def test_criterion_8_gr_machinery():
    started = time.time()
    blowup = QuotientRing(2, ["x", "y", "z", "w"], ["x*y - z^2*w"])
    ok = verify_gr_claim(["x*y"], blowup, 4).passed
    ok = ok and not verify_gr_claim(["z^2*w"], blowup, 4).passed
    det = QuotientRing(
        2,
        ["x11", "x12", "x13", "x21", "x22", "x23"],
        [
            "x11*x22 - x12*x21 + x11*x12*x13*x21*x22*x23",
            "x11*x23 - x13*x21",
            "x12*x23 - x13*x22",
        ],
    )
    claim = verify_gr_claim(
        ["x11*x22 - x12*x21", "x11*x23 - x13*x21", "x12*x23 - x13*x22"], det, 4
    )
    # dimension values precomputed by the Macaulay oracle (also the closed form
    # of the 2x3 minors quotient): 1, 6, 18, 40, 75
    ok = ok and claim.passed and list(claim.hilbert_ring) == [1, 6, 18, 40, 75]
    ok = ok and hilbert_data(det, 4) == [1, 6, 18, 40, 75]
    report(8, "tangent-cone claims incl. determinantal", ok and time.time() - started < 300)


def test_criterion_9_lemma_checks():
    regular = QuotientRing(2, ["x", "y"])
    node = QuotientRing(2, ["x", "y"], ["x*y"])
    ok = check_colon_lemma(regular, regular.parse("x"), 3).verdict == "pass"
    ok = ok and check_colon_lemma(node, node.parse("x+y"), 3).verdict == "pass"
    red = check_reduction(Ideal(node, ["x+y"]), 4)
    ok = ok and red.verdict == "pass" and red.details["n0"] == 1
    ok = ok and check_reduction(Ideal(regular, ["x^2", "y^2"]), 4).verdict == "fail"
    ok = ok and check_superficial(node.parse("x+y"), 3, 4).verdict == "pass"
    ok = ok and check_superficial(node.parse("x"), 3, 4).verdict == "fail"
    sep = check_lemma22(Ideal(regular, ["x^2", "y^2"]), Ideal(regular, ["x^2", "x*y", "y^2"]))
    ok = ok and sep.details["separating_degree"] == 2 and sep.details["separating_class"] == "x*y"
    report(9, "colon/reduction/superficial/lemma22 checks", ok)


def test_criterion_10_f_rationality_probes():
    started = time.time()
    regular = QuotientRing(2, ["x", "y"])
    probe = f_rational_probe(Ideal(regular, ["x", "y"]), regular.one(), 3)
    ok = probe.verdict == "certified_star_trivial_up_to_socle"
    ok = ok and probe.socle_probes[0].verdict.witness_e == 1
    cusp = QuotientRing(3, ["x", "y"], ["x^2 - y^3"])
    cusp_probe = f_rational_probe(Ideal(cusp, ["y"]), cusp.parse("x"), 3)
    ok = ok and cusp_probe.verdict == "not_certified"
    ok = ok and [
        (s.representative, s.verdict.kind, s.verdict.checked_through)
        for s in cusp_probe.socle_probes
    ] == [("x", "consistent_with_star", 3)]
    fermat = QuotientRing(2, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    fermat_probe = f_rational_probe(Ideal(fermat, ["x", "y"]), fermat.parse("x^2"), 3)
    ok = ok and fermat_probe.verdict == "not_certified"
    ok = ok and [
        (s.representative, s.verdict.kind, s.verdict.checked_through)
        for s in fermat_probe.socle_probes
    ] == [("z^2", "consistent_with_star", 3)]
    report(10, "F-rationality probes", ok and time.time() - started < 600)
