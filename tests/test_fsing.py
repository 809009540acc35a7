from fractions import Fraction

import pytest

from fthresh import (
    Ideal,
    QuotientRing,
    RingError,
    f_rational_probe,
    fedder_f_pure,
    fpt_estimate,
    nu,
    tc_member,
    threshold_estimate,
)
from fthresh.fsing import FPurityError


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fedder_node_rings_f_pure(p):
    assert fedder_f_pure(QuotientRing(p, ["x", "y"], ["x*y"]))


def test_fedder_cuspidal_cubic_not_f_pure():
    assert not fedder_f_pure(QuotientRing(2, ["x", "y"], ["x^3 + y^3"]))


def test_fedder_split_quadric_f_pure():
    assert fedder_f_pure(QuotientRing(3, ["x", "y"], ["x^2 - y^2"]))


def test_fedder_regular_rings(regular2):
    assert fedder_f_pure(regular2)


def test_fpt_maximal_ideal_regular(regular2):
    est = fpt_estimate(regular2.maximal_ideal(), 3)
    assert [(e, q, b) for e, q, b in est.records] == [(1, 2, 2), (2, 4, 6), (3, 8, 14)]
    assert est.guess == 2


def test_fpt_square_in_one_variable():
    ring = QuotientRing(2, ["x"])
    est = fpt_estimate(Ideal(ring, ["x^2"]), 3)
    assert [b for _, _, b in est.records] == [0, 1, 3]
    assert est.guess == Fraction(1, 2)
    assert est.upper - est.lower <= Fraction(3, 8)


def test_fpt_node_maximal_ideal(node2):
    est = fpt_estimate(node2.maximal_ideal(), 3)
    assert [b for _, _, b in est.records] == [0, 0, 0]
    assert est.guess == 0
    assert "fpt-upper-heuristic" in est.caveats


def test_fpt_requires_f_purity():
    ring = QuotientRing(2, ["x", "y"], ["x^3 + y^3"])
    with pytest.raises(FPurityError):
        fpt_estimate(ring.maximal_ideal(), 2)


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 2)])
def test_fpt_equals_nu_on_regular_rings(p, d):
    # on L = 0 the splitting colon is the unit ideal, so b and nu must agree;
    # this validates the pigeonhole upper bracket where c = d exactly
    names = ["x", "y", "z"][:d]
    ring = QuotientRing(p, names)
    a = Ideal(ring, names + ["x^2" if d == 1 else "x*y"])
    est = fpt_estimate(a, 2)
    m = ring.maximal_ideal()
    for e, q, b in est.records:
        assert b == nu(a, m, e).nu
    assert est.lower <= d <= est.upper


def test_fpt_ratios_scale(node2, regular2):
    for ring in (node2, regular2):
        est = fpt_estimate(ring.maximal_ideal(), 3)
        values = [b for _, _, b in est.records]
        for prev, nxt in zip(values, values[1:]):
            assert nxt >= ring.p * prev


def test_fpt_below_threshold_bracket(regular2, node2):
    # finite-level form of fpt(a) <= c^m(a)
    for ring in (regular2, node2):
        a = ring.maximal_ideal()
        fpt = fpt_estimate(a, 3)
        thr = threshold_estimate(a, a, 3)
        for (e, q, b), rec in zip(fpt.records, thr.records):
            assert b <= rec.nu
        assert fpt.lower <= thr.upper


def test_tc_member_regular_certifies(regular2):
    verdict = tc_member(regular2.parse("y"), Ideal(regular2, ["x"]), regular2.one(), 3)
    assert verdict.kind == "certified_not_in_star" and verdict.witness_e == 1
    again = tc_member(regular2.parse("x^2"), Ideal(regular2, ["x"]), regular2.one(), 3)
    assert again.kind == "member"


def test_tc_member_fermat_socle_consistent(fermat_cubic):
    verdict = tc_member(
        fermat_cubic.parse("z^2"), Ideal(fermat_cubic, ["x", "y"]), fermat_cubic.parse("x^2"), 3
    )
    assert verdict.kind == "consistent_with_star"
    assert verdict.checked_through == 3
    assert "multiplier-asserted-as-test-element" in verdict.assumptions


def test_tc_verdicts_reverify_from_witnesses(regular2, fermat_cubic):
    j = Ideal(regular2, ["x"])
    verdict = tc_member(regular2.parse("y"), j, regular2.one(), 3)
    e = verdict.witness_e
    y = regular2.parse("y")
    assert not j.bracket(regular2.p**e).contains_poly(regular2.one() * y.frobenius(e))
    jf = Ideal(fermat_cubic, ["x", "y"])
    consistent = tc_member(fermat_cubic.parse("z^2"), jf, fermat_cubic.parse("x^2"), 3)
    z2, c = fermat_cubic.parse("z^2"), fermat_cubic.parse("x^2")
    for e in range(1, consistent.checked_through + 1):
        assert jf.bracket(fermat_cubic.p**e).contains_poly(c * z2.frobenius(e))


def test_tc_member_requires_nonzero_multiplier(regular2):
    with pytest.raises(RingError):
        tc_member(regular2.parse("y"), Ideal(regular2, ["x"]), regular2.zero(), 2)


def test_tc_member_domain_screen():
    reducible = QuotientRing(3, ["x", "y"], ["x^2 - y^2"])  # (x-y)(x+y): not a domain
    j = Ideal(reducible, ["y"])
    with pytest.raises(RingError):
        tc_member(reducible.parse("x"), j, reducible.parse("x"), 2)
    verdict = tc_member(reducible.parse("x"), j, reducible.parse("x"), 2, assume_domain=True)
    assert "domain-asserted-by-user" in verdict.assumptions


def test_f_rational_probe_regular_certified_at_one(regular2):
    report = f_rational_probe(Ideal(regular2, ["x", "y"]), regular2.one(), 3)
    assert report.verdict == "certified_star_trivial_up_to_socle"
    probe = report.socle_probes[0]
    assert probe.representative == "1"
    assert probe.verdict.witness_e == 1
    assert probe.excludes_dimension


def test_f_rational_probe_cusp_not_certified(cusp3):
    report = f_rational_probe(Ideal(cusp3, ["y"]), cusp3.parse("x"), 3)
    assert report.verdict == "not_certified"
    probe = report.socle_probes[0]
    assert probe.representative == "x"
    assert probe.verdict.kind == "consistent_with_star"
    assert report.test_element_suggestions  # Jacobian candidates for a hypersurface


def test_f_rational_probe_fermat_not_certified(fermat_cubic):
    report = f_rational_probe(Ideal(fermat_cubic, ["x", "y"]), fermat_cubic.parse("x^2"), 3)
    assert report.verdict == "not_certified"
    probe = report.socle_probes[0]
    assert probe.representative == "z^2"
    assert probe.verdict.kind == "consistent_with_star"


def test_f_rational_probe_requires_system_of_parameters(regular2):
    with pytest.raises(RingError):
        f_rational_probe(Ideal(regular2, ["x"]), regular2.one(), 2)
    with pytest.raises(RingError):
        f_rational_probe(Ideal(regular2, ["x", "y", "x+y"]), regular2.one(), 2)


def test_f_rational_probe_flags_basis_only_socle():
    # twisted cubic cone: non-Gorenstein, so parameter quotients have fat socles
    ring = QuotientRing(2, ["x", "y", "z", "w"], ["y^2 - x*z", "y*z - x*w", "z^2 - y*w"])
    j = Ideal(ring, ["x", "w"])
    assert sorted(str(r) for r in j.socle()) == ["y", "z"]
    report = f_rational_probe(j, ring.parse("x"), 2, assume_domain=True)
    assert "socle-basis-only" in report.caveats
    assert "domain-asserted-by-user" in report.assumptions
    assert report.verdict == "certified_star_trivial_up_to_socle"
