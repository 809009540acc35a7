import random

import pytest

from fthresh import (
    AtLeast,
    Ideal,
    QuotientRing,
    gr_of_ideal,
    gr_presentation,
    hilbert_data,
    initial_form,
    ord_of,
    verify_gr_claim,
)
from fthresh import graded
from fthresh.cli import Session
from fthresh.graded import TruncationError
from fthresh.ring import monomials_of_degree, transfer
from fthresh.verifier import random_hypersurface, random_m_primary
from conftest import session_path
from oracles import hilbert_monomial_oracle


def test_ord_examples(regular2, blowup):
    ambient4 = QuotientRing(2, ["x", "y", "z", "w"])
    assert ord_of(ambient4.parse("x*y"), ambient4, 8) == 2
    assert ord_of(ambient4.parse("z^2*w"), ambient4, 8) == 3
    assert ord_of(regular2.parse("x + x^2"), regular2, 8) == 1
    cusp_like = QuotientRing(2, ["x", "y"], ["x^2 + y^3"])
    assert ord_of(cusp_like.parse("x^2"), cusp_like, 8) == 3
    # elements of L have zero coset: order at least the cutoff, at every cutoff
    for cutoff in (2, 5, 9):
        assert ord_of(blowup.parse("x*y - z^2*w"), blowup, cutoff) == AtLeast(cutoff)


def test_initial_form_examples(regular2):
    ambient4 = QuotientRing(2, ["x", "y", "z", "w"])
    assert str(initial_form(ambient4.parse("x*y - z^2*w"), ambient4, 8)) == "x*y"
    assert str(initial_form(regular2.parse("x + y^2"), regular2, 8)) == "x"
    cusp_like = QuotientRing(2, ["x", "y"], ["x^2 + y^3"])
    assert str(initial_form(cusp_like.parse("x^2"), cusp_like, 8)) == "y^3"
    with pytest.raises(TruncationError):
        initial_form(cusp_like.parse("x^2 + y^3"), cusp_like, 8)


def test_gr_presentation_principal_shortcut(blowup):
    pres = gr_presentation(blowup, 8)
    assert pres.exact and pres.method == "principal"
    assert [str(g) for g in pres.initial_relations] == ["x*y"]
    other = gr_presentation(QuotientRing(2, ["x", "y"], ["x^2 - y^3"]), 8)
    assert other.exact
    assert [str(g) for g in other.initial_relations] == ["x^2"]


def test_gr_presentation_regular_and_homogeneous(regular2, node4):
    assert gr_presentation(regular2, 6).method == "zero"
    pres = gr_presentation(node4, 6)
    assert pres.exact
    assert [str(g) for g in pres.initial_relations] == ["x*y"]
    multi = gr_presentation(QuotientRing(2, ["x", "y", "z", "w"], ["x*y", "z^2"]), 6)
    assert multi.exact and multi.method == "homogeneous"


def test_gr_of_ideal_examples(regular2):
    pres = gr_presentation(regular2, 6)
    m = regular2.maximal_ideal()
    grm = gr_of_ideal(m, pres, 6)
    assert grm.exact
    assert grm.ideal.equals(pres.graded_ring.maximal_ideal())
    mixed = gr_of_ideal(Ideal(regular2, ["x + y^2", "y^5"]), pres, 6)
    assert mixed.ideal.equals(Ideal(pres.graded_ring, ["x", "y^5"]))
    homogeneous = gr_of_ideal(Ideal(regular2, ["x^2", "y^2"]), pres, 6)
    assert homogeneous.exact
    assert homogeneous.ideal.equals(Ideal(pres.graded_ring, ["x^2", "y^2"]))


def test_gr_of_powers_of_maximal_ideal(blowup):
    pres = gr_presentation(blowup, 8)
    graded = pres.graded_ring
    for t in range(1, 5):
        lhs = gr_of_ideal(blowup.maximal_ideal().power(t), pres, 8)
        rhs = Ideal(graded, [graded.monomial(m) for m in monomials_of_degree(4, t)])
        assert lhs.ideal.equals(rhs)


def test_gr_of_ideal_requires_m_primary(regular2):
    pres = gr_presentation(regular2, 6)
    with pytest.raises(Exception):
        gr_of_ideal(Ideal(regular2, ["x"]), pres, 6)


def test_hilbert_examples(regular2, node4):
    assert hilbert_data(regular2, 3).values == [1, 2, 3, 4]
    tiny = QuotientRing(2, ["x"], ["x^2"])
    assert hilbert_data(tiny, 3).values == [1, 1, 0, 0]
    # oracle by monomial enumeration: C(i+3,3) - C(i+1,3) gives 1, 4, 9, 16
    oracle = hilbert_monomial_oracle([(1, 1, 0, 0)], 4, 3)
    assert oracle == [1, 4, 9, 16]
    assert hilbert_data(node4, 3).values == oracle


def test_verify_gr_claim_blowup(blowup):
    report = verify_gr_claim(["x*y"], blowup, 4)
    assert report.passed
    witness = report.witnesses["x*y"]
    assert ord_of(witness, QuotientRing(2, ["x", "y", "z", "w"]), 8) == 2
    rejected = verify_gr_claim(["z^2*w"], blowup, 4)
    assert not rejected.passed
    assert "initial form" in rejected.reason


def test_verify_gr_claim_needs_homogeneous(blowup):
    report = verify_gr_claim(["x*y + z"], blowup, 4)
    assert not report.passed


def _random_poly(rng, ring, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        if sum(m) == 0:
            continue
        terms[m] = rng.randint(1, ring.p - 1)
    return ring.from_terms(terms)


@pytest.mark.parametrize("seed", range(8))
def test_initial_form_multiplicative_over_polynomial_ring(seed, regular2):
    rng = random.Random(seed)
    f, g = _random_poly(rng, regular2), _random_poly(rng, regular2)
    if f.is_zero() or g.is_zero():
        pytest.skip("zero draw")
    cutoff = f.degree() + g.degree() + 2
    lhs = initial_form(f * g, regular2, cutoff)
    rhs = initial_form(f, regular2, cutoff) * initial_form(g, regular2, cutoff)
    assert lhs == rhs
    assert ord_of(f * g, regular2, cutoff) == ord_of(f, regular2, cutoff) + ord_of(
        g, regular2, cutoff
    )


@pytest.mark.parametrize("seed", range(8))
def test_ord_superadditive_on_sums(seed, node2):
    rng = random.Random(50 + seed)
    f, g = _random_poly(rng, node2), _random_poly(rng, node2)
    if (f + g).is_zero():
        pytest.skip("cancelling draw")
    cutoff = 7
    vals = []
    for h in (f, g, f + g):
        v = ord_of(h, node2, cutoff)
        vals.append(v.bound if isinstance(v, AtLeast) else v)
    assert vals[2] >= min(vals[0], vals[1])


def test_principal_shortcut_consistent_with_hilbert(blowup):
    pres = gr_presentation(blowup, 5)
    assert hilbert_data(blowup, 5).values == hilbert_data(pres, 5).values


def test_quotient_compatibility_on_hypersurface(blowup):
    # in(z) is a nonzerodivisor on k[x,y,z,w]/(xy); killing z commutes with gr
    pres = gr_presentation(blowup, 5)
    collapsed = QuotientRing(2, ["x", "y", "z", "w"], ["x*y - z^2*w", "z"])
    graded_mod = QuotientRing(
        2, ["x", "y", "z", "w"], [str(g) for g in pres.initial_relations] + ["z"]
    )
    lhs = hilbert_data(collapsed, 5).values
    rhs = hilbert_data(gr_presentation(graded_mod, 5), 5).values
    assert lhs == rhs


def test_truncated_presentation_matches_on_plane_curve():
    ring = QuotientRing(2, ["x", "y"], ["x^2 + y^3", "x*y^4"])
    pres = gr_presentation(ring, 8)
    assert not pres.exact
    assert hilbert_data(ring, 8).values == hilbert_data(pres, 8).values


def test_deformed_determinantal_cone_diverges_past_the_claim():
    # the column syzygy collapses x23*g1 - x22*g2 + x21*g3 to the degree-7
    # monomial x23*M, which escapes the ideal of minors (a prime ideal
    # containing no monomial), so the claimed cone is only valid as a
    # truncated statement: generators realizable and Hilbert data equal in
    # low degrees, no claim past the bound
    from fthresh.ideals import zero_ideal
    from fthresh.ring import transfer

    det = QuotientRing(
        2,
        ["x11", "x12", "x13", "x21", "x22", "x23"],
        [
            "x11*x22 - x12*x21 + x11*x12*x13*x21*x22*x23",
            "x11*x23 - x13*x21",
            "x12*x23 - x13*x22",
        ],
    )
    combo = det.parse(
        "x23*(x11*x22 - x12*x21 + x11*x12*x13*x21*x22*x23)"
        " - x22*(x11*x23 - x13*x21) + x21*(x12*x23 - x13*x22)"
    )
    assert str(combo) == "x11*x12*x13*x21*x22*x23^2"
    assert zero_ideal(det).contains_poly(combo)
    ambient = QuotientRing(2, det.variables)
    minors = Ideal(
        ambient,
        ["x11*x22 - x12*x21", "x11*x23 - x13*x21", "x12*x23 - x13*x22"],
    )
    assert not minors.contains_poly(transfer(combo, ambient))
    assert det.dimension == 3


def test_oversized_macaulay_matrix_is_refused_before_allocation():
    # default truncation 16 in six variables: 74613 columns and more than
    # 10^4 product rows, far past the 2^27-cell bound
    ring = QuotientRing(2, ["a", "b", "c", "d", "e", "f"], ["a*b - c^6", "d*e - f^6"])
    with pytest.raises(TruncationError, match="exceeds the bound of 134217728 cells"):
        gr_presentation(ring)


def test_determinantal_cone_at_the_default_truncation_is_refused_before_any_row(monkeypatch):
    ring = Session.load(session_path("ex-determinantal.json")).ring

    def no_rows(*args):
        raise AssertionError("a product row was built")

    monkeypatch.setattr(graded, "monomial_mul", no_rows)
    with pytest.raises(TruncationError, match="194113 x 74613 cells through degree 16"):
        gr_presentation(ring, 16)


@pytest.mark.parametrize("p", [2, 3])
def test_initial_ideal_has_the_colength_of_the_ideal(p):
    """length S/in(I) = length S/I on the 25 theorem A trials per prime of criterion 4.

    Both sides are counted on Groebner staircases, with no Macaulay matrix.
    """
    for trial in range(25):
        rng = random.Random(trial)
        ring = random_hypersurface(rng, p)
        b = random_m_primary(rng, ring)
        initial = gr_of_ideal(b, gr_presentation(ring), b.nilpotency_degree())
        assert initial.exact
        ambient = QuotientRing(p, ring.variables)
        lifted = list(initial.ideal.generators) + list(initial.ideal.ring.relations)
        original = list(b.generators) + list(ring.relations)
        colengths = [
            len(Ideal(ambient, [transfer(g, ambient) for g in gens]).standard_monomials())
            for gens in (lifted, original)
        ]
        assert colengths[0] == colengths[1], (trial, colengths)
