import random
import time

import pytest

from fthresh import (
    AtLeast,
    Ideal,
    QuotientRing,
    check_superficial,
    gr_of_ideal,
    gr_presentation,
    hilbert_data,
    initial_form,
    ord_of,
    ring_dimension,
    verify_gr_claim,
)
from fthresh import graded
from fthresh.cli import Session
from fthresh.graded import TruncationError
from fthresh.ideals import eliminate, zero_ideal
from fthresh.ring import monomials_of_degree, transfer
from fthresh.verifier import _colon_mismatch, random_hypersurface, random_m_primary
from conftest import session_path
from oracles import hilbert_monomial_oracle, hilbert_oracle, order_oracle


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


def test_gr_presentation_principal(blowup):
    pres = gr_presentation(blowup)
    assert [str(g) for g in pres.relations] == ["x*y"]
    other = gr_presentation(QuotientRing(2, ["x", "y"], ["x^2 - y^3"]))
    assert [str(g) for g in other.relations] == ["x^2"]


def test_gr_presentation_regular_and_homogeneous(regular2, node4):
    assert gr_presentation(regular2).relations == ()
    pres = gr_presentation(node4)
    assert [str(g) for g in pres.relations] == ["x*y"]
    multi = gr_presentation(QuotientRing(2, ["x", "y", "z", "w"], ["x*y", "z^2"]))
    assert [str(g) for g in multi.relations] == ["z^2", "x*y"]


def test_gr_of_ideal_examples(regular2):
    pres = gr_presentation(regular2)
    m = regular2.maximal_ideal()
    assert gr_of_ideal(m).equals(pres.maximal_ideal())
    mixed = gr_of_ideal(Ideal(regular2, ["x + y^2", "y^5"]))
    assert mixed.equals(Ideal(pres, ["x", "y^5"]))
    homogeneous = gr_of_ideal(Ideal(regular2, ["x^2", "y^2"]))
    assert homogeneous.equals(Ideal(pres, ["x^2", "y^2"]))


def test_gr_of_powers_of_maximal_ideal(blowup):
    graded = gr_presentation(blowup)
    for t in range(1, 5):
        lhs = gr_of_ideal(blowup.maximal_ideal().power(t))
        rhs = Ideal(graded, [graded.monomial(m) for m in monomials_of_degree(4, t)])
        assert lhs.equals(rhs)


def test_the_cone_is_built_once_per_ring(monkeypatch):
    # gr_presentation, gr_of_ideal and the dimension all read one memoized S/in(L)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(graded, "eliminate", counted)
    ring = QuotientRing(2, ["x", "y", "z"], ["x*y - z^3", "x^2 + y^2*z"])
    cone = gr_presentation(ring)
    assert gr_presentation(ring) is cone
    assert gr_of_ideal(ring.maximal_ideal().power(2)).ring is cone
    assert ring.dimension == ring_dimension(cone)
    assert len(calls) == 1


def test_gr_of_ideal_requires_m_primary(regular2):
    with pytest.raises(Exception):
        gr_of_ideal(Ideal(regular2, ["x"]))


def _random_form(rng, ring, degree):
    """Sum of one to three degree-`degree` monomials with nonzero coefficients."""
    monomials = list(monomials_of_degree(ring.nvars, degree))
    out = ring.zero()
    for m in rng.sample(monomials, min(len(monomials), rng.randint(1, 3))):
        out = out + ring.monomial(m, rng.randint(1, ring.p - 1))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_homogeneous_shortcut_is_the_initial_ideal(p):
    """Homogeneous L and a: a's own generators give the matrix path's in(a + L) in S/in(L)."""
    for seed in range(20):
        rng = random.Random(seed)
        names = ["x", "y", "z"][: rng.randint(2, 3)]
        ambient = QuotientRing(p, names)
        relations = [_random_form(rng, ambient, rng.randint(2, 3)) for _ in range(rng.randint(1, 2))]
        ring = QuotientRing(p, names, relations)
        k = rng.randint(1, 3)
        forms = [_random_form(rng, ring, rng.randint(1, k)) for _ in range(rng.randint(1, 2))]
        a = ring.maximal_ideal().power(k) + Ideal(ring, forms)
        shortcut = gr_of_ideal(a)
        assert [str(g) for g in shortcut.generators] == [str(g) for g in a.generators]
        cone = gr_presentation(ring)
        exact = Ideal(cone, [cone.from_terms(t) for t in graded._initial_terms(a)])
        assert shortcut.equals(exact), (seed, ring, a)


def test_hilbert_examples(regular2, node4):
    assert hilbert_data(regular2, 3) == [1, 2, 3, 4]
    tiny = QuotientRing(2, ["x"], ["x^2"])
    assert hilbert_data(tiny, 3) == [1, 1, 0, 0]
    # oracle by monomial enumeration: C(i+3,3) - C(i+1,3) gives 1, 4, 9, 16
    oracle = hilbert_monomial_oracle([(1, 1, 0, 0)], 4, 3)
    assert oracle == [1, 4, 9, 16]
    assert hilbert_data(node4, 3) == oracle


@pytest.mark.parametrize(
    "name,D",
    [("ex-regular", 8), ("ex-blowup", 8), ("ex-node4", 8), ("ex-determinantal", 5),
     ("ex-fermat-cubic", 8), ("ex-cusp", 8)],
)
def test_hilbert_data_matches_the_dense_oracle(name, D):
    ring = Session.load(session_path(f"{name}.json")).ring
    expected = hilbert_oracle([g.terms for g in ring.relations], ring.nvars, ring.p, D)
    assert hilbert_data(ring, D) == expected


def test_hilbert_data_matches_the_dense_oracle_on_random_rings():
    for seed in range(50):
        rng = random.Random(700 + seed)
        p = rng.choice([2, 3, 5])
        ambient = QuotientRing(p, ["x", "y", "z"][: rng.randint(2, 3)])
        relations = [f for f in (_random_poly(rng, ambient) for _ in range(rng.randint(1, 3))) if not f.is_zero()]
        ring = QuotientRing(p, ambient.variables, [str(f) for f in relations])
        expected = hilbert_oracle([g.terms for g in ring.relations], ring.nvars, p, 5)
        assert hilbert_data(ring, 5) == expected, (seed, ring)


def test_hilbert_data_reads_the_one_matrix(monkeypatch):
    # h_7 = 286 is the exact value on the deformed determinantal ring (the
    # truncated cone gives 288); no basis of m^i + L may be built for it
    ring = Session.load(session_path("ex-determinantal.json")).ring

    def no_power(self, k):
        raise AssertionError("a power of the maximal ideal was built")

    monkeypatch.setattr(QuotientRing, "power_of_maximal_ideal", no_power)
    assert hilbert_data(ring, 7) == [1, 6, 18, 40, 75, 126, 196, 286]
    start = time.perf_counter()
    with pytest.raises(TruncationError, match="through degree 16 of 116280 x 74613 cells"):
        hilbert_data(ring, 16)
    assert time.perf_counter() - start < 1.0


def test_ord_and_initial_form_read_the_relations_matrix(monkeypatch):
    # no basis of m^k + L may be built; the pivot dropped from each in(L)_2
    # element is its lex-smallest monomial, so x12*x21 is written as x11*x22
    ring = Session.load(session_path("ex-determinantal.json")).ring

    def no_power(self, k):
        raise AssertionError("a power of the maximal ideal was built")

    monkeypatch.setattr(QuotientRing, "power_of_maximal_ideal", no_power)
    assert ord_of(ring.parse("x12*x21"), ring, 8) == 2
    assert str(initial_form(ring.parse("x12*x21"), ring, 8)) == "x11*x22"
    assert str(initial_form(ring.parse("x13*x21 + x11^3"), ring, 8)) == "x11*x23"
    assert ord_of(ring.parse("x11^9"), ring, 12) == 9
    assert ord_of(ring.parse("x11*x23 - x13*x21"), ring, 6) == AtLeast(6)
    cusp = Session.load(session_path("ex-cusp.json")).ring
    assert ord_of(cusp.parse("x^2"), cusp, 8) == 3
    assert str(initial_form(cusp.parse("x^2 + y^4"), cusp, 8)) == "y^3"


def test_ord_of_a_relation_past_the_cell_bound_is_refused():
    ring = Session.load(session_path("ex-determinantal.json")).ring
    start = time.perf_counter()
    with pytest.raises(TruncationError, match="through degree 11 of [0-9]+ x [0-9]+ cells exceeds the bound"):
        ord_of(ring.relations[1], ring, 30)
    assert time.perf_counter() - start < 10.0


def _random_graded_poly(rng, ring, low, high):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        m = [0] * ring.nvars
        for _ in range(rng.randint(low, high)):
            m[rng.randrange(ring.nvars)] += 1
        terms[tuple(m)] = rng.randint(1, ring.p - 1)
    return ring.from_terms(terms)


def _random_ring(rng):
    p = rng.choice([2, 3, 5])
    ambient = QuotientRing(p, ["x", "y", "z", "w"][: rng.randint(2, 4)])
    count = rng.choice([0, 1, 2, 3, 3])
    relations = [_random_graded_poly(rng, ambient, rng.choice([1, 2, 2]), 3) for _ in range(count)]
    return QuotientRing(p, ambient.variables, [str(f) for f in relations])


def test_ord_and_initial_form_match_the_dense_oracle_on_random_rings():
    # some elements are moved by an element of L, or replaced by one, so that
    # relations must be reduced away and orders run past the cutoff
    seen = {"at_least": 0, "order": 0, "reduced_form": 0, "nonhomogeneous_relations": 0}
    for seed in range(200):
        rng = random.Random(900 + seed)
        ring = _random_ring(rng)
        f = _random_graded_poly(rng, ring, 1, 4)
        if rng.random() < 0.3:
            # every monomial of one degree: the whole of in(L)_d must be reduced away
            d = rng.randint(1, 3)
            f = f + ring.from_terms({m: rng.randint(1, ring.p - 1) for m in monomials_of_degree(ring.nvars, d)})
        if ring.relations and rng.random() < 0.5:
            shift = _random_graded_poly(rng, ring, 0, 1) * rng.choice(ring.relations)
            f = rng.choice([f, ring.zero()]) + shift
        cutoff = rng.randint(1, 6)
        order, form = order_oracle(f.terms, [g.terms for g in ring.relations], ring.nvars, ring.p, cutoff)
        if order is None:
            assert ord_of(f, ring, cutoff) == AtLeast(cutoff), (seed, ring, f)
            with pytest.raises(TruncationError):
                initial_form(f, ring, cutoff)
            seen["at_least"] += 1
            continue
        assert ord_of(f, ring, cutoff) == order, (seed, ring, f)
        assert initial_form(f, ring, cutoff).terms == form, (seed, ring, f)
        seen["order"] += 1
        seen["reduced_form"] += form != f.homogeneous_component(order).terms
        several = sum(not g.is_homogeneous() for g in ring.relations) > 1
        seen["nonhomogeneous_relations"] += several and ring.nvars > 2
    assert min(seen.values()) >= 10, seen


def _count_builds(monkeypatch):
    """The degree of every relation echelon built from now on, in order."""
    built = []
    product_rows = graded._product_rows

    def counted(gen_polys, nvars, D):
        built.append(D)
        return product_rows(gen_polys, nvars, D)

    monkeypatch.setattr(graded, "_product_rows", counted)
    return built


def test_the_relation_echelon_is_grown_not_rebuilt(monkeypatch):
    # fresh rings: the session fixtures keep their echelons between tests
    ring = QuotientRing(2, ["x", "y", "z"], ["x*y - z^3"])
    built = _count_builds(monkeypatch)
    f = ring.parse("x*y + z^4")
    assert ord_of(f, ring, 8) == 3
    assert built == [2, 3]  # a cold scan builds each degree it reaches
    assert str(initial_form(f, ring, 8)) == "z^3"
    assert ord_of(ring.parse("x*y - z^3"), ring, 8) == AtLeast(8)
    assert built == [2, 3, 4, 5, 6, 7]
    # every degree through 7 is read from the echelons the ring holds
    assert hilbert_data(ring, 7) == [1, 3, 5, 7, 9, 11, 13, 15]
    assert str(initial_form(ring.parse("x^2*y + y^5"), ring, 8)) == "x*z^3"
    assert built == [2, 3, 4, 5, 6, 7]


def test_superficial_builds_one_relation_echelon_for_every_c(monkeypatch):
    ring = QuotientRing(2, ["x", "y", "z"], ["x*y - z^3"])
    built = _count_builds(monkeypatch)
    report = check_superficial(ring.parse("x"), 3, 6)
    assert report.verdict == "fail" and sorted(report.witnesses) == [0, 1, 2, 3]
    # one for the order check, one through n_max that every c reads
    assert len(built) <= 2 and max(built) == 6


def test_a_grown_relation_echelon_gives_the_answers_of_a_new_ring():
    # one ring first builds an echelon far past the degrees asked; each answer must
    # equal the one a new ring from the same inputs gives, building only what it needs
    kinds = {"order": 0, "at_least": 0, "colon_fails": 0}
    for seed in range(40):
        rng = random.Random(1700 + seed)
        grown = _random_ring(rng)

        def new():
            return QuotientRing(grown.p, grown.variables, [str(g) for g in grown.relations])

        graded._relation_echelon(grown, 9)
        for _ in range(3):
            f = _random_graded_poly(rng, grown, 1, 3)
            cutoff = rng.randint(1, 6)
            order = ord_of(f, grown, cutoff)
            assert order == ord_of(f, new(), cutoff), (seed, grown, f)
            if isinstance(order, AtLeast):
                kinds["at_least"] += 1
                continue
            kinds["order"] += 1
            assert initial_form(f, grown, cutoff) == transfer(initial_form(f, new(), cutoff), grown)
        assert hilbert_data(grown, 6) == hilbert_data(new(), 6), (seed, grown)
        x = _random_graded_poly(rng, grown, 1, 2)
        for c in range(3):
            mismatch = _colon_mismatch(grown, x, c, 4)
            fresh = new()
            assert mismatch == _colon_mismatch(fresh, transfer(x, fresh), c, 4), (seed, grown, x, c)
            kinds["colon_fails"] += mismatch is not None
    assert min(kinds.values()) >= 10, kinds


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


def test_principal_cone_consistent_with_hilbert(blowup):
    pres = gr_presentation(blowup)
    assert hilbert_data(blowup, 5) == hilbert_data(pres, 5)


def test_quotient_compatibility_on_hypersurface(blowup):
    # in(z) is a nonzerodivisor on k[x,y,z,w]/(xy); killing z commutes with gr
    pres = gr_presentation(blowup)
    collapsed = QuotientRing(2, ["x", "y", "z", "w"], ["x*y - z^2*w", "z"])
    graded_mod = QuotientRing(
        2, ["x", "y", "z", "w"], [str(g) for g in pres.relations] + ["z"]
    )
    lhs = hilbert_data(collapsed, 5)
    rhs = hilbert_data(gr_presentation(graded_mod), 5)
    assert lhs == rhs


def test_cone_matches_hilbert_data_on_plane_curve():
    ring = QuotientRing(2, ["x", "y"], ["x^2 + y^3", "x*y^4"])
    pres = gr_presentation(ring)
    assert hilbert_data(ring, 8) == hilbert_data(pres, 8)


def test_deformed_determinantal_cone_diverges_past_the_claim():
    # the column syzygy collapses x23*g1 - x22*g2 + x21*g3 to the degree-7
    # monomial x23*M, which escapes the ideal of minors (a prime ideal
    # containing no monomial), so the claimed cone is only valid as a
    # truncated statement: generators realizable and Hilbert data equal in
    # low degrees, no claim past the bound
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
    # the exact cone holds the monomial that the claim misses
    cone = zero_ideal(gr_presentation(det))
    assert cone.contains_poly(transfer(combo, cone.ring))


def test_oversized_macaulay_matrix_is_refused_before_allocation():
    # degree 16 in six variables: 74613 columns and more than 10^4 product
    # rows, far past the 2^27-cell bound; the cone needs no matrix
    ring = QuotientRing(2, ["a", "b", "c", "d", "e", "f"], ["a*b - c^6", "d*e - f^6"])
    with pytest.raises(TruncationError, match="exceeds the bound of 134217728 cells"):
        hilbert_data(ring, 16)
    ambient = QuotientRing(2, ring.variables)
    cone = [transfer(g, ambient) for g in gr_presentation(ring).relations]
    assert Ideal(ambient, cone).equals(Ideal(ambient, ["a*b", "d*e"]))


def test_determinantal_cone_at_the_default_truncation_is_refused_before_any_row(monkeypatch):
    ring = Session.load(session_path("ex-determinantal.json")).ring

    def no_rows(*args):
        raise AssertionError("a product row was built")

    monkeypatch.setattr(graded, "monomial_mul", no_rows)
    with pytest.raises(TruncationError, match="through degree 16 of 116280 x 74613 cells"):
        hilbert_data(ring, 16)
    assert ring_dimension(gr_presentation(ring)) == 3


@pytest.mark.parametrize("p", [2, 3])
def test_initial_ideal_has_the_colength_of_the_ideal(p):
    """length S/in(I) = length S/I on the 25 theorem A trials per prime of criterion 4.

    Both sides are counted on Groebner staircases, with no Macaulay matrix.
    """
    for trial in range(25):
        rng = random.Random(trial)
        ring = random_hypersurface(rng, p)
        b = random_m_primary(rng, ring)
        initial = gr_of_ideal(b)
        ambient = QuotientRing(p, ring.variables)
        lifted = list(initial.generators) + list(initial.ring.relations)
        original = list(b.generators) + list(ring.relations)
        colengths = [
            len(Ideal(ambient, [transfer(g, ambient) for g in gens]).standard_monomials())
            for gens in (lifted, original)
        ]
        assert colengths[0] == colengths[1], (trial, colengths)


# -- the exact tangent cone ------------------------------------------------------

FIXTURE_DIMENSIONS = {
    "ex-regular": 2, "ex-blowup": 3, "ex-node4": 3,
    "ex-determinantal": 3, "ex-fermat-cubic": 2, "ex-cusp": 1,
}


def _fixture(name):
    return Session.load(session_path(f"{name}.json")).ring


def _cone_staircase(ring, D):
    cone = zero_ideal(gr_presentation(ring))
    return [len(cone.standard_monomials_of_degree(d)) for d in range(D + 1)]


def _nonhomogeneous_ring(rng):
    """2-3 relations in 2-4 variables over GF(2), GF(3) or GF(5), at least one not homogeneous."""
    p = rng.choice([2, 3, 5])
    ambient = QuotientRing(p, ["x", "y", "z", "w"][: rng.randint(2, 4)])
    while True:
        relations = [_random_poly(rng, ambient, max_deg=2) for _ in range(rng.randint(2, 3))]
        relations = [f for f in relations if not f.is_zero()]
        if any(not f.is_homogeneous() for f in relations):
            return QuotientRing(p, ambient.variables, relations)


@pytest.mark.parametrize("name", sorted(FIXTURE_DIMENSIONS))
def test_cone_staircase_matches_the_dense_oracle(name):
    ring = _fixture(name)
    expected = hilbert_oracle([g.terms for g in ring.relations], ring.nvars, ring.p, 7)
    assert _cone_staircase(ring, 7) == expected


def test_cone_staircase_matches_the_dense_oracle_on_random_rings():
    for seed in range(100):
        ring = _nonhomogeneous_ring(random.Random(900 + seed))
        expected = hilbert_oracle([g.terms for g in ring.relations], ring.nvars, ring.p, 7)
        assert _cone_staircase(ring, 7) == expected, (seed, ring)


def test_cone_of_a_high_degree_ring_matches_the_dense_oracle():
    # seed 909 of the cone generator with exponents up to 3: the saturation runs in
    # six variables and yields 113 relations; with the coprime criterion alone it ran past 300 s
    ring = QuotientRing(
        2,
        ["x", "y", "z", "w"],
        ["x^3*y^3*z*w^3 + y^3*z*w + x*y*w^2", "x*z^2*w^3 + y^2*z + w^2", "y*z*w + x*w^2"],
    )
    cone = gr_presentation(ring)
    expected = [1, 4, 9, 15, 22, 28, 34, 40, 46]
    assert hilbert_oracle([g.terms for g in ring.relations], 4, 2, 8) == expected
    assert hilbert_oracle([g.terms for g in cone.relations], 4, 2, 8) == expected


def test_cone_generators_pass_verify_gr_claim():
    # every generator is the initial form of a combination of Macaulay rows,
    # and the Hilbert data agree through degree 7
    rings = [_fixture(name) for name in sorted(FIXTURE_DIMENSIONS) if name != "ex-regular"]
    rings += [_nonhomogeneous_ring(random.Random(900 + seed)) for seed in range(30)]
    checked = 0
    for ring in rings:
        cone = gr_presentation(ring).relations
        try:
            report = verify_gr_claim(list(cone), ring, 7)
        except TruncationError:
            continue
        assert report.passed, (ring, report.reason)
        assert set(report.witnesses) == {str(g) for g in cone}
        checked += 1
    assert checked >= 30


def test_gr_presentation_builds_no_macaulay_matrix(monkeypatch):
    def no_rows(*args):
        raise AssertionError("a Macaulay matrix was built")

    monkeypatch.setattr(graded, "_product_rows", no_rows)
    for name, dimension in FIXTURE_DIMENSIONS.items():
        ring = _fixture(name)
        assert ring_dimension(gr_presentation(ring)) == dimension
        assert ring.dimension == dimension
