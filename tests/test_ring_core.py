import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fthresh import ParseError, QuotientRing, RingError, parse_poly
from fthresh.ring import (
    MAX_EXPONENT,
    DivisorIndex,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
)


def test_parse_mod2_reduction():
    ring = QuotientRing(2, ["x", "y", "z", "w"])
    assert str(parse_poly("x*y - z^2*w", ring)) == "z^2*w + x*y"


def test_parse_coefficients_vanish_mod3():
    ring = QuotientRing(3, ["x"])
    assert parse_poly("3*x + 3", ring).is_zero()


def test_parse_freshmans_dream():
    ring = QuotientRing(2, ["x", "y"])
    assert parse_poly("(x+y)^2", ring) == parse_poly("x^2 + y^2", ring)


def test_parse_reports_position():
    ring = QuotientRing(2, ["x", "y"])
    with pytest.raises(ParseError) as err:
        parse_poly("x + q", ring)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("x + ", ring)
    with pytest.raises(ParseError):
        parse_poly("x ^ y", ring)
    with pytest.raises(ParseError):
        parse_poly("-x", ring)  # grammar has no unary minus


def test_parse_exponent_overflow():
    ring = QuotientRing(2, ["x"])
    with pytest.raises(ParseError):
        parse_poly(f"x^{MAX_EXPONENT + 1}", ring)


def test_prime_field_rejects_composites():
    with pytest.raises(RingError, match="characteristic 9 is not prime"):
        QuotientRing(9, ["x"])
    with pytest.raises(RingError, match=r"characteristic must be an integer in \[2, 2\^16\]"):
        QuotientRing(1, ["x"])
    assert QuotientRing(65521, ["x"]).p == 65521


def test_relation_must_not_be_a_unit():
    with pytest.raises(RingError):
        QuotientRing(2, ["x"], ["x + 1"])


def test_frobenius_examples():
    ring = QuotientRing(2, ["x", "y"])
    f = ring.parse("x + y")
    assert f.frobenius(1) == ring.parse("x^2 + y^2")
    ring3 = QuotientRing(3, ["x", "y"])
    assert ring3.parse("(x+y)^2") == ring3.parse("x^2 + 2*x*y + y^2")
    g = ring.parse("x*y")
    assert g * ring.one() == g


small_ring = QuotientRing(3, ["x", "y"])


def polys(ring=small_ring, max_terms=4, max_exp=3):
    def build(pairs):
        terms = {}
        for (ex, ey, c) in pairs:
            terms[(ex, ey)] = (terms.get((ex, ey), 0) + c) % ring.p
        return ring.from_terms(terms)

    return st.lists(
        st.tuples(
            st.integers(0, max_exp), st.integers(0, max_exp), st.integers(1, ring.p - 1)
        ),
        max_size=max_terms,
    ).map(build)


@given(polys(), polys(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_frobenius_is_a_ring_map(f, g, e):
    assert (f + g).frobenius(e) == f.frobenius(e) + g.frobenius(e)
    assert (f * g).frobenius(e) == f.frobenius(e) * g.frobenius(e)


@given(polys())
@settings(max_examples=60, deadline=None)
def test_parse_print_parse_identity(f):
    assert parse_poly(str(f), small_ring) == f


@given(polys(), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_pow_agrees_with_repeated_mul(f, k):
    expected = small_ring.one()
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


@given(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
)
@settings(max_examples=60, deadline=None)
def test_monomial_order_total_and_multiplicative(a, b, c):
    ka, kb = grevlex_key(a), grevlex_key(b)
    assert (ka < kb) + (kb < ka) + (a == b) == 1
    if ka < kb:
        assert grevlex_key(monomial_mul(a, c)) < grevlex_key(monomial_mul(b, c))
    if sum(a) < sum(b):
        assert ka < kb


@st.composite
def monomial_pairs(draw):
    """Two exponent tuples of one length 0-6; half the draws shift a to b, so that a divides b."""
    nvars = draw(st.integers(0, 6))
    a = draw(st.tuples(*[st.integers(0, 9)] * nvars))
    if draw(st.booleans()):
        b = tuple(x + draw(st.integers(0, 9)) for x in a)
    else:
        b = draw(st.tuples(*[st.integers(0, 9)] * nvars))
    return a, b


@given(monomial_pairs())
@example(((), ()))
@example(((0,), (0,)))
@example(((3,), (2,)))
@example(((0, 0, 0), (4, 0, 1)))
@settings(max_examples=300, deadline=None)
def test_monomial_primitives_match_their_elementwise_definitions(pair):
    a, b = pair
    n = len(a)
    assert monomial_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
    assert monomial_lcm(a, b) == tuple(max(a[i], b[i]) for i in range(n))
    divides = all(a[i] <= b[i] for i in range(n))
    assert monomial_divides(a, b) is divides
    if divides:
        assert monomial_div(b, a) == tuple(b[i] - a[i] for i in range(n))
        assert monomial_mul(monomial_div(b, a), a) == b


@st.composite
def staircases(draw):
    """(gens, nvars, degree): 1-4 variables, degree 0-12, gens possibly empty, repeated or holding 0."""
    nvars = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 6)] * nvars), max_size=6))
    if gens and draw(st.booleans()):
        gens.append(gens[0])
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * nvars)
    return gens, nvars, draw(st.integers(0, 12))


@given(staircases())
@example(([], 3, 7))
@example(([(1, 2), (1, 2), (3, 0)], 2, 5))
@example(([(0, 0, 0, 0)], 4, 0))
@example(([(2,), (0,)], 1, 12))
@settings(max_examples=300, deadline=None)
def test_monomials_outside_is_the_filtered_sweep(case):
    gens, nvars, degree = case
    expected = [
        m for m in monomials_of_degree(nvars, degree) if not any(monomial_divides(g, m) for g in gens)
    ]
    index = DivisorIndex(gens, nvars)
    assert list(index.outside(degree, index.everything)) == expected


@st.composite
def m_primary_staircases(draw):
    """A pure power of every variable plus mixed gens, at a degree up to past the top of the staircase."""
    nvars = draw(st.integers(1, 4))
    powers = draw(st.lists(st.integers(1, 7), min_size=nvars, max_size=nvars))
    gens = [tuple(e if j == i else 0 for j in range(nvars)) for i, e in enumerate(powers)]
    gens += draw(st.lists(st.tuples(*[st.integers(0, 5)] * nvars), max_size=6))
    gens = draw(st.permutations(gens))
    top = sum(powers) - nvars  # the largest degree outside the pure powers
    return gens, nvars, draw(st.integers(0, top + 3))


# a captured theoremA-suite staircase; nothing lies outside it at degree 43
_THEOREM_A_STAIRCASE = [
    (0, 0, 0, 27), (0, 0, 9, 9), (0, 0, 27, 0), (0, 9, 0, 18), (0, 9, 18, 0), (0, 18, 0, 9),
    (0, 18, 9, 0), (0, 27, 0, 0), (1, 1, 0, 1), (9, 0, 0, 18), (9, 0, 18, 0), (9, 9, 9, 0),
    (9, 18, 0, 0), (18, 0, 0, 9), (18, 0, 9, 0), (18, 9, 0, 0), (27, 0, 0, 0),
]


@given(m_primary_staircases())
@example((_THEOREM_A_STAIRCASE, 4, 43))
@example(([(3, 0), (0, 2), (1, 1)], 2, 4))
@settings(max_examples=300, deadline=None)
def test_monomials_outside_cuts_m_primary_staircases_exactly(case):
    gens, nvars, degree = case
    expected = [
        m for m in monomials_of_degree(nvars, degree) if not any(monomial_divides(g, m) for g in gens)
    ]
    index = DivisorIndex(gens, nvars)
    assert list(index.outside(degree, index.everything)) == expected


def _random_exponent(rng):
    """Mostly small, so that staircases are met at low degrees; sometimes up to MAX_EXPONENT."""
    return rng.choice([rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, MAX_EXPONENT), MAX_EXPONENT])


def _probe(rng, leads, nvars):
    """A monomial near a lead: a multiple of it, or one step below it in one variable; else a random one."""
    if not leads or rng.random() < 0.25:
        return tuple(_random_exponent(rng) for _ in range(nvars))
    n = [e + rng.choice([0, 0, 1, rng.randint(0, MAX_EXPONENT)]) for e in rng.choice(leads)]
    if rng.random() < 0.5:
        i = rng.randrange(nvars)
        n[i] = max(n[i] - 1, 0)
    return tuple(n)


@pytest.mark.parametrize("seed", range(60))
def test_divisor_index_agrees_with_the_linear_scan(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 5)
    leads = [tuple(_random_exponent(rng) for _ in range(nvars)) for _ in range(rng.randint(0, 12))]
    if leads and rng.random() < 0.3:
        leads.append(rng.choice(leads))
    index = DivisorIndex(leads, nvars)
    assert index.everything == (1 << len(leads)) - 1
    for _ in range(60):
        live = rng.getrandbits(len(leads)) if rng.random() < 0.7 else index.everything
        n = _probe(rng, leads, nvars)
        dividing = [k for k, g in enumerate(leads) if live >> k & 1 and monomial_divides(g, n)]
        found = index.divisors(n, live)
        assert found == sum(1 << k for k in dividing)
        # the lowest set bit is the reducer a scan of the leads in list order would take first
        assert (found & -found).bit_length() - 1 == (dividing[0] if dividing else -1)
    for _ in range(4):
        live = rng.getrandbits(len(leads))
        degree = rng.randint(0, 10)
        live_leads = [g for k, g in enumerate(leads) if live >> k & 1]
        expected = [
            m for m in monomials_of_degree(nvars, degree) if not any(monomial_divides(g, m) for g in live_leads)
        ]
        assert list(index.outside(degree, live)) == expected


def test_ring_mismatch_raises():
    r1 = QuotientRing(2, ["x", "y"])
    r2 = QuotientRing(3, ["x", "y"])
    with pytest.raises(RingError):
        r1.parse("x") + r2.parse("x")
