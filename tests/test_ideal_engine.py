import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fthresh import Ideal, QuotientRing, RingError, ring_dimension
from fthresh import ideals, linalg
from fthresh.cli import Session
from fthresh.ideals import buchberger
from fthresh.ring import elimination_key, grevlex_key, monomial_divides, monomials_of_degree
from fthresh.verifier import check_theorem_A_randomized, random_m_primary
from conftest import session_path
from oracles import macaulay_member


def gb_strings(ideal):
    return [str(g) for g in ideal.groebner_basis()]


def test_groebner_single_monic_generator(regular2):
    assert gb_strings(Ideal(regular2, ["x"])) == ["x"]


def test_groebner_reduces_to_maximal_ideal(regular2):
    assert sorted(gb_strings(Ideal(regular2, ["x+y", "y"]))) == ["x", "y"]


def test_groebner_completion_cross_checked_with_macaulay_oracle(regular2):
    ideal = Ideal(regular2, ["x^2+y", "x*y"])
    basis = gb_strings(ideal)
    assert basis == ["y^2", "x*y", "x^2 + y"]
    gens = [{(2, 0): 1, (0, 1): 1}, {(1, 1): 1}]
    for g in ideal.groebner_basis():
        assert macaulay_member(g.terms, gens, 2, 2, 4)


def test_normal_form_examples(regular2):
    assert Ideal(regular2, ["x"]).normal_form(regular2.parse("x^2")).is_zero()
    assert str(Ideal(regular2, ["x"]).normal_form(regular2.parse("y"))) == "y"
    # hand division oracle: x^3 = x(x^2+y) + xy
    assert str(Ideal(regular2, ["x^2+y"]).normal_form(regular2.parse("x^3"))) == "x*y"


def test_containment_examples(regular2):
    assert Ideal(regular2, ["x"]).contains_poly(regular2.parse("x^2"))
    assert not Ideal(regular2, ["x^2", "y^2"]).contains_poly(regular2.parse("x*y"))
    assert regular2.maximal_ideal().contains(Ideal(regular2, ["x^2", "x*y", "y^2"]))


def test_ideal_operations(regular2):
    m = regular2.maximal_ideal()
    assert sorted(str(g) for g in m.bracket(2).generators) == ["x^2", "y^2"]
    assert sorted(str(g) for g in m.power(2).generators) == ["x*y", "x^2", "y^2"]
    assert (Ideal(regular2, ["x"]) + Ideal(regular2, ["y"])).equals(m)
    with pytest.raises(RingError):
        m.bracket(3)  # not a power of the characteristic


def test_bracket_at_q_one_is_the_handle_itself(regular2):
    # J^[1] = J: the handle, its basis and its normal-form memo serve the e = 0 level
    m = regular2.maximal_ideal()
    assert m.bracket(1) is m


def test_colon_examples(regular2, node2):
    principal = Ideal(regular2, ["x^2*y^2"]).colon(regular2.parse("x*y"))
    assert principal.equals(Ideal(regular2, ["x*y"]))
    m3 = regular2.power_of_maximal_ideal(3)
    assert m3.colon(regular2.parse("x")).equals(regular2.power_of_maximal_ideal(2))
    q = Ideal(regular2, ["x^2*y^2"]).colon(Ideal(regular2, ["x*y"]))
    assert q.equals(Ideal(regular2, ["x*y"]))


def test_colon_rejects_zero(regular2):
    with pytest.raises(RingError):
        regular2.maximal_ideal().colon(regular2.zero())


def test_m_primary_examples(regular2):
    m = regular2.maximal_ideal()
    assert m.is_m_primary() and m.nilpotency_degree() == 1
    assert not Ideal(regular2, ["x"]).is_m_primary()
    ideal = Ideal(regular2, ["x^2", "y^3"])
    assert ideal.is_m_primary()
    # brute force: every degree-4 monomial lands inside, x*y^2 escapes at 3
    assert ideal.nilpotency_degree() == 4


def test_m_primary_catches_non_maximal_support():
    # zero-dimensional but supported away from m: x^2+1 has no root mod 3
    ring = QuotientRing(3, ["x"])
    assert not Ideal(ring, ["x^2 + 1"]).is_m_primary()


def test_nilpotency_sees_through_hidden_powers(regular2):
    # (x^2 + y, y^3) = (x^2 + y, x^6): the staircase bound alone undershoots
    ideal = Ideal(regular2, ["x^2 + y", "y^3"])
    assert ideal.is_m_primary()
    assert ideal.nilpotency_degree() == 6


def test_dimension_examples(regular2, node2, node4):
    assert node4.dimension == 3  # 3-dimensional standard graded ring
    assert regular2.dimension == 2
    assert node2.dimension == 1
    assert ring_dimension(QuotientRing(2, ["x", "y", "z"])) == 3
    # dimension is local: z - 1 is a unit at the origin, so (x*(z - 1), y*(z - 1)) = (x, y)
    # there, while the global dimension also counts the plane z = 1
    local = QuotientRing(2, ["x", "y", "z"], ["x*z - x", "y*z - y"])
    assert local.dimension == 1
    assert ring_dimension(local) == 2


def test_socle_examples(regular2, fermat_cubic):
    ci = Ideal(regular2, ["x^2", "y^2"]).socle()
    assert [str(r) for r in ci] == ["x*y"]
    msq = regular2.power_of_maximal_ideal(2).socle()
    assert sorted(str(r) for r in msq) == ["x", "y"]
    param = Ideal(fermat_cubic, ["x", "y"]).socle()
    assert [str(r) for r in param] == ["z^2"]


def test_socle_requires_m_primary(regular2):
    with pytest.raises(RingError):
        Ideal(regular2, ["x"]).socle()


def test_socle_past_the_cell_bound_is_refused(node4, monkeypatch):
    # the socle kernel of (x^8, y^8, z^8, w^8) + (x*y) reduces 2576 keys x 960 staircase monomials
    target = node4.maximal_ideal().bracket(8)
    monkeypatch.setattr(linalg, "_MAX_MATRIX_CELLS", 2576 * 960 - 1)
    with pytest.raises(RingError, match="socle matrix of 2576 x 960 cells exceeds"):
        target.socle()
    monkeypatch.setattr(linalg, "_MAX_MATRIX_CELLS", 2576 * 960)
    assert len(target.socle()) == 2


@pytest.mark.parametrize("seed", range(30))
def test_standard_monomials_match_the_filtered_box(seed, node2):
    # reference: every exponent tuple below the pure-power caps, minus the staircase, in grevlex order
    rng = random.Random(300 + seed)
    ring = node2 if seed % 2 else QuotientRing(3, ["x", "y", "z"])
    powers = Ideal(ring, [f"{v}^{rng.randint(1, 5)}" for v in ring.variables])
    ideal = _random_ideal(rng, ring, count=3) * ring.maximal_ideal() + powers
    leads = [max(g.terms, key=grevlex_key) for g in ideal.groebner_basis()]
    caps = [next(lead[i] for lead in leads if sum(lead) == lead[i] > 0) for i in range(ring.nvars)]
    box = [m for m in itertools.product(*map(range, caps)) if not any(monomial_divides(g, m) for g in leads)]
    assert ideal.standard_monomials() == sorted(box, key=grevlex_key)


def _random_ideal(rng, ring, count=2, max_deg=2):
    gens = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
            terms[m] = rng.randint(1, ring.p - 1)
        gens.append(ring.from_terms(terms))
    return Ideal(ring, gens)


@pytest.mark.parametrize("seed", range(6))
def test_reduced_basis_idempotent(seed):
    ring = QuotientRing(3, ["x", "y", "z"])
    rng = random.Random(seed)
    ideal = _random_ideal(rng, ring)
    basis = ideal.groebner_basis()
    again = Ideal(ring, list(basis))
    assert [g.terms for g in again.groebner_basis()] == [g.terms for g in basis]


@pytest.mark.parametrize("order", [grevlex_key, elimination_key], ids=["grevlex", "elimination"])
@pytest.mark.parametrize("seed", range(6))
def test_reduced_basis_independent_of_generator_list(seed, order):
    # the reduced basis is unique, so no generator list of the same ideal may move it
    ring = QuotientRing(3, ["t", "x", "y", "z"])
    rng = random.Random(500 + seed)
    gens = list(_random_ideal(rng, ring, count=3).generators)

    def member():
        out = ring.zero()
        for g in gens:
            shift = tuple(rng.randint(0, 1) for _ in range(ring.nvars))
            out = out + (g * ring.monomial(shift)).scale(rng.randint(0, 2))
        return out

    basis = buchberger([g.terms for g in gens], 3, key=order)
    shuffled = rng.sample(gens, len(gens))
    repeated = gens + gens[::-1]
    redundant = gens + [member() for _ in range(3)] + [ring.from_terms(g) for _, g in basis]
    rng.shuffle(redundant)
    for variant in (shuffled, repeated, redundant):
        assert buchberger([g.terms for g in variant], 3, key=order) == basis


@pytest.mark.parametrize("seed", range(8))
def test_membership_matches_macaulay_oracle(seed):
    ring = QuotientRing(2, ["x", "y", "z"])
    rng = random.Random(100 + seed)
    ideal = _random_ideal(rng, ring)
    gens = [g.terms for g in ideal.generators]
    probe = _random_ideal(rng, ring, count=1).generators[0]
    # membership via the engine, certified by the bounded Macaulay span when positive
    if ideal.contains_poly(probe):
        assert macaulay_member(probe.terms, gens, 3, 2, probe.degree() + 6)
    else:
        assert not macaulay_member(probe.terms, gens, 3, 2, 7)
    for g in ideal.groebner_basis():
        if g.degree() <= 4:
            assert macaulay_member(g.terms, gens, 3, 2, g.degree() + 6)


@pytest.mark.parametrize("seed", range(4))
def test_membership_insensitive_to_localization_padding(seed, node2):
    rng = random.Random(200 + seed)
    base = node2.power_of_maximal_ideal(rng.randint(1, 2))
    ideal = Ideal(node2, list(base.generators) + [_random_ideal(rng, node2, 1).generators[0]])
    if not ideal.is_m_primary():
        pytest.skip("degenerate draw")
    n = ideal.nilpotency_degree()
    padded = ideal + node2.power_of_maximal_ideal(n)
    probe = _random_ideal(rng, node2, count=1).generators[0]
    assert ideal.contains_poly(probe) == padded.contains_poly(probe)


def test_bracket_composition_and_containment(regular2):
    j = Ideal(regular2, ["x + y^2", "x*y"])
    assert j.bracket(2).bracket(2).equals(j.bracket(4))
    assert j.power(2).contains(j.bracket(2))


@pytest.mark.parametrize("seed", range(6))
def test_frobenius_flatness_over_polynomial_ring(seed):
    ring = QuotientRing(2, ["x", "y"])
    rng = random.Random(300 + seed)
    j = _random_ideal(rng, ring)
    f = _random_ideal(rng, ring, count=1).generators[0]
    member = j.contains_poly(f)
    assert j.bracket(2).contains_poly(f.frobenius(1)) == member


@pytest.mark.parametrize("seed", range(4))
def test_colon_then_product_contained(seed, node2):
    rng = random.Random(400 + seed)
    a = node2.power_of_maximal_ideal(rng.randint(1, 3))
    b = _random_ideal(rng, node2, count=1)
    if b.generators == ():
        pytest.skip("zero draw")
    assert a.contains(a.colon(b) * b)


def test_zero_and_unit_ideals(regular2):
    assert Ideal(regular2, []).groebner_basis() == ()
    unit = Ideal(regular2, ["1"])
    assert unit.is_unit()
    assert gb_strings(unit) == ["1"]


@pytest.mark.parametrize("m_primary", [False, True], ids=["any", "m-primary"])
@pytest.mark.parametrize("relations", [(), ("x*y",), ("x^2 - y^3",)], ids=["polynomial", "node", "cusp"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_memoized_normal_form_matches_direct_reduction(seed, p, relations, m_primary):
    # reference: one reduction of the whole polynomial against a basis built apart from the handle
    rng = random.Random(1000 * p + 10 * seed + m_primary)
    ring = QuotientRing(p, ["x", "y", "z"], relations)
    ideal = _random_ideal(rng, ring, count=3)
    if m_primary:
        ideal = ideal + Ideal(ring, [f"{v}^{rng.randint(2, 5)}" for v in ring.variables])
    basis = buchberger([g.terms for g in ideal.generators + ring.relations], p)
    probes = list(_random_ideal(rng, ring, count=12, max_deg=3).generators)
    probes += [ring.monomial(m) for f in probes for m in f.terms]
    masks = [ideals._support(lead) for lead, _ in basis]
    expected = [ideals._normal_form_terms(f.terms, basis, p, ideals._OrderKeys(grevlex_key), masks) for f in probes]
    warm = Ideal(ring, ideal.generators)
    for i in rng.sample(range(len(probes)), len(probes)):
        assert warm.normal_form(probes[i]).terms == expected[i]
    for f, want in zip(probes, expected):
        assert warm.normal_form(f).terms == want
        assert Ideal(ring, ideal.generators).normal_form(f).terms == want
    # a monomial that a monomial basis element divides is never reduced by another element
    monomial_elements = [lead for lead, g in basis if len(g) == 1]
    for m, nf in warm._nf_memo.items():
        assert (nf is ideals._ZERO) == any(monomial_divides(g, m) for g in monomial_elements)


@pytest.mark.parametrize("relations", [(), ("x*y",), ("x^2 - y^3",)], ids=["polynomial", "node", "cusp"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_contains_monomial_is_membership_of_the_monomial(seed, p, relations):
    rng = random.Random(3000 * p + 10 * seed + len(relations))
    ring = QuotientRing(p, ["x", "y", "z"], relations)
    ideal = random_m_primary(rng, ring)
    fresh = Ideal(ring, ideal.generators)  # a handle of its own, so the two memos fill apart
    monomials = [m for d in range(9) for m in monomials_of_degree(3, d)]
    answers = [ideal.contains_monomial(m) for m in rng.sample(monomials, len(monomials))]
    assert any(answers) and not all(answers)
    for m in monomials:
        assert ideal.contains_monomial(m) == fresh.contains_poly(ring.monomial(m))


@pytest.mark.parametrize("relations", [(), ("x*y",), ("x^2 - y^3",)], ids=["polynomial", "node", "cusp"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_multiplier_is_the_normal_form_of_the_product(seed, p, relations):
    rng = random.Random(2000 * p + 10 * seed + len(relations))
    ring = QuotientRing(p, ["x", "y", "z"], relations)
    ideal = _random_ideal(rng, ring, count=3) + Ideal(ring, [f"{v}^{rng.randint(2, 5)}" for v in ring.variables])
    attributes = set(vars(ideal))
    for g in _random_ideal(rng, ring, count=3, max_deg=3).generators:
        times = ideal.multiplier(g)
        probes = list(_random_ideal(rng, ring, count=8, max_deg=3).generators)
        probes += [ideal.normal_form(f) for f in probes]
        for f in probes + probes[::-1]:
            before = dict(f.terms)
            assert times(f.terms) == ideal.normal_form(f * g).terms
            assert f.terms == before
    # the products' table belongs to the returned function, not to the handle
    assert set(vars(ideal)) == attributes


def test_normal_form_follows_a_deep_reduction_chain(regular2):
    # x^2000 -> x^1999*y -> ... -> x*y^1999 is 1,999 steps, past the default recursion limit
    ideal = Ideal(regular2, ["x^2 + x*y"])
    assert str(ideal.normal_form(regular2.parse("x^2000"))) == "x*y^1999"


def test_divisor_index_tables_are_sized_by_distinct_exponents():
    # a table per exponent value would hold 2^20 entries for x; this one holds one per distinct lead exponent
    ring = QuotientRing(2, ["x", "y", "z"])
    ideal = Ideal(ring, ["x^1048576*y", "y^3*z^2", "z^1000000"])
    assert ideal.contains_poly(ring.parse("x^1048576*y^2*z"))
    assert ideal.normal_form(ring.parse("x^5*y^7*z^3")).is_zero()
    assert list(ideal.candidate_monomials(7))[:3] == [(7, 0, 0), (6, 1, 0), (6, 0, 1)]
    leads = [next(iter(g.terms)) for g in ideal.groebner_basis()]
    index = ideal._divisor_index()
    for i in range(ring.nvars):
        assert len(index.values[i]) == len({g[i] for g in leads})
        assert len(index.masks[i]) == len(index.values[i]) + 1


def test_divisor_index_is_built_once_and_only_when_queried(monkeypatch):
    built = []
    divisor_index = ideals.DivisorIndex

    def counted(leads, nvars):
        built.append(len(leads))
        return divisor_index(leads, nvars)

    monkeypatch.setattr(ideals, "DivisorIndex", counted)
    ring = QuotientRing(3, ["x", "y", "z"], ["x*y - z^2"])
    ideal = Ideal(ring, ["x^3", "y^2 + x*z", "z^4"])
    ideal.groebner_basis()
    assert built == []
    assert ideal.contains_monomial((3, 1, 0))
    assert built == [len(ideal.groebner_basis())]
    assert not ideal.contains_monomial((0, 1, 0))
    ideal.normal_form(ring.parse("x^2*y^3 + z^5"))
    list(ideal.candidate_monomials(4))
    ideal.standard_monomials_of_degree(3)
    assert len(built) == 1
    # handles that only need a basis build none
    ideal.colon(Ideal(ring, ["x"])).groebner_basis()
    assert len(built) == 1


def test_theorem_A_trial_reduces_each_monomial_once(monkeypatch):
    # reducing whole polynomials took 144,656 reduction steps on this trial; the memo takes about 7,000
    steps = [0]
    monomial_div = ideals.monomial_div

    def counted(b, a):
        steps[0] += 1
        return monomial_div(b, a)

    monkeypatch.setattr(ideals, "monomial_div", counted)
    assert check_theorem_A_randomized(3, 1, 2, 20).verdict == "pass"
    assert steps[0] < 10000


def _all_pairs_buchberger(generator_terms, p, key):
    """Reference reduced basis: every S-pair reduced, no criterion, no support masks.

    Pairs are taken smallest lcm first. Returns monic (lead, terms) pairs sorted
    by ascending lead, as `buchberger` does.
    """

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def shifted(terms, shift, sign, out):
        for m, c in terms.items():
            mm = tuple(x + y for x, y in zip(m, shift))
            out[mm] = (out.get(mm, 0) + sign * c) % p
            if not out[mm]:
                del out[mm]

    def reduce(terms, reducers):
        work, remainder = dict(terms), {}
        while work:
            m = max(work, key=key)
            c = work[m]
            g = next(((lead, g) for lead, g in reducers if divides(lead, m)), None)
            if g is None:
                remainder[m] = work.pop(m)
            else:
                shifted(g[1], tuple(y - x for x, y in zip(g[0], m)), -c, work)
        return remainder

    def monic(terms):
        lead = max(terms, key=key)
        inv = pow(terms[lead], p - 2, p)
        return lead, {m: c * inv % p for m, c in terms.items()}

    def lcm(i, j):
        return tuple(max(x, y) for x, y in zip(basis[i][0], basis[j][0]))

    basis = [monic(t) for t in generator_terms if t]
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        i, j = min(pairs, key=lambda ij: (sum(lcm(*ij)), key(lcm(*ij)), ij))
        pairs.remove((i, j))
        s: dict = {}
        tau = lcm(i, j)
        shifted(basis[i][1], tuple(x - y for x, y in zip(tau, basis[i][0])), 1, s)
        shifted(basis[j][1], tuple(x - y for x, y in zip(tau, basis[j][0])), -1, s)
        nf = reduce(s, basis)
        if nf:
            basis.append(monic(nf))
            pairs |= {(i, len(basis) - 1) for i in range(len(basis) - 1)}
    kept: dict = {}
    for lead, g in basis:
        if not any(divides(other, lead) and other != lead for other, _ in basis):
            kept.setdefault(lead, g)  # two elements with one lead: keep one
    out = [(lead, reduce(g, [(o, h) for o, h in kept.items() if o != lead])) for lead, g in kept.items()]
    return sorted(out, key=lambda g: key(g[0]))


def _assert_same_basis(basis, reference):
    # `==` on term dicts ignores the order of their terms, which callers iterate: lead first, then descending
    assert basis == reference
    assert [(lead, list(terms.items())) for lead, terms in basis] == [
        (lead, list(terms.items())) for lead, terms in reference
    ]


def _random_terms(rng, nvars, p, max_deg, size):
    terms = {}
    for _ in range(size):
        m = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[m] = rng.randint(1, p - 1)
    return terms


@pytest.mark.parametrize("order", [grevlex_key, elimination_key], ids=["grevlex", "elimination"])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(12))
def test_buchberger_matches_the_all_pairs_reference(seed, p, order):
    rng = random.Random(7000 + 100 * p + seed)
    nvars = rng.randint(2, 4)
    gens = [_random_terms(rng, nvars, p, 2, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
    if seed % 3 == 0:
        # repeated leads: each generator again, with its lead and a changed tail
        for g in list(gens):
            lead = max(g, key=order)
            gens.append({lead: g[lead], **_random_terms(rng, nvars, p, 1, 2)})
    _assert_same_basis(buchberger(gens, p, key=order), _all_pairs_buchberger(gens, p, order))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("seed", range(10))
def test_buchberger_matches_the_all_pairs_reference_on_colon_inputs(seed, p):
    # tagged as in `_eliminate_intersection`: t*(m^k + L) + (1 - t)*(f), t the first variable
    rng = random.Random(8000 + 100 * p + seed)
    if seed < 8:
        ring = QuotientRing(p, ["x", "y", "z"], [] if seed % 2 else ["x*y - z^2"])
        k = rng.randint(1, 3)
    else:
        # mostly monomial: lcm classes mix free monomial pairs with pairs that are not free
        ring = QuotientRing(p, ["x", "y", "z", "w"], [["x*y - z*w"], ["x*y - z^2", "y*w - x^2"]][seed % 2])
        k = 3
    a = [g.terms for g in ring.power_of_maximal_ideal(k).generators + ring.relations]
    f = _random_terms(rng, ring.nvars, p, 2, rng.randint(1, 3))
    tagged = [{(1,) + m: c for m, c in g.items()} for g in a]
    tagged.append({**{(0,) + m: c for m, c in f.items()}, **{(1,) + m: -c % p for m, c in f.items()}})
    _assert_same_basis(buchberger(tagged, p, key=elimination_key), _all_pairs_buchberger(tagged, p, elimination_key))


@pytest.mark.parametrize("seed", range(30))
def test_buchberger_matches_the_all_pairs_reference_past_64_variables(seed):
    # leads x_a * x_64^e and x_b * x_65^e: support masks stop at 64 variables, so they look
    # disjoint, but two leads on one high variable are not coprime and their pair must be reduced
    rng = random.Random(9000 + seed)
    nvars, p = 66, 3
    low = rng.sample(range(64), 4)

    def monomial(*exponents):
        m = [0] * nvars
        for v, e in exponents:
            m[v] += e
        return tuple(m)

    gens = []
    for a in low[:3]:
        terms = {monomial((a, 1), (rng.choice([64, 65]), rng.randint(1, 2))): 1}
        for _ in range(rng.randint(1, 2)):  # tail of degree at most 1, below the lead
            terms[monomial((rng.choice(low + [64, 65]), rng.randint(0, 1)))] = rng.randint(1, p - 1)
        gens.append(terms)
    _assert_same_basis(buchberger(gens, p), _all_pairs_buchberger(gens, p, grevlex_key))


def test_determinantal_colon_lemma_computes_few_lcms(monkeypatch):
    # the pair update took the lcm of the new lead with every basis element: 86,085 lcms on the x11 colons
    calls = [0]
    monomial_lcm = ideals.monomial_lcm

    def counted(a, b):
        calls[0] += 1
        return monomial_lcm(a, b)

    monkeypatch.setattr(ideals, "monomial_lcm", counted)
    _determinantal_x11_colons()
    assert calls[0] < 20000


def test_determinantal_colon_lemma_reduces_few_s_polynomials(monkeypatch):
    # the x11 colons of m^(n+1) + L reduced 4,583 S-polynomials with the coprime criterion alone
    calls = [0]
    s_poly = ideals._s_poly

    def counted(f, g, p):
        calls[0] += 1
        return s_poly(f, g, p)

    monkeypatch.setattr(ideals, "_s_poly", counted)
    _determinantal_x11_colons()
    assert calls[0] < 1500


def _determinantal_x11_colons():
    """(m^(n+1) : x11) ⊆ m^n for n <= 4 on ex-determinantal, by elimination: the colons
    `check colon-lemma --x x11` computed before a rank test decided it."""
    ring = Session.load(session_path("ex-determinantal.json")).ring
    for n in range(5):
        colon = ring.power_of_maximal_ideal(n + 1).colon_poly(ring.parse("x11"))
        assert ring.power_of_maximal_ideal(n).contains(colon)
