import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import session_path
from fthresh import (
    Ideal,
    QuotientRing,
    RingError,
    guess_rational,
    nu,
    threshold_estimate,
    verify_theorem_A,
)
from fthresh import frobenius, ideals, linalg
from fthresh.cli import Session
from fthresh.ring import Polynomial, grevlex_key, monomials_of_degree
from fthresh.verifier import check_monotonicity, random_m_primary, random_poly
from oracles import nu_monomial_oracle, simplest_rational_oracle


def test_nu_regular_ring(regular2):
    m = regular2.maximal_ideal()
    record = nu(m, m, 1)
    assert record.nu == 2  # d(q-1), witnessed by (xy)^(q-1)
    assert record.verify(m, m.bracket(2))


def test_threshold_estimate_computes_one_basis_per_bracket_power(monkeypatch):
    # J serves e = 0 itself, so the bases are those of J, J^[2], J^[4] and J^[8]: J's is not built twice
    ring = Session.load(session_path("ex-blowup.json")).ring
    calls = [0]
    buchberger = ideals.buchberger

    def counted(*args, **kwargs):
        calls[0] += 1
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", counted)
    m = ring.maximal_ideal()
    assert threshold_estimate(m, m, 3).guess == Fraction(5, 2)
    assert calls[0] == 4


def test_nu_node_against_enumeration_oracle(node2):
    n = node2.maximal_ideal()
    assert nu(n, n, 1).nu == 1
    vars2 = [(1, 0), (0, 1)]
    assert nu_monomial_oracle(vars2, [(2, 0), (0, 2), (1, 1)], 2, 5) == 1


def test_nu_node4_matches_oracle(node4):
    n = node4.maximal_ideal()
    vars4 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for e in (1, 2, 3):
        q = 2**e
        bracket = [tuple(q * c for c in v) for v in vars4] + [(1, 1, 0, 0)]
        oracle = nu_monomial_oracle(vars4, bracket, 4, 3 * (q - 1) + 2)
        record = nu(n, n, e)
        assert record.nu == oracle == 3 * (q - 1)


def test_nu_rejects_non_primary_bracket(regular2):
    m = regular2.maximal_ideal()
    with pytest.raises(RingError):
        nu(m, Ideal(regular2, ["x"]), 1)
    with pytest.raises(RingError):
        nu(Ideal(regular2, ["x + 1"]), m, 1)


def test_nu_unit_bracket_sentinel(regular2):
    # a unit target absorbs a^0 = R, so every kernel's scan ends at t = -1, warm start or not:
    # the monomial sweep on a (m, and a non-maximal monomial a), the sweep on the monomial
    # basis (x, y) of a, and the level chain on the non-monomial basis (x + y^2)
    unit = Ideal(regular2, ["1"])
    cases = [(["x", "y"], None), (["x", "y"], 3), (["x^2", "y"], 2), (["x + y^2", "y"], None), (["x + y^2"], None)]
    for gens, warm_start in cases:
        a = Ideal(regular2, gens)
        record = nu(a, unit, 1, warm_start=warm_start)
        assert (record.nu, record.witness, record.caveats) == (-1, None, ("unit-bracket-ideal",)), gens
        assert not frobenius.NuRecord(1, 2, 0, regular2.one()).verify(a, unit.bracket(2))
    assert not frobenius._all_monomial(Ideal(regular2, ["x + y^2"]).basis_ideal().generators)
    assert frobenius._all_monomial(Ideal(regular2, ["x + y^2", "y"]).basis_ideal().generators)


def test_threshold_regular(regular2):
    m = regular2.maximal_ideal()
    est = threshold_estimate(m, m, 3)
    assert [r.nu for r in est.records] == [2, 6, 14]  # 2(q-1)
    assert est.lower == Fraction(7, 4)
    assert est.guess == 2
    assert est.lower <= 2 <= est.upper


def test_threshold_blowup_brackets_five_halves(blowup):
    m = blowup.maximal_ideal()
    est = threshold_estimate(m, m, 3)
    ratios = [Fraction(r.nu, r.q) for r in est.records]
    assert ratios == sorted(ratios)
    assert all(r <= Fraction(5, 2) for r in ratios)
    for record, lower, upper in est.row_bounds():
        assert lower <= Fraction(5, 2) <= upper
    assert est.guess == Fraction(5, 2)


def test_threshold_node4(node4):
    n = node4.maximal_ideal()
    est = threshold_estimate(n, n, 3)
    assert [r.nu for r in est.records] == [3, 9, 21]
    assert est.lower == Fraction(21, 8)
    assert est.guess == 3


def test_guess_rational_examples():
    assert guess_rational(Fraction(19, 10), Fraction(21, 10), 8) == 2
    assert guess_rational(Fraction(12, 5), Fraction(63, 25), 8) == Fraction(5, 2)
    assert guess_rational(Fraction(49, 100), Fraction(51, 100), 8) == Fraction(1, 2)
    assert guess_rational(Fraction(3, 10), Fraction(33, 100), 2) is None
    with pytest.raises(RingError):
        guess_rational(Fraction(2), Fraction(1))


@pytest.mark.parametrize(
    "lo,hi",
    [
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(5, 7), Fraction(6, 7)),
        (Fraction(0), Fraction(1, 9)),
        (Fraction(22, 7), Fraction(23, 7)),
        (Fraction(-3, 2), Fraction(-7, 5)),
    ],
)
def test_guess_rational_matches_brute_force(lo, hi):
    assert guess_rational(lo, hi, 64) == simplest_rational_oracle(lo, hi, 64)


def test_scaling_invariant_on_fixtures(blowup, node2):
    for ring in (blowup, node2):
        m = ring.maximal_ideal()
        est = threshold_estimate(m, m, 3)
        for prev, nxt in zip(est.records, est.records[1:]):
            assert nxt.nu >= ring.p * prev.nu


def test_bracket_monotonicity_of_nu(regular2):
    m = regular2.maximal_ideal()
    a = Ideal(regular2, ["x + y^2", "y"])
    small = Ideal(regular2, ["x^2", "x*y", "y^2"])  # m^2 inside m
    assert nu(a, m, 1).nu <= nu(a, small, 1).nu  # J smaller => nu larger
    b = Ideal(regular2, [a.generators[0]])
    assert nu(b, small, 1).nu <= nu(a, small, 1).nu


def test_verify_theorem_A_blowup(blowup):
    report = verify_theorem_A(blowup, blowup.maximal_ideal(), 2)
    assert report.verdict == "pass"
    rows = report.nu_table
    assert rows[0][2] == 3 and rows[0][3] == 3
    assert any(local < graded for (_, _, local, graded) in rows) or len(rows) == 1


def test_verify_theorem_A_regular_is_equality(regular2):
    m = regular2.maximal_ideal()
    report = verify_theorem_A(regular2, m, 3)
    assert report.verdict == "pass"
    assert all(local == graded for (_, _, local, graded) in report.nu_table)
    msq = regular2.power_of_maximal_ideal(2)
    report2 = verify_theorem_A(regular2, msq, 2)
    assert report2.verdict == "pass"
    assert all(local == graded for (_, _, local, graded) in report2.nu_table)


def test_verify_theorem_A_requires_m_primary(regular2):
    with pytest.raises(RingError):
        verify_theorem_A(regular2, Ideal(regular2, ["x"]), 1)


def test_nu_records_reverify(blowup):
    m = blowup.maximal_ideal()
    est = threshold_estimate(m, m, 2)
    for record in est.records:
        assert record.verify(m, m.bracket(record.q))


def _first_escaping_chain(a, target, length):
    """Product of the first index chain of the given length (itertools.product order) outside target."""
    for chain in itertools.product(a.generators, repeat=length):
        product = a.ring.one()
        for g in chain:
            product = product * g
        if not target.contains_poly(product):
            return product
    return None


CHAIN_CASES = [
    (2, [], ["x + y^2", "y"], ["x", "y"], 1),
    (2, [], ["x + y", "x*y"], ["x^2", "y"], 1),
    (2, [], ["x + y", "x*y"], ["x", "y"], 2),
    (2, ["x*y"], ["x + y^2", "y^2"], ["x", "y"], 2),
    (3, [], ["x + y", "x*y"], ["x", "y"], 1),
    (3, [], ["x^2 + y", "x*y", "y^2"], ["x", "y"], 1),
    (3, ["x*y"], ["x + y", "y^2"], ["x", "y"], 1),
    (3, [], ["x + 2*y^2", "x*y + y^2"], ["x", "y^2"], 1),
]


@pytest.mark.parametrize("p,relations,a_gens,J_gens,e", CHAIN_CASES)
def test_nu_witness_is_first_escaping_chain(p, relations, a_gens, J_gens, e):
    # brute force over index chains in lex order, each product tested against
    # a fresh handle on the bracket power: nu is the longest escaping length
    # and the witness the product of the first escaping chain of that length
    ring = QuotientRing(p, ["x", "y"], relations)
    a, J = Ideal(ring, a_gens), Ideal(ring, J_gens)
    target = Ideal(ring, list(J.bracket(p**e).generators))
    length, first = -1, None
    while (found := _first_escaping_chain(a, target, length + 1)) is not None:
        length, first = length + 1, found
    record = nu(a, J, e)
    assert record.nu == length <= 6
    assert str(record.witness) == str(first)


def test_gf3_seed7_scan_value_and_witness():
    # check_monotonicity's trial 7 on GF(3)[x,y] at seed 0, the slowest
    # criterion-5 scan; values and witness digests recorded from the scan
    # that enumerated products level by level, before the level chain
    ring = QuotientRing(3, ["x", "y"])
    a = Ideal(ring, ["x^3", "x^2*y", "x*y^2", "y^3", "x*y + x + y", "2*x*y^2 + 2*x^2", "y^3 + x"])
    J = Ideal(ring, ["x^2", "x*y", "y^2"])
    first = nu(a, J, 1)
    second = nu(a, J, 2, warm_start=3 * first.nu)
    assert (first.nu, second.nu) == (7, 25)
    digests = [hashlib.sha256(str(r.witness).encode()).hexdigest() for r in (first, second)]
    assert digests == [
        "333fb45015b553cc71e841aa60850dd458c4728bd9db209de67f2e19d3845fc3",
        "66e91fd0b0684ddc6e70a8da2f307a91abbceab8574920356b8f3b4429ceb3dd",
    ]
    assert second.caveats == ()


def _reference_levels(a, target, seeds):
    """The level chain as it was built from products: each f * g, then its normal form, then `echelon`."""
    levels, level = [], list(seeds)
    while True:
        rows = [f.terms for f in map(target.normal_form, level) if not f.is_zero()]
        columns = sorted({m for row in rows for m in row}, key=grevlex_key, reverse=True)
        level = [Polynomial(a.ring, row) for _, row in linalg.echelon(rows, columns, a.ring.p)]
        if not level:
            return levels
        levels.append(level)
        level = [f * g for f in level for g in a.generators]


def _random_chain_case(seed):
    rng = random.Random(700 + seed)
    p = (2, 3, 5)[seed % 3]
    ring = QuotientRing(p, ["x", "y"], ["x*y"] if seed % 2 else [])
    a = Ideal(ring, [random_poly(rng, ring) for _ in range(rng.randint(2, 3))])
    seeds = [ring.one()] if seed < 6 else [random_poly(rng, ring), ring.one() + random_poly(rng, ring)]
    return a, random_m_primary(rng, ring).bracket(p), seeds


@pytest.mark.parametrize(
    "case",
    [("listed", i) for i in range(len(CHAIN_CASES))] + [("seeded", seed) for seed in range(9)],
    ids=lambda case: f"{case[0]}-{case[1]}",
)
def test_levels_match_the_chain_of_products(case):
    kind, i = case
    if kind == "listed":
        p, relations, a_gens, J_gens, e = CHAIN_CASES[i]
        ring = QuotientRing(p, ["x", "y"], relations)
        a, target, seeds = Ideal(ring, a_gens), Ideal(ring, J_gens).bracket(p**e), [ring.one()]
    else:
        a, target, seeds = _random_chain_case(i)
        ring = a.ring
    expected = _reference_levels(a, Ideal(ring, list(target.generators)), seeds)
    assert expected
    levels = frobenius._levels(a, target, seeds)
    assert [[f.terms for f in level] for level in levels] == [[f.terms for f in level] for level in expected]


def test_seed7_scan_builds_few_products(monkeypatch):
    # building every level product took 34,167 multiplications; the multipliers' tables need about 600
    calls = [0]
    mul = Polynomial.__mul__

    def counted(f, g):
        calls[0] += 1
        return mul(f, g)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    ring = QuotientRing(3, ["x", "y"])
    a = Ideal(ring, ["x^3", "x^2*y", "x*y^2", "y^3", "x*y + x + y", "2*x*y^2 + 2*x^2", "y^3 + x"])
    J = Ideal(ring, ["x^2", "x*y", "y^2"])
    assert (nu(a, J, 1).nu, nu(a, J, 2).nu) == (7, 25)
    assert calls[0] < 2000


def test_empty_bracket_gives_no_guess():
    # GF(3)[x,y]/(x^3) is not reduced and nu/q falls (4/3, 10/9, 28/27): its maximum
    # lies above the upper end 31/27, so the lower end is no bound and there is nothing to guess
    ring = QuotientRing(3, ["x", "y"], ["x^3"])
    b = Ideal(ring, ["x", "y", "2*x^2*y", "2*y^3 + 2*x^2"])
    est = threshold_estimate(ring.maximal_ideal(), b, 3)
    assert [(r.q, r.nu) for r in est.records] == [(3, 4), (9, 10), (27, 28)]
    assert (est.lower, est.upper) == (Fraction(4, 3), Fraction(31, 27))
    assert est.guess is None
    assert "lower-bounds-not-monotone" in est.caveats


def test_nu_level_past_the_cell_bound_is_refused(regular2, monkeypatch):
    # the basis (y^2 + x, x*y, x^2) of a is not monomial, so the scan takes the
    # level chain; its widest level matrix modulo (x^4, y^4) reduces the 6
    # products that make level 3, over 5 monomials
    monkeypatch.setattr(linalg, "_MAX_MATRIX_CELLS", 29)
    a = Ideal(regular2, ["x + y^2", "x*y"])
    with pytest.raises(RingError, match="6 x 5 cells exceeds the bound of 29 cells"):
        nu(a, regular2.maximal_ideal(), 2)
    monkeypatch.setattr(linalg, "_MAX_MATRIX_CELLS", 30)
    assert nu(a, regular2.maximal_ideal(), 2).nu == 4


FIXTURES = ["ex-regular", "ex-blowup", "ex-node4", "ex-determinantal", "ex-fermat-cubic", "ex-cusp"]


def _first_escaping_monomial(ring, target, t):
    """First monomial of degree t, in monomials_of_degree order, outside target (full sweep)."""
    for exponents in monomials_of_degree(ring.nvars, t):
        g = ring.monomial(exponents)
        if not target.contains_poly(g):
            return g
    return None


def _full_sweep_records(m, e_max):
    """(nu, witness) per e of threshold_estimate(m, m, e_max), rebuilt with full sweeps.

    Mirrors the monomial scan: start at the warm start p * nu(q/p) (at 0 if
    that is already contained), step to the first generator multiple of the
    witness that escapes, else to the first escaping monomial of the next
    degree, and stop when there is none.
    """
    ring = m.ring
    prev, out = 0, []
    for e in range(1, e_max + 1):
        target = m.bracket(ring.p**e)
        t = ring.p * prev
        witness = _first_escaping_monomial(ring, target, t)
        if witness is None:
            t, witness = 0, _first_escaping_monomial(ring, target, 0)
        while True:
            nxt = next((h for h in (witness * g for g in m.generators) if not target.contains_poly(h)), None)
            nxt = nxt or _first_escaping_monomial(ring, target, t + 1)
            if nxt is None:
                break
            t, witness = t + 1, nxt
        out.append((t, str(witness)))
        prev = t
    return out


@pytest.mark.parametrize("name", FIXTURES)
def test_maximal_ideal_scan_matches_full_sweep(name):
    ring = Session.load(session_path(name + ".json")).ring
    m = ring.maximal_ideal()
    est = threshold_estimate(m, m, 3)
    assert [(r.nu, str(r.witness)) for r in est.records] == _full_sweep_records(m, 3)
    for r in est.records:
        target = m.bracket(r.q)
        N = 1
        while _first_escaping_monomial(ring, target, N) is not None:
            N += 1
        assert target.nilpotency_degree() == N


def test_maximal_ideal_scan_skips_monomials_in_the_bracket(monkeypatch):
    # a full sweep of the degree-94 monomials at e = 5 made 379,298 membership
    # tests; the candidates outside the monomial basis elements need 116
    calls = [0]
    contains_poly = Ideal.contains_poly

    def counted(self, f):
        calls[0] += 1
        return contains_poly(self, f)

    monkeypatch.setattr(Ideal, "contains_poly", counted)
    m = Session.load(session_path("ex-node4.json")).ring.maximal_ideal()
    threshold_estimate(m, m, 5)
    assert calls[0] < 1000


# -- the kernel follows the reduced basis M of a + L ---------------------------

CRITERION5_RINGS = [(2, []), (2, ["x*y"]), (3, []), (3, ["x*y"])]
CRITERION5_IDS = ["gf2-regular", "gf2-node", "gf3-regular", "gf3-node"]


def _criterion5_draw(p, relations, seed):
    """The a, b, J and I that `check_monotonicity` draws for one trial."""
    ring = QuotientRing(p, ["x", "y"], relations)
    rng = random.Random(seed)
    J = random_m_primary(rng, ring)
    I = J + Ideal(ring, [random_poly(rng, ring)])
    a = random_m_primary(rng, ring)
    b = Ideal(ring, list(a.generators)[: rng.randint(1, len(a.generators))])
    return a, b, J, I


def _is_routed(a):
    """Non-monomial generators, monomial M: the scan sweeps M instead of running the chain."""
    return not frobenius._all_monomial(a.generators) and frobenius._all_monomial(a.groebner_basis())


def _forced_chain(a, target):
    """(nu, witness) of the level chain on a's own generators, whatever M is."""
    levels = frobenius._levels(a, target, [a.ring.one()])

    def escapes(rest, r):
        return any(not target.contains_poly(rest * f) for f in reversed(levels[r]))

    return len(levels) - 1, frobenius._chain_witness(a, target, len(levels) - 1, escapes)


def _routed_records(p, relations, seeds):
    """(a, target, record) for every routed nu call of criterion 5's trials, e = 1, 2, with its warm starts."""
    out = []
    for seed in seeds:
        a, b, J, I = _criterion5_draw(p, relations, seed)
        prev = None
        for e in (1, 2):
            for x, y in ((a, J), (a, I), (b, J)):
                warm = p * prev.nu if prev is not None and (x, y) == (a, J) else None
                record = nu(x, y, e, warm_start=warm)
                if (x, y) == (a, J):
                    prev = record
                if _is_routed(x):
                    out.append((x, y.bracket(p**e), record))
    return out


@pytest.mark.parametrize("p,relations", CRITERION5_RINGS, ids=CRITERION5_IDS)
def test_routed_scan_matches_the_forced_chain(p, relations):
    records = _routed_records(p, relations, range(10))
    assert len(records) >= 25
    for a, target, record in records:
        value, witness = _forced_chain(a, target)
        assert (record.nu, str(record.witness), record.caveats) == (value, str(witness), ())


@pytest.mark.parametrize("p", [2, 3])
def test_relations_enter_the_basis_of_a_plus_L(p):
    # x*y lies in M = (y^2, x*y, x^2) only through L; without L the basis of a is not monomial
    ring = QuotientRing(p, ["x", "y"], ["x*y"])
    a_gens = ["x^2 + x*y", "y^2 + x*y"]
    a = Ideal(ring, a_gens)
    assert not frobenius._all_monomial(Ideal(QuotientRing(p, ["x", "y"]), a_gens).groebner_basis())
    assert sorted(str(g) for g in a.groebner_basis()) == ["x*y", "x^2", "y^2"]
    for J_gens in (["x", "y"], ["x^2", "y"]):
        J = Ideal(ring, J_gens)
        for e in (1, 2, 3):
            record = nu(a, J, e)
            value, witness = _forced_chain(a, J.bracket(p**e))
            assert (record.nu, str(record.witness), record.caveats) == (value, str(witness), ())


def test_routed_records_off_by_one_fail_verify():
    records = _routed_records(3, [], range(10))[:12]
    assert records
    for a, target, record in records:
        assert record.verify(a, target)
        for wrong in (record.nu - 1, record.nu + 1):
            assert not frobenius.NuRecord(record.e, record.q, wrong, record.witness).verify(a, target)
        inside = record.witness * target.generators[0]
        assert not frobenius.NuRecord(record.e, record.q, record.nu, inside).verify(a, target)


def test_gf3_seed7_scan_runs_no_level_chain(monkeypatch):
    # M = (y, x): the scans and their verify replays ran the level chain four times
    def refuse(*args):
        raise AssertionError("the level chain ran")

    monkeypatch.setattr(frobenius, "_levels", refuse)
    ring = QuotientRing(3, ["x", "y"])
    a = Ideal(ring, ["x^3", "x^2*y", "x*y^2", "y^3", "x*y + x + y", "2*x*y^2 + 2*x^2", "y^3 + x"])
    J = Ideal(ring, ["x^2", "x*y", "y^2"])
    first = nu(a, J, 1)
    second = nu(a, J, 2, warm_start=3 * first.nu)
    assert (first.nu, second.nu) == (7, 25)
    digests = [hashlib.sha256(str(r.witness).encode()).hexdigest() for r in (first, second)]
    assert digests == [
        "333fb45015b553cc71e841aa60850dd458c4728bd9db209de67f2e19d3845fc3",
        "66e91fd0b0684ddc6e70a8da2f307a91abbceab8574920356b8f3b4429ceb3dd",
    ]


def test_criterion5_trials_run_few_level_chains(monkeypatch):
    # a chain per non-monomial a, scan and verify replay, came to 368 runs;
    # 24 of those calls have a basis of a + L that is not monomial
    calls = [0]
    levels = frobenius._levels

    def counted(*args):
        calls[0] += 1
        return levels(*args)

    monkeypatch.setattr(frobenius, "_levels", counted)
    for p in (2, 3):
        for relations, trials in (([], 13), (["x*y"], 12)):
            suite = check_monotonicity(QuotientRing(p, ["x", "y"], relations), trials, 2, 0)
            assert suite.verdict == "pass"
    assert calls[0] < 100


@pytest.mark.parametrize("a_gens", [["x", "y"], ["x^2", "x*y", "y^2"], ["x^3", "2*y^2"]])
def test_monomial_records_off_by_one_fail_verify(a_gens):
    # the sweep of a^(nu+2) alone let a record claiming nu + 1 pass
    ring = QuotientRing(3, ["x", "y"], ["x*y"])
    a, m = Ideal(ring, a_gens), ring.maximal_ideal()
    for e in (1, 2):
        record, target = nu(a, m, e), m.bracket(3**e)
        assert record.verify(a, target)
        for wrong in (record.nu - 1, record.nu + 1):
            assert not frobenius.NuRecord(record.e, record.q, wrong, record.witness).verify(a, target)


# -- monomial powers drop the products that earlier ones divide ---------------


def _redundant_monomial_list(rng, ring):
    """Monomial generators with coefficient duplicates (y^2, 2*y^2) and multiples of earlier ones (x*y^2 after x*y)."""
    gens, size = [], rng.randint(2, 5)
    while len(gens) < size:
        exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        if any(exps):
            gens.append(ring.monomial(exps, rng.randint(1, ring.p - 1)))
        if gens and rng.random() < 0.4:
            gens.append(rng.choice(gens).scale(rng.randint(1, ring.p - 1)))
        if gens and rng.random() < 0.4:
            gens.append(rng.choice(gens) * rng.choice(ring.gens()))
    return gens


@pytest.mark.parametrize("seed", range(40))
def test_lean_power_list_keeps_the_first_escaping_product(seed):
    rng = random.Random(7000 + seed)
    p = (2, 3, 5)[seed % 3]
    ring = QuotientRing(p, ["x", "y", "z"][: 2 + seed % 2], rng.choice([[], ["x*y"], ["x^2 - y^3"]]))
    a = Ideal(ring, _redundant_monomial_list(rng, ring))
    target = random_m_primary(rng, ring).bracket(p)
    for t in range(1, 5):
        full = [functools.reduce(Polynomial.__mul__, chain) for chain in itertools.product(a.generators, repeat=t)]
        lean = a.power_generators(t)
        first = next((h.terms for h in full if not target.contains_poly(h)), None)
        assert next((h.terms for h in lean if not target.contains_poly(h)), None) == first
        assert a.power(t).equals(Ideal(ring, full))


def test_redundant_monomial_generators_cost_few_products(monkeypatch):
    # criterion-5 GF(3) trial 6 has a = (x^2, x*y, y^2, 2*y^2, x*y^2); multiplying out
    # every generator took 18,751 products, skipping 2*y^2 and x*y^2 about 1,700
    a, _, J, _ = _criterion5_draw(3, [], 6)
    assert [str(g) for g in a.generators] == ["x^2", "x*y", "y^2", "2*y^2", "x*y^2"]
    first = nu(a, J, 1)
    calls = [0]
    mul = Polynomial.__mul__

    def counted(f, g):
        calls[0] += 1
        return mul(f, g)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    second = nu(a, J, 2, warm_start=3 * first.nu)
    assert (first.nu, second.nu, str(second.witness)) == (5, 17, "x^17*y^17")
    assert calls[0] < 4000
