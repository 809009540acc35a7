import random

import pytest

from fthresh import (
    Ideal,
    QuotientRing,
    RingError,
    check_colon_lemma,
    check_lemma22,
    check_monotonicity,
    check_reduction,
    check_superficial,
    check_theorem_A_randomized,
)
from fthresh import linalg
from fthresh.graded import _outside_pivots, _relation_echelon
from fthresh.verifier import (
    _colon_ideal,
    _colon_injective,
    _first_outside,
    random_hypersurface,
    random_m_primary,
    random_poly,
)
from oracles import hilbert_oracle


def test_colon_lemma_regular(regular2):
    report = check_colon_lemma(regular2, regular2.parse("x"), 3)
    assert report.verdict == "pass"


def test_colon_lemma_node_diagonal(node2):
    report = check_colon_lemma(node2, node2.parse("x+y"), 3)
    assert report.verdict == "pass"
    assert report.details["initial_form"] == "x + y"


def test_colon_lemma_zerodivisor_is_inconclusive(node2):
    report = check_colon_lemma(node2, node2.parse("x"), 3)
    assert report.verdict == "inconclusive"
    assert "zerodivisor" in report.details["reason"]


def test_colon_lemma_rejects_higher_order(regular2):
    report = check_colon_lemma(regular2, regular2.parse("x^2"), 2)
    assert report.verdict == "inconclusive"


def test_reduction_maximal_ideal(regular2):
    report = check_reduction(Ideal(regular2, ["x", "y"]), 4)
    assert report.verdict == "pass" and report.details["n0"] == 0


def test_reduction_fails_for_deep_ideal(regular2):
    report = check_reduction(Ideal(regular2, ["x^2", "y^2"]), 4)
    assert report.verdict == "fail"
    assert report.witnesses["flags"] == [False] * 5


def test_reduction_is_local():
    # x - x^2 = x(1 - x) and 1 - x is a unit at the origin, so a = m in R_m although a != m globally
    for variables, gens in ((["x", "y"], ["x - x^2", "y"]), (["x"], ["x - x^2"])):
        report = check_reduction(Ideal(QuotientRing(3, variables), gens), 4)
        assert report.verdict == "pass" and report.details["n0"] == 0, gens


def test_reduction_node_diagonal(node2):
    report = check_reduction(Ideal(node2, ["x+y"]), 4)
    assert report.verdict == "pass" and report.details["n0"] == 1


def test_superficial_variable_regular(regular2):
    report = check_superficial(regular2.parse("x"), 3, 4)
    assert report.verdict == "pass" and report.details["c"] == 0


def test_superficial_diagonal_node(node2):
    assert check_superficial(node2.parse("x+y"), 3, 4).verdict == "pass"


def test_superficial_branch_variable_fails(node2):
    report = check_superficial(node2.parse("x"), 3, 4)
    assert report.verdict == "fail"
    assert report.witnesses[0]["element"] == "y"


def test_superficial_requires_order_one(node2):
    with pytest.raises(RingError):
        check_superficial(node2.parse("x^2"), 2, 3)


def test_superficial_needs_an_n_for_every_c(node2):
    # with n_max < c_max the largest c would have no n to check, and pass unchecked
    with pytest.raises(RingError, match="n_max must be at least c_max"):
        check_superficial(node2.parse("x"), 0, -1)
    with pytest.raises(RingError, match="n_max must be at least c_max"):
        check_superficial(node2.parse("x+y"), 3, 2)
    assert check_superficial(node2.parse("x+y"), 3, 3).verdict == "pass"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_colon_rank_test_agrees_with_the_colon(p):
    # the rank test decides (m^{n+1} : x) ∩ m^c = m^n exactly: it must agree with
    # the colon and intersection computed by elimination, on passing and failing n
    decided = failing = 0
    for seed in range(12):
        rng = random.Random(seed)
        ring = random_hypersurface(rng, p)
        x = random_poly(rng, ring)
        while x.is_zero():  # the terms of a draw can cancel
            x = random_poly(rng, ring)
        # one echelon through degree 3 serves every n <= 3, as in `_colon_mismatch`
        echelon = _relation_echelon(ring, 3)
        standard = _outside_pivots(echelon, ring.nvars, 3)
        for c in range(3):
            for n in range(c, 4):
                holds = _first_outside(_colon_ideal(ring, x, c, n), ring.power_of_maximal_ideal(n)) is None
                assert _colon_injective(echelon, standard, x, c, n) == holds, (seed, repr(ring), str(x), c, n)
                decided += 1
                failing += not holds
    assert decided == 108 and 0 < failing < decided


def test_colon_rank_test_counts_its_cells_first(regular2, monkeypatch):
    # over GF(2)[x, y], n = 0 has no rows, n = 1 is a 1 x 3 matrix and n = 2 would
    # be 3 x 6: the bound refuses the last before any of its rows is built
    ranks = []
    rank = linalg.rank

    def counted(rows, p):
        ranks.append(len(rows))
        return rank(rows, p)

    monkeypatch.setattr(linalg, "_MAX_MATRIX_CELLS", 17)
    monkeypatch.setattr(linalg, "rank", counted)
    with pytest.raises(RingError, match="a rank test of 3 x 6 cells exceeds the bound of 17 cells"):
        check_superficial(regular2.parse("x"), 0, 4)
    assert ranks == [0, 1]


def test_lemma22_equal_ideals(regular2):
    m = regular2.maximal_ideal()
    report = check_lemma22(m, m)
    assert report.verdict == "pass" and report.details["equal"] and report.details["verified"]


def test_lemma22_separates_at_degree_two(regular2):
    a = Ideal(regular2, ["x^2", "y^2"])
    b = Ideal(regular2, ["x^2", "x*y", "y^2"])
    report = check_lemma22(a, b)
    assert report.verdict == "pass"
    assert report.details["separating_degree"] == 2
    assert report.details["separating_class"] == "x*y"


def test_lemma22_redundant_generator(regular2):
    a = Ideal(regular2, ["x", "y^5"])
    b = Ideal(regular2, ["x", "y^5", "x + y^5"])
    report = check_lemma22(a, b)
    assert report.details["equal"] and report.details["verified"]


def test_lemma22_quotient_ring(node2):
    a = Ideal(node2, ["x + y", "x^3"])
    b = a + Ideal(node2, ["x^2"])
    report = check_lemma22(a, b)
    assert report.verdict == "pass"


def test_lemma22_matches_the_hilbert_oracle():
    """60 seeded pairs a ⊆ b = a + (x_i * x_1) on criterion-4 hypersurfaces.

    in(a + L) ⊆ in(b + L), so they differ first where the dense Hilbert
    functions of S/(a + L) and S/(b + L) do, and are equal iff those agree.
    """
    separated = 0
    for trial in range(60):
        p = 2 + trial % 2
        rng = random.Random(trial)
        ring = random_hypersurface(rng, p)
        a = random_m_primary(rng, ring)
        x = ring.gens()
        b = a + Ideal(ring, [x[rng.randrange(ring.nvars)] * x[0]])
        report = check_lemma22(a, b)
        assert report.verdict == "pass", (trial, report.witnesses)
        D = a.nilpotency_degree()
        h_a, h_b = (
            hilbert_oracle([g.terms for g in c.generators + ring.relations], ring.nvars, p, D)
            for c in (a, b)
        )
        differ = [d for d in range(D + 1) if h_a[d] != h_b[d]]
        assert report.details["equal"] == (not differ), (trial, h_a, h_b)
        if differ:
            assert report.details["separating_degree"] == differ[0], (trial, h_a, h_b)
            separated += 1
    assert 0 < separated < 60


def test_lemma22_requires_containment(regular2):
    with pytest.raises(RingError):
        check_lemma22(Ideal(regular2, ["x"]), Ideal(regular2, ["y"]))


def test_monotonicity_regular_f2(regular2):
    report = check_monotonicity(regular2, 10, 2, 0)
    assert report.verdict == "pass"
    assert report.witnesses["violations"] == []


def test_monotonicity_node_f3():
    ring = QuotientRing(3, ["x", "y"], ["x*y"])
    assert check_monotonicity(ring, 10, 1, 0).verdict == "pass"


def test_monotonicity_replays_deterministically(node2):
    first = check_monotonicity(node2, 5, 2, 7)
    second = check_monotonicity(node2, 5, 2, 7)
    assert first.witnesses == second.witnesses
    assert first.details == second.details


def test_theorem_A_randomized_passes():
    report = check_theorem_A_randomized(2, 8, 2, 0)
    assert report.verdict == "pass"
    assert report.witnesses["failures"] == []


def test_theorem_A_randomized_maximal_mode():
    # b = m in every trial: the comparison specializes to c^m(m) <= c^n(n)
    report = check_theorem_A_randomized(2, 6, 2, 0, b_mode="maximal")
    assert report.verdict == "pass"


def test_theorem_A_blowup_strict_level(blowup):
    from fthresh import verify_theorem_A

    report = verify_theorem_A(blowup, blowup.maximal_ideal(), 3)
    assert report.verdict == "pass"
    assert any(local < graded for (_, _, local, graded) in report.nu_table)
