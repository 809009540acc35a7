"""nu-functions, F-threshold brackets, and finite-level threshold comparison.

nu(a, J, e) is the largest t with a^t not contained in the bracket power
J^[p^e] (computed through lifted ideals, so quotient presentations just
work). The bracket power contains L, so a^t + J^[q] = (a + L)^t + J^[q], and
the kernel follows the reduced basis M of a + L rather than the generators
of a. Monomial generators take an ascending sweep that reuses p * nu(p^(e-1))
as a verified warm start. When a is the maximal ideal, the sweep over degree
t visits only the monomials that no monomial basis element of J^[q] divides:
the skipped ones lie in J^[q], so the first escaping monomial (the witness)
is unchanged. Other generators take the same sweep on M when M is monomial,
and the level chain otherwise: level t is a row-reduced basis, modulo J^[q],
of the products of t generators of a, and the chain stops at the first
empty level. The chain builds no product: it multiplies in normal-form
space, through one table {m: NF(x^m * g)} per generator g
(`Ideal.multiplier`, the multiplication matrices of FGLM) that lives for
one chain. Either way the witness is the first escaping chain of a's own
generators. Each record carries a dual certificate that is re-checked on
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .graded import gr_of_ideal
from .ideals import Ideal
from .ring import Polynomial, QuotientRing, RingError, grevlex_key, monomial_divides


@dataclass
class NuRecord:
    """One certified value nu = nu^J_a(q): a^nu escapes J^[q], a^(nu+1) does not.

    A unit bracket ideal absorbs every power; that degenerate case is recorded
    as nu = -1 with a vacuous witness and flagged in caveats.
    """

    e: int
    q: int
    nu: int
    witness: Polynomial | None
    caveats: tuple = ()

    def verify(self, a: Ideal, target: Ideal) -> bool:
        """Re-check both certificates against the bracket ideal.

        The witness must lie outside the target, and a^(nu+1) inside it. With
        M the monomial generators of a, or else the reduced basis of a + L
        when that is monomial, a lies in (M) and the witness in (M)^nu, term
        by term, and a sweep finds M^(nu+1) inside the target (which contains
        L, so (M)^t + target = a^t + target). Any other a replays the level
        chain.
        """
        if self.nu < 0:
            return target.is_unit()
        if self.witness is None or target.contains_poly(self.witness):
            return False
        basis = a if _all_monomial(a.generators) else a.basis_ideal()
        if not _all_monomial(basis.generators):
            return len(_levels(a, target, [a.ring.one()])) - 1 == self.nu
        return (
            all(_in_power(basis, 1, g) for g in a.generators)
            and _in_power(basis, self.nu, self.witness)
            and _first_escaping(basis, self.nu + 1, target) is None
        )


@dataclass
class ThresholdEstimate:
    """nu records plus rational brackets for the F-threshold c^J(a).

    upper = min (nu + 1 + mu)/q with mu the generator count of a (pigeonhole
    containment a^(sq' + mu(q'-1)) inside (a^s)^[q']) is always an upper
    bound. lower = max nu/q is a lower bound only when nu/q never decreases
    with q, as in a regular ring; otherwise the caveat
    "lower-bounds-not-monotone" is set, and the bracket may even be empty
    (lower > upper), in which case guess is None.
    """

    records: list
    mu: int
    lower: Fraction
    upper: Fraction
    guess: Fraction | None
    caveats: tuple = ()

    def row_bounds(self):
        out = []
        for r in self.records:
            out.append((r, Fraction(r.nu, r.q), Fraction(r.nu + 1 + self.mu, r.q)))
        return out


def _is_maximal_ideal(a: Ideal) -> bool:
    ring = a.ring
    variables = ring.cached("variable terms", lambda: {frozenset(v.terms.items()) for v in ring.gens()})
    return {frozenset(g.terms.items()) for g in a.generators} == variables


def _all_monomial(polys) -> bool:
    return all(len(g.terms) == 1 for g in polys)


def _in_power(monomial_ideal: Ideal, t: int, f: Polynomial) -> bool:
    """Whether every term of f lies in the t-th power of an ideal with monomial generators."""
    if _is_maximal_ideal(monomial_ideal):
        return all(sum(m) >= t for m in f.terms)
    leads = [next(iter(g.terms)) for g in monomial_ideal.power_generators(t)]
    return all(any(monomial_divides(lead, m) for lead in leads) for m in f.terms)


def _first_escaping(a: Ideal, t: int, target: Ideal, seeds=None):
    """An element of a^t * (seeds) outside the target ideal, or None if contained.

    With a = m, only the target's candidate monomials g are tried: the others
    lie in the target, and so does g * s for every seed s, so the first
    escaping product is the same. Without seeds they are tested as exponent
    tuples, and only the escaping one becomes a Polynomial.
    """
    if _is_maximal_ideal(a):
        candidates = target.candidate_monomials(t)
        if seeds is None:
            u = next((u for u in candidates if not target.contains_monomial(u)), None)
            return None if u is None else a.ring.monomial(u)
        products = map(a.ring.monomial, candidates)
    else:
        products = a.power_generators(t)
    for g in products:
        for h in (g,) if seeds is None else (g * s for s in seeds):
            if not target.contains_poly(h):
                return h
    return None


def _scan_monomial(a: Ideal, target: Ideal, warm_start: int, seeds=None):
    """Ascending sweep for all-monomial data, chaining witnesses across levels.

    Returns None when already a^warm_start * seeds is contained (warm start
    invalid). The escape search at each next level first tries multiples of
    the previous witness, falling back to the sweep of `_first_escaping`; the
    final containment is always established by that sweep.
    """
    t = warm_start
    witness = _first_escaping(a, t, target, seeds)
    if witness is None:
        return None
    while True:
        nxt = None
        for g in a.generators:
            h = witness * g
            if not target.contains_poly(h):
                nxt = h
                break
        if nxt is None:
            nxt = _first_escaping(a, t + 1, target, seeds)
        if nxt is None:
            return t, witness
        t, witness = t + 1, nxt


def _levels(a: Ideal, target: Ideal, seeds):
    """Reduced bases modulo the target of the span of a^t * (seeds), for t = 0, 1, ... while nonzero.

    Level t + 1 row-reduces the normal forms of level t times each generator
    of a, so a level never holds more elements than dim_k S/target, however
    many products of generators it stands for. Each level also generates
    a^t * (seeds) + target modulo the target. `linalg` refuses a level whose
    matrix passes the cell bound with a RingError.

    Rows stay term dicts: NF(f * g) comes from one `Ideal.multiplier` per
    generator g, whose table serves every level of this call only.
    """
    multipliers = [target.multiplier(g) for g in a.generators]
    levels = []
    rows = [target.normal_form(s).terms for s in seeds]
    while True:
        rows = [row for row in rows if row]
        columns = sorted({m for row in rows for m in row}, key=grevlex_key, reverse=True)
        reduced = [row for _, row in linalg.echelon(rows, columns, a.ring.p)]
        if not reduced:
            return levels
        levels.append([Polynomial(a.ring, row) for row in reduced])
        rows = [times(row) for row in reduced for times in multipliers]


def _chain_witness(a: Ideal, target: Ideal, length: int, escapes):
    """Product of the lexicographically first chain of `length` generators escaping the target.

    Built top-down: each factor is the first generator g such that the product
    so far times g, with r factors still to come, passes the step test
    escapes(rest, r), "rest * a^r is not inside the target", where rest is
    that product reduced modulo the target. The generators commute, so that
    chain never decreases in index, and each search starts at the previous
    factor.
    """
    witness, first = a.ring.one(), 0
    for r in reversed(range(length)):
        for i in range(first, len(a.generators)):
            h = witness * a.generators[i]
            if escapes(target.normal_form(h), r):
                witness, first = h, i
                break
    return witness


def _check_generators_in_m(a: Ideal):
    # relations have no constant term, so m + L = m
    for g in a.generators:
        if g.constant_term():
            raise RingError(f"generator {g} is not in the maximal ideal")


def _check_preconditions(a: Ideal, J: Ideal):
    if a.ring != J.ring:
        raise RingError("ideals live in different rings")
    _check_generators_in_m(a)
    if not J.is_unit() and not J.is_m_primary():
        raise RingError("the bracket ideal must be m-primary")


def _scan(a: Ideal, target: Ideal, warm_start: int | None = None, seeds=None):
    """max{t : a^t * (seeds) escapes target} as (t, witness, caveats); t = -1 if never.

    All-monomial generators and seeds take the monomial sweep on a itself,
    which first tries the warm start and falls back to t = 0 (caveat
    "warm-start-fallback") when a^warm_start * (seeds) is already contained.
    Other generators take the same sweep on the reduced basis M of a + L when
    M and the seeds are monomial (the target contains L, so a^t + target =
    M^t + target), and the level chain (`_levels`) otherwise; both ignore the
    warm start. Then only an unseeded scan builds a witness (`_chain_witness`),
    whose step test "rest * a^r escapes" is asked of M^r, or of level r of
    the chain: the answers agree, so the witness does not depend on the
    kernel. The seeded witness is None.
    """
    monomial_seeds = seeds is None or _all_monomial(seeds)
    if not (monomial_seeds and _all_monomial(a.generators)):
        basis = a.basis_ideal()
        if monomial_seeds and _all_monomial(basis.generators):
            t = (_scan_monomial(basis, target, 0, seeds) or (-1,))[0]

            def escapes(rest, r):
                return _first_escaping(basis, r, target, [rest]) is not None

        else:
            levels = _levels(a, target, [a.ring.one()] if seeds is None else seeds)
            t = len(levels) - 1

            def escapes(rest, r):
                return any(not target.contains_poly(rest * f) for f in reversed(levels[r]))

        witness = _chain_witness(a, target, t, escapes) if seeds is None and t >= 0 else None
        return t, witness, ()
    caveats = ()
    result = None
    if warm_start:
        result = _scan_monomial(a, target, warm_start, seeds)
        if result is None:
            caveats = ("warm-start-fallback",)
    if result is None:
        result = _scan_monomial(a, target, 0, seeds) or (-1, None)
    return result + (caveats,)


def _bracket(values, mu: int, max_denominator: int):
    """Rational bracket from (v, q) pairs: (max v/q, min (v+1+mu)/q, guess, monotone).

    The guess is the simplest rational inside the bracket once it is at most
    1 wide; monotone says whether v/q never decreases along the list. Only
    non-monotone ratios can leave the bracket empty (lower > upper), and an
    empty bracket gets no guess.
    """
    ratios = [Fraction(v, q) for v, q in values]
    lower = max(ratios)
    upper = min(Fraction(v + 1 + mu, q) for v, q in values)
    guess = guess_rational(lower, upper, max_denominator) if 0 <= upper - lower <= 1 else None
    return lower, upper, guess, all(x <= y for x, y in zip(ratios, ratios[1:]))


def nu(a: Ideal, J: Ideal, e: int, warm_start: int | None = None) -> NuRecord:
    """Exact nu^J_a(p^e) by upward scan with a verified warm start."""
    if e < 0:
        raise RingError("e must be nonnegative")
    _check_preconditions(a, J)
    ring = a.ring
    q = ring.p**e
    target = J.bracket(q)
    t, witness, caveats = _scan(a, target, warm_start)
    # only a unit target absorbs a^0 = R, and verify accepts t = -1 for that target alone
    record = NuRecord(e, q, t, witness, ("unit-bracket-ideal",) if t < 0 else caveats)
    if not record.verify(a, target):
        raise RingError("nu certificate re-check failed; this is a bug")
    return record


def threshold_estimate(
    a: Ideal,
    J: Ideal,
    e_max: int,
    max_denominator: int = 10**6,
) -> ThresholdEstimate:
    """Records for e = 1..e_max plus the rational bracket around c^J(a)."""
    if e_max < 1:
        raise RingError("e_max must be at least 1")
    p = a.ring.p
    records = []
    prev = nu(a, J, 0)
    caveats = set(prev.caveats)
    for e in range(1, e_max + 1):
        rec = nu(a, J, e, warm_start=max(p * prev.nu, 0) if prev.nu >= 0 else None)
        caveats.update(rec.caveats)
        records.append(rec)
        prev = rec
    mu = len(a.generators)
    lower, upper, guess, monotone = _bracket([(r.nu, r.q) for r in records], mu, max_denominator)
    if not monotone:
        caveats.add("lower-bounds-not-monotone")
    return ThresholdEstimate(records, mu, lower, upper, guess, tuple(sorted(caveats)))


# -- simplest rational in an interval ---------------------------------------


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    n = math.ceil(lo)
    if Fraction(n) <= hi:
        return Fraction(n)
    k = math.floor(lo)
    return k + 1 / _simplest_between(1 / (hi - k), 1 / (lo - k))


def guess_rational(lo, hi, max_denominator: int = 10**6):
    """Simplest rational in [lo, hi] (minimal denominator, then numerator).

    Stern-Brocot descent; None when even the simplest rational needs a
    denominator beyond the bound.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise RingError("empty interval")
    best = _simplest_between(lo, hi)
    if best.denominator > max_denominator:
        return None
    return best


# -- finite-level comparison with the associated graded ring ------------------


@dataclass
class TheoremAReport:
    """Per-level comparison nu^b_m(q) <= nu^I_n(q) against the graded fiber."""

    verdict: str
    reason: str
    local_estimate: ThresholdEstimate
    graded_estimate: ThresholdEstimate
    counterexample: dict | None
    caveats: tuple

    @property
    def nu_table(self):
        pairs = zip(self.local_estimate.records, self.graded_estimate.records)
        return [(loc.e, loc.q, loc.nu, grd.nu) for loc, grd in pairs]


def verify_theorem_A(ring: QuotientRing, b: Ideal, e_max: int) -> TheoremAReport:
    """Check nu^b_m(p^e) <= nu^I_n(p^e) for e <= e_max, I the initial ideal of b."""
    if not b.is_m_primary():
        raise RingError("b must be m-primary")
    graded_b = gr_of_ideal(b)
    local = threshold_estimate(ring.maximal_ideal(), b, e_max)
    graded = threshold_estimate(graded_b.ring.maximal_ideal(), graded_b, e_max)
    caveats = tuple(local.caveats) + tuple(graded.caveats)
    for loc, grd in zip(local.records, graded.records):
        if loc.nu > grd.nu:
            return TheoremAReport(
                "fail",
                "nu^b_m exceeded nu^I_n; implementation bug",
                local,
                graded,
                {
                    "e": loc.e,
                    "q": loc.q,
                    "nu_local": loc.nu,
                    "nu_graded": grd.nu,
                    "witness": str(loc.witness),
                },
                caveats,
            )
    return TheoremAReport("pass", "inequality holds at every computed level", local, graded, None, caveats)
