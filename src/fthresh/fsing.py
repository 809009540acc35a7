"""F-purity, F-pure thresholds, and tight-closure membership probes.

The splitting ideals are realized computationally by the Fedder/Glassbrenner
colon (L^[q] :_S L) in the ambient polynomial ring; that realization, and the
test-element hypothesis behind tight-closure certificates, are recorded as
structured assumptions on every verdict rather than silently trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .frobenius import ThresholdEstimate, _bracket, _check_generators_in_m, _scan, threshold_estimate
from .ideals import Ideal, zero_ideal
from .ring import Polynomial, QuotientRing, RingError, transfer


class FPurityError(RingError):
    """The operation requires an F-pure presentation."""


def _ambient(ring: QuotientRing) -> QuotientRing:
    return ring.cached("ambient", lambda: QuotientRing(ring.p, ring.variables) if ring.relations else ring)


def _splitting_colon(ring: QuotientRing, q: int) -> Ideal:
    """(L^[q] :_S L) in the ambient polynomial ring; the unit ideal for L = 0."""
    S = _ambient(ring)

    def build():
        if not ring.relations:
            return Ideal(S, [S.one()])
        L = Ideal(S, [transfer(g, S) for g in ring.relations])
        return L.bracket(q).colon(L)

    return ring.cached(("splitting", q), build)


def fedder_f_pure(ring: QuotientRing) -> bool:
    """Fedder's criterion: S/L is F-pure iff (L^[p] : L) escapes m^[p]."""
    if not ring.relations:
        return True
    S = _ambient(ring)
    target = S.maximal_ideal().bracket(ring.p)
    colon = _splitting_colon(ring, ring.p)
    return not target.contains(colon)


@dataclass
class FptEstimate:
    """b_a(q) records with rational brackets around the F-pure threshold."""

    records: list  # (e, q, b)
    mu: int
    lower: Fraction
    upper: Fraction
    guess: Fraction | None
    caveats: tuple = ()


def fpt_estimate(
    a: Ideal,
    e_max: int,
    max_denominator: int = 10**6,
) -> FptEstimate:
    """b_a(q) = max{t : a^t (L^[q] : L) escapes m^[q]}, bracketed like nu/q.

    Requires an F-pure presentation; for L = 0 the colon is the unit ideal and
    b coincides with nu^m_a.
    """
    if e_max < 1:
        raise RingError("e_max must be at least 1")
    if max_denominator < 1:
        raise RingError("max_denominator must be at least 1")
    ring = a.ring
    if not fedder_f_pure(ring):
        raise FPurityError("the presentation is not F-pure; b_a(q) is undefined")
    _check_generators_in_m(a)
    S = _ambient(ring)
    a_S = Ideal(S, [transfer(g, S) for g in a.generators])
    p = ring.p
    records = []
    caveats = set()
    if ring.relations:
        caveats.add("fpt-upper-heuristic")
    prev_b = 0
    for e in range(1, e_max + 1):
        q = p**e
        seeds = list(_splitting_colon(ring, q).generators)
        t, _, scan_caveats = _scan(a_S, S.maximal_ideal().bracket(q), p * prev_b, seeds)
        if t < 0:
            raise FPurityError("splitting colon landed inside m^[q]; contradicts F-purity")
        caveats.update(scan_caveats)
        records.append((e, q, t))
        prev_b = t
    mu = len(a.generators)
    lower, upper, guess, monotone = _bracket([(b, q) for _, q, b in records], mu, max_denominator)
    if not monotone:
        caveats.add("b-ratios-not-monotone")
    return FptEstimate(records, mu, lower, upper, guess, tuple(sorted(caveats)))


# -- tight closure -----------------------------------------------------------


@dataclass
class TcVerdict:
    """Outcome of a tight-closure membership probe.

    kind is one of "member", "certified_not_in_star", "consistent_with_star".
    Certificates are only as strong as the recorded assumptions (the
    multiplier is user-asserted as a test element).
    """

    kind: str
    element: str
    ideal: str
    multiplier: str
    witness_e: int | None = None
    checked_through: int | None = None
    assumptions: tuple = ()

    def certified(self) -> bool:
        return self.kind == "certified_not_in_star"


# The linear-factor screen tries p + p^2 + ... + p^n substitutions. Past this
# many (about half a second) it certifies nothing. The fixture, demo and test
# rings that reach the screen need at most 14, apart from the p = 65521 ring
# that tests this bound; p = 13 in three variables needs 2379, p = 17 5219.
_MAX_LINEAR_SUBSTITUTIONS = 4096


def _has_linear_factor(f: Polynomial, ring: QuotientRing) -> bool:
    """Search for a monic degree-one factor by substitution, constants included."""
    p = ring.p
    n = ring.nvars
    for lead in range(n):
        # monic linear polys with leading variable `lead`:
        # x_lead + (affine combination of later variables and a constant)
        tail_vars = list(range(lead + 1, n))
        coeff_choices = [range(p)] * (len(tail_vars) + 1)
        for coeffs in itertools.product(*coeff_choices):
            # substitute x_lead = -(tail) and test vanishing
            substitution = ring.zero()
            for c, v in zip(coeffs[:-1], tail_vars):
                if c:
                    substitution = substitution + ring.variable(ring.variables[v]).scale(-c % p)
            substitution = substitution + ring.constant(-coeffs[-1] % p)
            image = ring.zero()
            for mono, c in f.terms.items():
                term = ring.constant(c)
                for i, exp in enumerate(mono):
                    if not exp:
                        continue
                    base = substitution if i == lead else ring.variable(ring.variables[i])
                    term = term * base**exp
                image = image + term
            if image.is_zero():
                return True
    return False


def _domain_assumptions(ring: QuotientRing, assume_domain: bool):
    """Weak domain screen: regular, or low-degree principal with no linear factor."""
    if not ring.relations:
        return ()
    basis = zero_ideal(ring).groebner_basis()
    if (
        len(basis) == 1
        and basis[0].degree() <= 3
        and sum(ring.p**k for k in range(1, ring.nvars + 1)) <= _MAX_LINEAR_SUBSTITUTIONS
        and not _has_linear_factor(basis[0], ring)
    ):
        return ()
    if assume_domain:
        return ("domain-asserted-by-user",)
    raise RingError(
        "cannot certify the presentation is a domain; pass assume_domain=True to assert it"
    )


def tc_member(
    x: Polynomial,
    J: Ideal,
    c: Polynomial,
    e_max: int,
    assume_domain: bool = False,
) -> TcVerdict:
    """Probe x against the tight closure of J with multiplier c."""
    if e_max < 1:
        raise RingError("e_max must be at least 1")
    ring = J.ring
    x = transfer(x, ring)
    c = transfer(c, ring)
    if c.is_zero() or zero_ideal(ring).contains_poly(c):
        raise RingError("the multiplier must be nonzero modulo the presentation")
    assumptions = ("multiplier-asserted-as-test-element",) + _domain_assumptions(ring, assume_domain)
    if J.contains_poly(x):
        return TcVerdict("member", str(x), repr(J), str(c), assumptions=assumptions)
    for e in range(1, e_max + 1):
        q = ring.p**e
        if not J.bracket(q).contains_poly(c * x.frobenius(e)):
            return TcVerdict(
                "certified_not_in_star",
                str(x),
                repr(J),
                str(c),
                witness_e=e,
                assumptions=assumptions,
            )
    return TcVerdict(
        "consistent_with_star",
        str(x),
        repr(J),
        str(c),
        checked_through=e_max,
        assumptions=assumptions,
    )


# -- F-rationality probe -------------------------------------------------------


@dataclass
class SocleProbe:
    representative: str
    verdict: TcVerdict
    threshold: ThresholdEstimate
    excludes_dimension: bool


@dataclass
class FRationalReport:
    """Socle-wise tight-closure evidence for J* = J, J a parameter ideal."""

    verdict: str  # "certified_star_trivial_up_to_socle" | "not_certified"
    dimension: int
    socle_probes: list
    assumptions: tuple = ()
    caveats: tuple = ()
    test_element_suggestions: tuple = ()


def _jacobian_suggestions(ring: QuotientRing):
    if len(ring.relations) != 1:
        return ()
    f = ring.relations[0]
    p = ring.p
    out = []
    for i, name in enumerate(ring.variables):
        terms = {}
        for mono, c in f.terms.items():
            if mono[i]:
                lowered = tuple(e - 1 if j == i else e for j, e in enumerate(mono))
                v = (terms.get(lowered, 0) + c * mono[i]) % p
                terms[lowered] = v
        poly = ring.from_terms(terms)
        if not poly.is_zero():
            out.append(f"d/d{name}: {poly}")
    return tuple(out)


def f_rational_probe(
    J: Ideal,
    c: Polynomial,
    e_max: int,
    assume_domain: bool = False,
) -> FRationalReport:
    """Run tc_member over a socle basis of R/J and cross-check c^I(J) < dim R.

    J must be generated by dim(R) elements and be m-primary (a system of
    parameters). A one-dimensional socle with every representative certified
    outside J* certifies J* = J for this J, modulo the test-element assertion;
    larger socles are reported as basis-only evidence.
    """
    ring = J.ring
    d = ring.dimension
    if len(J.generators) != d or not J.is_m_primary():
        raise RingError("J must be generated by dim(R) elements and be m-primary")
    socle = J.socle()
    caveats = []
    if len(socle) > 1:
        caveats.append("socle-basis-only")
    probes = []
    all_certified = True
    assumptions: tuple = ()
    for u in socle:
        verdict = tc_member(u, J, c, e_max, assume_domain)
        assumptions = verdict.assumptions
        if not verdict.certified():
            all_certified = False
        I_u = J + Ideal(ring, [u])
        est = threshold_estimate(J, I_u, e_max)
        probes.append(SocleProbe(str(u), verdict, est, est.upper < d))
    verdict = "certified_star_trivial_up_to_socle" if all_certified else "not_certified"
    return FRationalReport(
        verdict,
        d,
        probes,
        assumptions,
        tuple(caveats),
        _jacobian_suggestions(ring),
    )
