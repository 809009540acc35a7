"""m-adic order, initial forms, associated graded presentations, Hilbert data.

The associated graded ring of R = S/L is presented as S/in(L). For principal
or homogeneous L the initial ideal is exact. Otherwise its pieces in(I)_d,
d <= D, come from one Macaulay matrix: in(I)_d depends only on the image of I
in S/m^(d+1), which the products x^m * g with deg x^m <= D - ord(g), cut
above degree D, span. Every piece through D is exact; the exact flag records
whether those pieces determine the whole ideal. They do for an m-primary
ideal once D reaches its nilpotency degree; a cone in(L) built this way stays
flagged truncated, since its generators above D are not computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import linalg
from .ideals import Ideal, zero_ideal
from .ring import (
    Polynomial,
    QuotientRing,
    RingError,
    grevlex_key,
    monomial_mul,
    monomials_of_degree,
    monomials_up_to_degree,
    transfer,
)


@dataclass(frozen=True)
class AtLeast:
    """Order value truncated at the cutoff: the element lies in m^bound + L."""

    bound: int


class TruncationError(RingError):
    """The requested data is not visible below the truncation degree."""


@dataclass
class HilbertData:
    """h_i = dim_k (m^i + L)/(m^{i+1} + L) for i = 0..D."""

    values: list

    def __eq__(self, other):
        if isinstance(other, HilbertData):
            return self.values == other.values
        return self.values == list(other)


@dataclass
class GradedPresentation:
    """Truncated presentation of the associated graded ring as S/in(L)."""

    ring: QuotientRing
    graded_ring: QuotientRing
    truncation_degree: int
    exact: bool
    method: str

    @property
    def initial_relations(self):
        return self.graded_ring.relations


@dataclass
class GradedIdeal:
    """Initial ideal of an m-primary ideal inside a graded presentation."""

    ideal: Ideal
    exact: bool
    truncation_degree: int


@dataclass
class GrClaimReport:
    passed: bool
    reason: str
    witnesses: dict = field(default_factory=dict)
    hilbert_ring: list = field(default_factory=list)
    hilbert_claimed: list = field(default_factory=list)
    truncation_degree: int = 0


def default_truncation(polys) -> int:
    top = max((f.degree() for f in polys), default=1)
    return 2 * max(top, 1) + 4


# -- order and initial forms --------------------------------------------------


def ord_of(f: Polynomial, ring: QuotientRing, cutoff: int):
    """Largest r <= cutoff with f in m^r + L; AtLeast(cutoff) past the cutoff.

    Elements of L (zero cosets) report AtLeast for every cutoff.
    """
    if cutoff < 1:
        raise RingError("cutoff must be at least 1")
    f = transfer(f, ring)
    if f.is_zero():
        return AtLeast(cutoff)
    if not ring.relations:
        d = f.min_degree()
        return AtLeast(cutoff) if d >= cutoff else d
    for k in range(1, cutoff + 1):
        if not ring.power_of_maximal_ideal(k).contains_poly(f):
            return k - 1
    return AtLeast(cutoff)


def initial_form(f: Polynomial, ring: QuotientRing, cutoff: int) -> Polynomial:
    """Homogeneous degree-r form representing f modulo m^{r+1} + L, r = ord(f).

    Computed by solving for a degree-r monomial combination congruent to f;
    any two solutions differ inside m^{r+1} + L, and the reduced-echelon
    particular solution keeps the output deterministic.
    """
    r = ord_of(f, ring, cutoff)
    if isinstance(r, AtLeast):
        raise TruncationError(f"coset vanishes up to the cutoff (order at least {r.bound})")
    f = transfer(f, ring)
    if not ring.relations:
        return f.homogeneous_component(r)
    modulus = ring.power_of_maximal_ideal(r + 1)
    target = modulus.normal_form(f)
    degree_r = [ring.monomial(m) for m in monomials_of_degree(ring.nvars, r)]
    images = [modulus.normal_form(g).terms for g in degree_r]
    solution = linalg.solve(images, target.terms, ring.p)
    if solution is None:
        raise RingError("initial form solve failed; order computation is inconsistent")
    terms = {}
    for coeff, mono in zip(solution, degree_r):
        if coeff:
            terms[next(iter(mono.terms))] = coeff
    return ring.from_terms(terms)


# -- Macaulay pieces -------------------------------------------------------------

# Most cells (rows x columns) of a Macaulay matrix; a larger one is refused
# before any row is built. The largest the tests and benchmark build has 1,597,596.
_MAX_MATRIX_CELLS = 2**27


def _product_rows(gen_polys, nvars: int, D: int):
    """The products x^m * g with deg x^m <= D - ord(g), as full term dicts, one at a time.

    Cut above degree D, they span the image in S/m^(D+1) of the ideal the g
    generate. Raises TruncationError, before building anything, when they
    make more than _MAX_MATRIX_CELLS cells over the monomials of degree <= D.
    """
    gens = [g for g in gen_polys if g.min_degree() <= D]
    nrows = sum(math.comb(D - g.min_degree() + nvars, nvars) for g in gens)
    ncols = math.comb(max(D, 0) + nvars, nvars)
    if nrows * ncols > _MAX_MATRIX_CELLS:
        raise TruncationError(
            f"Macaulay matrix of {nrows} x {ncols} cells through degree {D} "
            f"exceeds the bound of {_MAX_MATRIX_CELLS} cells"
        )
    return (
        {monomial_mul(gm, m): c for gm, c in g.terms.items()}
        for g in gens
        for m in monomials_up_to_degree(nvars, D - g.min_degree())
    )


def _pieces(ring: QuotientRing, gen_polys, D: int):
    """Pieces in(I)_d, d <= D, of the ideal I of S the polynomials generate, as term dicts.

    in(I)_d depends only on the image of I in S/m^(d+1), so one matrix of the
    product rows cut above degree D gives every piece exactly. Columns ascend
    in degree, so the echelon rows whose pivot has degree d span the elements
    of that image vanishing below degree d; their degree-d parts, in pivot
    order, are the reduced echelon basis of in(I)_d.
    """
    # rows first: their cell bound fires before the column list is built
    rows = ({m: c for m, c in row.items() if sum(m) <= D} for row in _product_rows(gen_polys, ring.nvars, D))
    columns = sorted(monomials_up_to_degree(ring.nvars, D), key=grevlex_key)
    pieces = {d: [] for d in range(D + 1)}
    for lead, row in linalg.echelon(rows, columns, ring.p):
        d = sum(lead)
        pieces[d].append({m: v for m, v in row.items() if sum(m) == d})
    return pieces


# -- graded presentations --------------------------------------------------------


def gr_presentation(ring: QuotientRing, D: int | None = None) -> GradedPresentation:
    """Present gr_m(R) as S/in(L), exactly when possible, truncated otherwise."""
    if D is None:
        D = default_truncation(ring.relations)
    if not ring.relations:
        graded = QuotientRing(ring.p, ring.variables)
        return GradedPresentation(ring, graded, D, True, "zero")
    basis = zero_ideal(ring).groebner_basis()
    if len(basis) == 1:
        lowest = basis[0].homogeneous_component(basis[0].min_degree())
        graded = QuotientRing(ring.p, ring.variables, [lowest])
        return GradedPresentation(ring, graded, D, True, "principal")
    if all(g.is_homogeneous() for g in basis):
        graded = QuotientRing(ring.p, ring.variables, list(basis))
        return GradedPresentation(ring, graded, D, True, "homogeneous")
    # generators of in(L) above D are not computed, so the cone stays truncated
    pieces = _pieces(ring, list(basis), D)
    ambient = QuotientRing(ring.p, ring.variables)
    gens = [ambient.from_terms(t) for piece in pieces.values() for t in piece]
    graded = QuotientRing(ring.p, ring.variables, gens)
    return GradedPresentation(ring, graded, D, False, "macaulay")


def gr_of_ideal(a: Ideal, presentation: GradedPresentation, D: int | None = None) -> GradedIdeal:
    """Initial ideal of an m-primary ideal inside the graded presentation, through degree D.

    Exact once D reaches the nilpotency degree N of a: in(a + L) holds every
    monomial of degree >= N, and its pieces below N come from one matrix.
    """
    ring = presentation.ring
    if a.ring != ring:
        raise RingError("ideal belongs to a different presentation")
    if not a.is_m_primary():
        raise RingError("initial ideals are computed for m-primary ideals only")
    if D is None:
        D = presentation.truncation_degree
    graded = presentation.graded_ring
    rel_basis = zero_ideal(ring).groebner_basis()
    if all(g.is_homogeneous() for g in rel_basis) and all(
        g.is_homogeneous() for g in a.generators
    ):
        return GradedIdeal(Ideal(graded, [transfer(g, graded) for g in a.generators]), True, D)
    if not ring.relations:
        own = a.groebner_basis()
        if len(own) == 1:
            lowest = own[0].homogeneous_component(own[0].min_degree())
            return GradedIdeal(Ideal(graded, [transfer(lowest, graded)]), True, D)
    N = a.nilpotency_degree()
    pieces = _pieces(ring, list(a.generators) + list(ring.relations), min(D, N - 1))
    gens = [graded.from_terms(t) for piece in pieces.values() for t in piece]
    # m^N ⊆ a + L, so every monomial of degree N..D lies in in(a + L)
    gens += [
        graded.monomial(m)
        for d in range(N, D + 1)
        for m in sorted(monomials_of_degree(ring.nvars, d), key=grevlex_key)
    ]
    return GradedIdeal(Ideal(graded, gens), N <= D, D)


# -- Hilbert data ------------------------------------------------------------------


def _standard_counts(ideal: Ideal, max_degree: int):
    """Count, per degree, monomials not divisible by any basis lead."""
    return [len(ideal.standard_monomials_of_degree(d)) for d in range(max_degree + 1)]


def hilbert_data(obj, D: int) -> HilbertData:
    """Filtration dimensions h_i = dim (m^i+L)/(m^{i+1}+L) through degree D."""
    if D < 0:
        raise RingError("D must be nonnegative")
    if isinstance(obj, GradedPresentation):
        counts = _standard_counts(zero_ideal(obj.graded_ring), D)
        return HilbertData(counts)
    ring = obj
    dims = []
    for i in range(D + 2):
        handle = ring.power_of_maximal_ideal(i)
        if i == 0:
            dims.append(0)
            continue
        counts = _standard_counts(handle, i - 1)
        dims.append(sum(counts))
    return HilbertData([dims[i + 1] - dims[i] for i in range(D + 1)])


# -- claim verification ---------------------------------------------------------------


def verify_gr_claim(claimed, ring: QuotientRing, D: int | None = None) -> GrClaimReport:
    """Check a claimed initial ideal: realizability of generators + Hilbert agreement."""
    if D is None:
        D = default_truncation(ring.relations)
    claimed_polys = [ring.parse(g) if isinstance(g, str) else transfer(g, ring) for g in claimed]
    for g in claimed_polys:
        if not g.is_homogeneous() or g.is_zero():
            return GrClaimReport(False, f"claimed generator {g} is not homogeneous and nonzero")
    basis = zero_ideal(ring).groebner_basis()
    if not basis:
        return GrClaimReport(False, "the ring has no relations; in(L) is the zero ideal")
    top = max([D] + [g.degree() for g in claimed_polys])
    rows = list(_product_rows(list(basis), ring.nvars, top))
    witnesses = {}
    for g in claimed_polys:
        witness = _realize_initial_form(ring, rows, g)
        if witness is None:
            return GrClaimReport(
                False,
                f"claimed generator {g} is not the initial form of any element of L",
                witnesses,
                truncation_degree=D,
            )
        witnesses[str(g)] = witness
    ambient = QuotientRing(ring.p, ring.variables)
    claimed_ideal = Ideal(ambient, [transfer(g, ambient) for g in claimed_polys])
    h_claimed = _standard_counts(claimed_ideal, D)
    h_ring = hilbert_data(ring, D).values
    if h_claimed != h_ring:
        return GrClaimReport(
            False,
            f"Hilbert data disagree through degree {D}: ring {h_ring}, claimed {h_claimed}",
            witnesses,
            h_ring,
            h_claimed,
            D,
        )
    return GrClaimReport(True, "realizability and Hilbert agreement hold", witnesses, h_ring, h_claimed, D)


def _realize_initial_form(ring, rows, target: Polynomial):
    """Element of the span of the product rows equal to target in degrees <= deg(target)."""
    r = target.min_degree()
    cut = [{m: c for m, c in row.items() if sum(m) <= r} for row in rows]
    solution = linalg.solve(cut, target.terms, ring.p)
    if solution is None:
        return None
    element = ring.zero()
    for coeff, row in zip(solution, rows):
        if coeff:
            element = element + Polynomial(ring, row).scale(coeff)
    return element
