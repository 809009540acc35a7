"""m-adic order, initial forms, associated graded presentations, Hilbert data.

The associated graded ring of R = S/L is S/in(L), computed exactly by the
deformation to the normal cone: each relation g becomes g* = sum_d g_d *
t^(d - ord g), the t-saturation of (g*) is found by eliminating s from
(g*, 1 - s*t), and setting t = 0 in its generators gives generators of in(L).
The rest reads Macaulay matrices: the image in S/m^(D+1) of an ideal I of S
is spanned by the products x^m * g, deg x^m <= D - ord(g), of its generators,
cut above degree D. One matrix gives every piece in(I)_d, d <= D, exactly;
for m-primary I the pieces below its nilpotency degree N and the degree-N
monomials generate in(I). From the relations' rows, h_d is the number of
degree-d monomials minus dim in(L)_d, and ord(f) is the first D at which f
survives reduction; what survives is in(f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import linalg
from .ideals import Ideal, _add_scaled, buchberger, zero_ideal
from .linalg import _MAX_MATRIX_CELLS
from .ring import (
    Polynomial,
    QuotientRing,
    RingError,
    elimination_key,
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


@dataclass
class GradedPresentation:
    """Presentation of the associated graded ring as S/in(L)."""

    ring: QuotientRing
    graded_ring: QuotientRing

    @property
    def initial_relations(self):
        return self.graded_ring.relations


@dataclass
class GrClaimReport:
    passed: bool
    reason: str
    witnesses: dict = field(default_factory=dict)
    hilbert_ring: list = field(default_factory=list)
    hilbert_claimed: list = field(default_factory=list)


def default_truncation(polys) -> int:
    top = max((f.degree() for f in polys), default=1)
    return 2 * max(top, 1) + 4


# -- order and initial forms --------------------------------------------------


def _order_and_form(f: Polynomial, ring: QuotientRing, cutoff: int):
    """(ord f, in f), or (AtLeast(cutoff), None) when f lies in m^cutoff + L.

    f is in m^(D+1) + L iff f cut above D reduces to zero against the RREF of the relations'
    product rows cut there, one pass over its pivots. Columns ascend by (degree, exponents), so
    the first D leaving a remainder is ord(f), and that remainder, of degree D, is in(f).
    """
    if cutoff < 1:
        raise RingError("cutoff must be at least 1")
    f = transfer(f, ring)
    if f.is_zero():
        return AtLeast(cutoff), None
    for D in range(f.min_degree(), cutoff):
        rows = [_cut(row, D) for row in _product_rows(ring.relations, ring.nvars, D)]
        columns = sorted({m for row in rows for m in row}, key=lambda m: (sum(m), m))
        rest = _cut(f.terms, D)
        for lead, row in linalg.echelon(rows, columns, ring.p):
            if lead in rest:
                _add_scaled(rest, row, -rest[lead], ring.p)
        if rest:
            return D, ring.from_terms(rest)
    return AtLeast(cutoff), None


def ord_of(f: Polynomial, ring: QuotientRing, cutoff: int):
    """Largest r <= cutoff with f in m^r + L; AtLeast(cutoff) past it, as for every element of L."""
    return _order_and_form(f, ring, cutoff)[0]


def initial_form(f: Polynomial, ring: QuotientRing, cutoff: int) -> Polynomial:
    """Homogeneous degree-r form representing f modulo m^{r+1} + L, r = ord(f).

    It avoids the lex-smallest monomial of each reduced echelon element of in(L)_r.
    """
    r, form = _order_and_form(f, ring, cutoff)
    if form is None:
        raise TruncationError(f"coset vanishes up to the cutoff (order at least {r.bound})")
    return form


# -- Macaulay pieces -------------------------------------------------------------


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


def _cut(terms: dict, D: int) -> dict:
    return {m: c for m, c in terms.items() if sum(m) <= D}


def _pieces(ring: QuotientRing, gen_polys, D: int):
    """Pieces in(I)_d, d <= D, of the ideal I of S the polynomials generate, as term dicts.

    in(I)_d depends only on the image of I in S/m^(d+1), so one matrix of the
    product rows cut above degree D gives every piece exactly. Columns ascend
    in degree, so the echelon rows whose pivot has degree d span the elements
    of that image vanishing below degree d; their degree-d parts, in pivot
    order, are the reduced echelon basis of in(I)_d.
    """
    # rows first: their cell bound fires before the column list is built
    rows = (_cut(row, D) for row in _product_rows(gen_polys, ring.nvars, D))
    columns = sorted(monomials_up_to_degree(ring.nvars, D), key=grevlex_key)
    pieces = {d: [] for d in range(D + 1)}
    for lead, row in linalg.echelon(rows, columns, ring.p):
        d = sum(lead)
        pieces[d].append({m: v for m, v in row.items() if sum(m) == d})
    return pieces


# -- graded presentations --------------------------------------------------------


def gr_presentation(ring: QuotientRing) -> GradedPresentation:
    """Present gr_m(R) as S/in(L), exactly, by t-saturation.

    On exponents (s, x, t), the s-free elements of the basis of (g*, 1 - s*t) under the
    elimination order generate (g*) : t^oo, whose elements at t = 0 are the initial forms of L.
    """
    n = ring.nvars
    starred = [
        {(0,) + m + (sum(m) - g.min_degree(),): c for m, c in g.terms.items()} for g in ring.relations
    ]
    inverse = {(0,) * (n + 2): 1, (1,) + (0,) * n + (1,): ring.p - 1}
    basis = buchberger(starred + [inverse], ring.p, key=elimination_key)
    at_zero = (
        {m[1:-1]: c for m, c in terms.items() if m[-1] == 0} for lead, terms in basis if lead[0] == 0
    )
    graded = QuotientRing(ring.p, ring.variables, [ring.from_terms(t) for t in at_zero if t])
    return GradedPresentation(ring, graded)


def _initial_terms(a: Ideal) -> list:
    """Generators of in(a + L) in S, as term dicts, for an m-primary ideal a of R = S/L.

    m^N ⊆ a + L for the nilpotency degree N of a, so in(a + L) is generated by
    its pieces below N, read from one matrix in pivot order, and the degree-N
    monomials, in grevlex order.
    """
    ring = a.ring
    N = a.nilpotency_degree()
    pieces = _pieces(ring, list(a.generators) + list(ring.relations), N - 1)
    monomials = sorted(monomials_of_degree(ring.nvars, N), key=grevlex_key)
    return [t for piece in pieces.values() for t in piece] + [{m: 1} for m in monomials]


def gr_of_ideal(a: Ideal, presentation: GradedPresentation) -> Ideal:
    """Initial ideal in(a + L) of an m-primary ideal a, as an ideal of gr_m(R) = S/in(L)."""
    ring = presentation.ring
    if a.ring != ring:
        raise RingError("ideal belongs to a different presentation")
    if not a.is_m_primary():
        raise RingError("initial ideals are computed for m-primary ideals only")
    graded = presentation.graded_ring
    # homogeneous a and L give in(a + L) = a + L, generated modulo in(L) by a's own generators.
    # The matrix path gives the same ideal of S/in(L) but not of S (ex-fermat-cubic `gr-ideal
    # --a J`: (x, y) here, (y, x, z^3) there), and perfbench/workloads._fingerprint compares
    # the reported generators as an ideal of S
    rel_basis = zero_ideal(ring).groebner_basis()
    if all(g.is_homogeneous() for g in rel_basis) and all(
        g.is_homogeneous() for g in a.generators
    ):
        return Ideal(graded, [transfer(g, graded) for g in a.generators])
    return Ideal(graded, [graded.from_terms(t) for t in _initial_terms(a)])


# -- Hilbert data ------------------------------------------------------------------


def hilbert_data(ring: QuotientRing, D: int) -> HilbertData:
    """Filtration dimensions h_i = dim (m^i+L)/(m^{i+1}+L) through degree D.

    h_i is the number of degree-i monomials minus dim in(L)_i, from the relations' one Macaulay matrix.
    """
    if D < 0:
        raise RingError("D must be nonnegative")
    pieces = _pieces(ring, list(ring.relations), D)
    return HilbertData([math.comb(d + ring.nvars - 1, d) - len(pieces[d]) for d in range(D + 1)])


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
            )
        witnesses[str(g)] = witness
    ambient = QuotientRing(ring.p, ring.variables)
    claimed_ideal = Ideal(ambient, [transfer(g, ambient) for g in claimed_polys])
    h_claimed = [len(claimed_ideal.standard_monomials_of_degree(d)) for d in range(D + 1)]
    h_ring = hilbert_data(ring, D).values
    if h_claimed != h_ring:
        return GrClaimReport(
            False,
            f"Hilbert data disagree through degree {D}: ring {h_ring}, claimed {h_claimed}",
            witnesses,
            h_ring,
            h_claimed,
        )
    return GrClaimReport(True, "realizability and Hilbert agreement hold", witnesses, h_ring, h_claimed)


def _realize_initial_form(ring, rows, target: Polynomial):
    """Element of the span of the product rows equal to target in degrees <= deg(target)."""
    r = target.min_degree()
    cut = [_cut(row, r) for row in rows]
    solution = linalg.solve(cut, target.terms, ring.p)
    if solution is None:
        return None
    element = ring.zero()
    for coeff, row in zip(solution, rows):
        if coeff:
            element = element + Polynomial(ring, row).scale(coeff)
    return element
