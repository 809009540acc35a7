"""m-adic order, initial forms, associated graded presentations, Hilbert data.

The associated graded ring of R = S/L is presented as S/in(L). For principal
or homogeneous L the initial ideal is exact; otherwise it is computed
degreewise through a truncation bound D by Macaulay matrices, growing the
product degree N until two consecutive increments leave every degree piece
unchanged. The exact flag records which of these happened.
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
    images = [modulus.normal_form(g) for g in degree_r]
    columns = sorted(
        {m for g in images for m in g.terms} | set(target.terms), key=grevlex_key
    )
    col_index = {m: j for j, m in enumerate(columns)}
    mat = linalg.terms_matrix([g.terms for g in images], col_index)
    vec = linalg.terms_matrix([target.terms], col_index)[0]
    solution = linalg.solve(mat, vec, ring.p)
    if solution is None:
        raise RingError("initial form solve failed; order computation is inconsistent")
    terms = {}
    for coeff, mono in zip(solution, degree_r):
        if coeff:
            terms[next(iter(mono.terms))] = int(coeff)
    return ring.from_terms(terms)


# -- Macaulay piece machinery --------------------------------------------------


def _column_layout(nvars: int, N: int):
    columns = list(monomials_up_to_degree(nvars, N))
    columns.sort(key=grevlex_key)
    return columns, {m: j for j, m in enumerate(columns)}


# Most cells (rows x columns) of a Macaulay matrix; a larger one is refused
# before allocation. The largest the tests and benchmark build has 72,264,192.
_MAX_MATRIX_CELLS = 2**27


def _product_rows(gen_polys, nvars: int, N: int, col_index):
    """The products g*x^m of degree <= N as term dicts, and their coefficient matrix.

    Raises TruncationError instead of allocating more than _MAX_MATRIX_CELLS cells.
    """
    gens = [g for g in gen_polys if g.degree() <= N]
    nrows = sum(math.comb(N - g.degree() + nvars, nvars) for g in gens)
    if nrows * len(col_index) > _MAX_MATRIX_CELLS:
        raise TruncationError(
            f"Macaulay matrix of {nrows} x {len(col_index)} cells at product degree {N} "
            f"exceeds the bound of {_MAX_MATRIX_CELLS} cells"
        )
    rows = [
        {monomial_mul(gm, m): c for gm, c in g.terms.items()}
        for g in gens
        for m in monomials_up_to_degree(nvars, N - g.degree())
    ]
    return rows, linalg.terms_matrix(rows, col_index)


def _pieces_at(ring: QuotientRing, gen_polys, D: int, N: int):
    """Degree pieces i <= D of the span of bounded products, as canonical matrices.

    Columns are ordered by ascending degree, so echelon rows whose pivot sits
    in the degree-i block span exactly the part of the row space vanishing
    below degree i; their degree-i components are the truncated piece.
    """
    columns, col_index = _column_layout(ring.nvars, N)
    mat = _product_rows(gen_polys, ring.nvars, N, col_index)[1]
    reduced, pivots = linalg.rref(mat, ring.p)
    degree_of_col = [sum(m) for m in columns]
    block = {}
    for d in range(D + 1):
        block[d] = [j for j, m in enumerate(columns) if degree_of_col[j] == d]
    pieces = {}
    for d in range(D + 1):
        rows = []
        for row, c in zip(reduced, pivots):
            if degree_of_col[c] == d:
                rows.append(tuple(int(row[j]) for j in block[d]))
        pieces[d] = tuple(rows)
    return pieces


def _stabilized_pieces(ring: QuotientRing, gen_polys, D: int):
    top = max((g.degree() for g in gen_polys), default=1)
    N = max(D, top)
    pieces = _pieces_at(ring, gen_polys, D, N)
    stable = 0
    while stable < 2:
        N += 1
        nxt = _pieces_at(ring, gen_polys, D, N)
        if nxt == pieces:
            stable += 1
        else:
            stable = 0
        pieces = nxt
    return pieces, N


def _pieces_to_polynomials(ring: QuotientRing, pieces, D: int):
    out = []
    for d in range(D + 1):
        mons = list(monomials_of_degree(ring.nvars, d))
        mons.sort(key=grevlex_key)
        for row in pieces[d]:
            terms = {m: c for m, c in zip(mons, row) if c}
            if terms:
                out.append(ring.from_terms(terms))
    return out


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
    pieces, _ = _stabilized_pieces(ring, list(basis), D)
    ambient = QuotientRing(ring.p, ring.variables)
    gens = _pieces_to_polynomials(ambient, pieces, D)
    graded = QuotientRing(ring.p, ring.variables, gens)
    return GradedPresentation(ring, graded, D, False, "macaulay")


def gr_of_ideal(a: Ideal, presentation: GradedPresentation, D: int | None = None) -> GradedIdeal:
    """Truncated initial ideal of an m-primary ideal inside the graded presentation."""
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
    lifted = list(a.generators) + list(ring.relations)
    pieces, _ = _stabilized_pieces(ring, lifted, D)
    gens = _pieces_to_polynomials(graded, pieces, D)
    return GradedIdeal(Ideal(graded, gens), False, D)


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
    pieces, N = _stabilized_pieces(ring, list(basis), D)
    columns, col_index = _column_layout(ring.nvars, N)
    rows, mat = _product_rows(list(basis), ring.nvars, N, col_index)
    witnesses = {}
    for g in claimed_polys:
        witness = _realize_initial_form(ring, rows, mat, columns, g)
        if witness is None:
            return GrClaimReport(
                False,
                f"claimed generator {g} is not the initial form of any element "
                f"found with products up to degree {N}",
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


def _realize_initial_form(ring, rows, mat, columns, target: Polynomial):
    """Explicit element of the span of the product rows whose initial form is target."""
    if mat.shape[0] == 0:
        return None
    r = target.min_degree()
    keep = [j for j, m in enumerate(columns) if sum(m) <= r]
    reindex = {columns[j]: i for i, j in enumerate(keep)}
    if any(m not in reindex for m in target.terms):
        return None
    vec = linalg.terms_matrix([target.terms], reindex)[0]
    solution = linalg.solve(mat[:, keep], vec, ring.p)
    if solution is None:
        return None
    element = ring.zero()
    for coeff, row in zip(solution, rows):
        if coeff:
            element = element + Polynomial(ring, row).scale(int(coeff))
    return element
