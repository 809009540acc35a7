"""Groebner bases and ideal arithmetic over quotient-ring presentations.

Every predicate about an ideal of R = S/L is evaluated through its lift
(generators + L) in the ambient polynomial ring S. The engine is classical
Buchberger with the normal pair-selection strategy; reduced bases are unique
for the fixed grevlex order, so handles compare ideals by comparing bases.

Basis elements are monic (lead, terms) pairs: the leading monomial is found
once, when an element enters the basis, and travels with it from `buchberger`
to the `Ideal` handle (`_gb_leads`), which reduces, tests staircases and
counts dimension from the stored leads. Each S-pair is ranked once, when it
is created, and waits on a heap until it is the smallest pending pair.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from . import linalg
from .ring import (
    Polynomial,
    QuotientRing,
    RingError,
    elimination_key,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
)


# -- term-dict level machinery --------------------------------------------


def _leading(terms, key):
    return max(terms, key=key)


def _normal_form_terms(terms, reducers, p, key):
    """Full normal form of a term dict against (lead, terms) reducer pairs.

    Reducers must be monic. Returns a new dict; the input is not mutated.
    """
    work = dict(terms)
    remainder: dict = {}
    while work:
        m = _leading(work, key)
        c = work.pop(m)
        reduced = False
        for lead, g_terms in reducers:
            if monomial_divides(lead, m):
                shift = monomial_div(m, lead)
                for gm, gc in g_terms.items():
                    if gm == lead:
                        continue
                    mm = monomial_mul(gm, shift)
                    v = (work.get(mm, 0) - c * gc) % p
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                reduced = True
                break
        if not reduced:
            remainder[m] = c
    return remainder


def _divide_with_quotient(terms, divisor_terms, p, key):
    """Division by a single polynomial, returning (quotient, remainder)."""
    lead = _leading(divisor_terms, key)
    lc_inv = pow(divisor_terms[lead], p - 2, p)
    work = dict(terms)
    quotient: dict = {}
    remainder: dict = {}
    while work:
        m = _leading(work, key)
        c = work.pop(m)
        if monomial_divides(lead, m):
            shift = monomial_div(m, lead)
            factor = (c * lc_inv) % p
            quotient[shift] = (quotient.get(shift, 0) + factor) % p
            for gm, gc in divisor_terms.items():
                if gm == lead:
                    continue
                mm = monomial_mul(gm, shift)
                v = (work.get(mm, 0) - factor * gc) % p
                if v:
                    work[mm] = v
                else:
                    work.pop(mm, None)
        else:
            remainder[m] = c
    quotient = {m: c for m, c in quotient.items() if c}
    return quotient, remainder


def _monic(terms, p, key):
    """(lead, terms) of a nonzero term dict, scaled to a monic leading term."""
    lead = _leading(terms, key)
    lc = terms[lead]
    if lc == 1:
        return lead, dict(terms)
    inv = pow(lc, p - 2, p)
    return lead, {m: (c * inv) % p for m, c in terms.items()}


def _s_poly(f, g, p):
    """S-polynomial of two monic (lead, terms) pairs."""
    (lf, f_terms), (lg, g_terms) = f, g
    tau = monomial_lcm(lf, lg)
    sf = monomial_div(tau, lf)
    sg = monomial_div(tau, lg)
    out: dict = {}
    for m, c in f_terms.items():
        mm = monomial_mul(m, sf)
        out[mm] = (out.get(mm, 0) + c) % p
    for m, c in g_terms.items():
        mm = monomial_mul(m, sg)
        out[mm] = (out.get(mm, 0) - c) % p
    return {m: c for m, c in out.items() if c}


def buchberger(generator_terms, p, key=grevlex_key):
    """Reduced Groebner basis, as monic (lead, terms) pairs sorted by ascending lead.

    Each element's leading monomial is found once, when it enters the basis,
    and the basis list doubles as the reducer list of every normal form.
    Pair selection is the normal strategy: a pair (i, j) is ranked once, when
    it is created, by (deg lcm, key(lcm), i, j) and pushed on a heap, so pairs
    are taken by minimal lcm degree, ties by the lcm monomial, then by index.
    Pairs with coprime leads and pairs of two monomials are never queued:
    their S-polynomials reduce to zero for free.
    """
    basis: list = []
    pairs: list = []

    def enter(terms):
        lead, monic = _monic(terms, p, key)
        basis.append((lead, monic))
        k = len(basis) - 1
        for i, (lead_i, terms_i) in enumerate(basis[:k]):
            tau = monomial_lcm(lead_i, lead)
            if tau == monomial_mul(lead_i, lead) or (len(terms_i) == 1 and len(monic) == 1):
                continue
            heapq.heappush(pairs, (sum(tau), key(tau), i, k))

    for terms in generator_terms:
        if terms:
            nf = _normal_form_terms(terms, basis, p, key)
            if nf:
                enter(nf)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        s = _s_poly(basis[i], basis[j], p)
        nf = s and _normal_form_terms(s, basis, p, key)
        if nf:
            enter(nf)
    return _reduce_basis(basis, p, key)


def _reduce_basis(basis, p, key):
    """Interreduce (lead, terms) pairs to the unique reduced basis, ascending by lead.

    After the minimality pass no kept lead divides another, so tail reduction
    leaves every lead, with coefficient one, in place.
    """
    kept: list = []
    for lead, terms in sorted(basis, key=lambda g: key(g[0])):
        if not any(monomial_divides(h, lead) for h, _ in kept):
            kept.append((lead, terms))
    return [
        (lead, _normal_form_terms(terms, kept[:idx] + kept[idx + 1 :], p, key))
        for idx, (lead, terms) in enumerate(kept)
    ]


# -- ideal handles ----------------------------------------------------------


@dataclass(frozen=True)
class SocleBasis:
    """k-basis of (A : m)/A, each representative a normal form against A."""

    representatives: tuple


class Ideal:
    """Generator list plus lazily cached reduced basis of the lifted ideal."""

    def __init__(self, ring: QuotientRing, generators):
        self.ring = ring
        seen = set()
        gens = []
        for g in generators:
            f = ring.parse(g) if isinstance(g, str) else g
            if f.ring is not ring:
                if not f.ring.same_ambient(ring):
                    raise RingError("generator from a different ambient ring")
                f = Polynomial(ring, dict(f.terms))
            if f.is_zero():
                continue
            fkey = frozenset(f.terms.items())
            if fkey in seen:
                continue
            seen.add(fkey)
            gens.append(f)
        self.generators = tuple(gens)
        self._gb = None
        self._gb_leads = None
        self._monomial_elements = None
        self._bracket_cache: dict = {}
        self._power_cache: dict = {1: self.generators}
        self._nilpotency = None
        self._m_primary = None

    # -- Groebner data ------------------------------------------------------

    def groebner_basis(self):
        """Reduced Groebner basis of (generators + relations) in the ambient ring."""
        if self._gb is None:
            gen_terms = [g.terms for g in self.generators]
            gen_terms += [g.terms for g in self.ring.relations]
            self._gb_leads = tuple(buchberger(gen_terms, self.ring.p))
            self._gb = tuple(Polynomial(self.ring, g) for _, g in self._gb_leads)
            self._monomial_elements = tuple(lead for lead, g in self._gb_leads if len(g) == 1)
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not f.ring.same_ambient(self.ring):
            raise RingError("element from a different ambient ring")
        self.groebner_basis()
        nf = _normal_form_terms(f.terms, self._gb_leads, self.ring.p, grevlex_key)
        return Polynomial(self.ring, nf)

    def contains_poly(self, f: Polynomial) -> bool:
        if len(f.terms) == 1:
            self.groebner_basis()
            m = next(iter(f.terms))
            if any(monomial_divides(g, m) for g in self._monomial_elements):
                return True
        return self.normal_form(f).is_zero()

    def contains(self, inner) -> bool:
        """Containment of an element or of a whole ideal (generatorwise)."""
        if isinstance(inner, Polynomial):
            return self.contains_poly(inner)
        if not isinstance(inner, Ideal):
            raise TypeError("contains expects a Polynomial or an Ideal")
        if inner.ring != self.ring:
            raise RingError("ideals live in different rings")
        return all(self.contains_poly(g) for g in inner.generators)

    def equals(self, other: "Ideal") -> bool:
        if other.ring != self.ring:
            raise RingError("ideals live in different rings")
        return [g.terms for g in self.groebner_basis()] == [g.terms for g in other.groebner_basis()]

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_one()

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise RingError("ideals live in different rings")
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise RingError("ideals live in different rings")
        return Ideal(self.ring, [f * g for f in self.generators for g in other.generators])

    def power_generators(self, t: int):
        """Generators of the t-th ordinary power, deduplicated."""
        if t == 0:
            return (self.ring.one(),)
        known = max(k for k in self._power_cache if k <= t)
        gens = self._power_cache[known]
        while known < t:
            seen = set()
            nxt = []
            for f in gens:
                for g in self.generators:
                    h = f * g
                    hkey = frozenset(h.terms.items())
                    if hkey not in seen and not h.is_zero():
                        seen.add(hkey)
                        nxt.append(h)
            known += 1
            gens = tuple(nxt)
            self._power_cache[known] = gens
        return self._power_cache[t]

    def power(self, t: int) -> "Ideal":
        if t < 0:
            raise RingError("ideal power must be nonnegative")
        return Ideal(self.ring, self.power_generators(t))

    def bracket(self, q: int) -> "Ideal":
        """Frobenius bracket power: the ideal generated by g^q, q a power of p."""
        e = _power_of_p(q, self.ring.p)
        if e is None:
            raise RingError(f"{q} is not a power of the characteristic {self.ring.p}")
        if q not in self._bracket_cache:
            self._bracket_cache[q] = Ideal(self.ring, [g.frobenius(e) for g in self.generators])
        return self._bracket_cache[q]

    # -- colon and intersection ------------------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise RingError("ideals live in different rings")
        lifted_a = [g.terms for g in self.generators] + [g.terms for g in self.ring.relations]
        lifted_b = [g.terms for g in other.generators] + [g.terms for g in self.ring.relations]
        gens = _eliminate_intersection(lifted_a, lifted_b, self.ring.p)
        return Ideal(self.ring, [Polynomial(self.ring, t) for t in gens])

    def colon_poly(self, f: Polynomial) -> "Ideal":
        if f.is_zero():
            raise RingError("colon by the zero element")
        lifted = [g.terms for g in self.generators] + [g.terms for g in self.ring.relations]
        inter = _eliminate_intersection(lifted, [f.terms], self.ring.p)
        p = self.ring.p
        out = []
        for terms in inter:
            quotient, remainder = _divide_with_quotient(terms, f.terms, p, grevlex_key)
            if remainder:
                raise RingError("intersection element not divisible; internal error")
            out.append(Polynomial(self.ring, quotient))
        return Ideal(self.ring, out)

    def colon(self, other) -> "Ideal":
        """(self : other) in R, through lifted ideals; the result includes L."""
        if isinstance(other, Polynomial):
            return self.colon_poly(other)
        if other.ring != self.ring:
            raise RingError("ideals live in different rings")
        gens = [g for g in other.generators]
        if not gens:
            raise RingError("colon by the zero ideal")
        result = self.colon_poly(gens[0])
        for g in gens[1:]:
            result = result.intersect(self.colon_poly(g))
        return result

    # -- Artinian structure ------------------------------------------------------

    def _pure_power_leads(self):
        """Per variable i, the e with x_i^e a lead of the basis, else None.

        A reduced basis has at most one such lead per variable; every entry is
        set exactly when the staircase is cofinite.
        """
        self.groebner_basis()
        exponents = [None] * self.ring.nvars
        for lead, _ in self._gb_leads:
            support = [i for i, e in enumerate(lead) if e]
            if len(support) == 1:
                exponents[support[0]] = lead[support[0]]
        return exponents

    def is_m_primary(self) -> bool:
        """True iff every variable has some pure power lying in (generators + L)."""
        if self._m_primary is None:
            self._m_primary = self._check_m_primary()
        return self._m_primary

    def _check_m_primary(self) -> bool:
        if self.is_unit():
            return False
        if None in self._pure_power_leads():
            return False
        size = None
        for i, v in enumerate(self.ring.variables):
            # monomial basis element shortcut: a pure power is literally in the basis
            if any(g[i] > 0 and sum(g) == g[i] for g in self._monomial_elements):
                continue
            if size is None:
                size = len(self.standard_monomials())
            # pure-power membership is monotone, and x^N lands in the ideal for
            # some N iff it does for N = staircase size, so square past that
            nf = self.normal_form(self.ring.variable(v))
            k = 1
            while k < size and not nf.is_zero():
                nf = self.normal_form(nf * nf)
                k *= 2
            if not nf.is_zero():
                return False
        return True

    def nilpotency_degree(self) -> int:
        """Minimal N with m^N contained in (generators + L); requires m-primary."""
        if self._nilpotency is None:
            if not self.is_m_primary():
                raise RingError("nilpotency degree requires an m-primary ideal")
            # m-primary, so some m^N lies inside and the loop ends
            N = 1
            while not all(
                self.contains_poly(self.ring.monomial(m))
                for m in monomials_of_degree(self.ring.nvars, N)
            ):
                N += 1
            self._nilpotency = N
        return self._nilpotency

    def standard_monomials(self):
        """Monomials outside the lead-term staircase, ascending; finite iff cofinite."""
        caps = self._pure_power_leads()
        if None in caps:
            raise RingError("staircase is not cofinite; infinitely many standard monomials")
        leads = [lead for lead, _ in self._gb_leads]
        out = []
        for m in itertools.product(*(range(c) for c in caps)):
            if not any(monomial_divides(lead, m) for lead in leads):
                out.append(m)
        out.sort(key=grevlex_key)
        return out

    def standard_monomials_of_degree(self, degree: int):
        """Monomials of this degree outside the lead-term staircase, in monomials_of_degree order."""
        self.groebner_basis()
        leads = [lead for lead, _ in self._gb_leads]
        return [
            m
            for m in monomials_of_degree(self.ring.nvars, degree)
            if not any(monomial_divides(lead, m) for lead in leads)
        ]

    def socle(self) -> SocleBasis:
        """Basis of (self : m)/self via multiplication-map kernels on the staircase."""
        if not self.is_m_primary():
            raise RingError("socle requires an m-primary ideal")
        std = self.standard_monomials()
        xs = [(v, self.ring.variable(v)) for v in self.ring.variables]
        # the row of m holds the normal forms of x_v * m, keyed by (v, monomial)
        rows = [
            {(v, n): c for v, x in xs for n, c in self.normal_form(self.ring.monomial(m) * x).terms.items()}
            for m in std
        ]
        kernel = linalg.kernel(rows, self.ring.p)
        reps = [Polynomial(self.ring, {m: c for m, c in zip(std, x) if c}) for x in kernel]
        reps.sort(key=lambda f: grevlex_key(_leading(f.terms, grevlex_key)))
        return SocleBasis(tuple(reps))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


def _power_of_p(q: int, p: int):
    if q < 1:
        return None
    e = 0
    while q > 1:
        if q % p:
            return None
        q //= p
        e += 1
    return e


# -- elimination -----------------------------------------------------------


def _eliminate_intersection(terms_a, terms_b, p):
    """Generators of (a ∩ b) by tag-variable elimination.

    Adjoins a tag variable t ordered above everything, computes a basis of
    t*a + (1-t)*b, and keeps the elements not involving t.
    """
    tagged = []
    for terms in terms_a:
        tagged.append({(1,) + m: c for m, c in terms.items()})
    for terms in terms_b:
        tf: dict = {}
        for m, c in terms.items():
            tf[(0,) + m] = c
            tf[(1,) + m] = (-c) % p
        tagged.append(tf)
    basis = buchberger(tagged, p, key=elimination_key)
    out = []
    for _, g in basis:
        if all(m[0] == 0 for m in g):
            out.append({m[1:]: c for m, c in g.items()})
    return out


# -- ring-level operations ---------------------------------------------------


def zero_ideal(ring: QuotientRing) -> Ideal:
    handle = getattr(ring, "_zero_ideal_handle", None)
    if handle is None:
        handle = Ideal(ring, [])
        ring._zero_ideal_handle = handle
    return handle


def ring_dimension(ring: QuotientRing) -> int:
    """Krull dimension of S/L via independent variable sets modulo lead terms."""
    handle = zero_ideal(ring)
    handle.groebner_basis()
    lead_supports = [frozenset(i for i, e in enumerate(lead) if e > 0) for lead, _ in handle._gb_leads]
    if frozenset() in lead_supports:
        raise RingError("relations generate the unit ideal")
    n = ring.nvars
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            u = set(subset)
            if not any(supp <= u for supp in lead_supports):
                return size
    return 0
