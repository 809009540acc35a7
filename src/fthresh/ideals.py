"""Groebner bases and ideal arithmetic over quotient-ring presentations.

Every predicate about an ideal of R = S/L is evaluated through its lift
(generators + L) in the ambient polynomial ring S. The engine is Buchberger
with the normal pair-selection strategy and the Gebauer-Moeller update, which
drops the S-pairs that the coprime-lead and chain criteria show to reduce to
zero; reduced bases are unique for the fixed grevlex order, so handles compare
ideals by comparing bases.

Basis elements are monic (lead, terms) pairs, their terms in descending
order: the leading monomial travels with its element from `buchberger` to the
`Ideal` handle (`_gb_leads`), which reduces and tests staircases from the
stored leads. One basis computation keeps one order-key table (`_OrderKeys`):
each monomial it meets gets its sort key once, and the reductions, the pair
heap and the final sort all read it. A reduction pops its leading monomials
from a heap on that table, so its remainder comes out in descending order,
lead first. Each S-pair is ranked once, when it is created, and waits on a
heap until it is the smallest pending pair. Each lead also carries a support
bitmask (`_support`), so a reduction skips a reducer whose lead uses a
variable that the monomial at hand lacks without comparing exponents. The
pair update sets the free pairs (coprime leads, or two monomials) aside
first, takes lcms only for the other pairs, and runs the chain filter over
their lcm classes, then against the leads of the free partners; bases of
monomial-heavy inputs such as m^k + L thus cost no lcm per monomial pair.
The final interreduction reduces tails only: a one-term element passes as it
is, and no lead divides a monomial below it.

A normal form modulo a reduced basis is unique and linear, so a handle
reduces each monomial once: `Ideal.normal_form(f)` is the sum of c * NF(x^m)
over the terms of f, with NF(x^m) memoized per handle, keyed by exponent
tuple. The basis never changes once computed, so the memo is never
invalidated; it holds only monomials met while reducing. The reducer list
is built with the basis: the monomial elements first, then the others, each
tail stored negated. Its leads get one `ring.DivisorIndex`, built the first
time a monomial is reduced or a staircase walked, never for a handle that
only needs its basis. A monomial's divisors among the leads are then one
bitmask, a few integer ANDs; the lowest set bit settles it, and a monomial
element, with no tail, maps it at once to one shared empty result. The same
index walks the staircase, with every lead live, or with only the monomial
elements live for the candidates of a sweep. A reduced basis gives unique
normal forms, so which divisor reduces a monomial changes no result.
A variable that no non-monomial element uses, in its lead or its tail, is
free: x^(b+f), f its free part, reduces as x^f * NF(x^b) less the terms a
monomial element divides, so the memo holds one reduction chain per bound
part b however many free exponents come with it.
Buchberger reduces against a reducer list that grows as it goes, so a memo
cannot serve it: its reductions are `_normal_form_terms`, on the heap.
"""

from __future__ import annotations

import heapq
import itertools
from operator import mul, neg

from . import linalg
from .ring import (
    DivisorIndex,
    Polynomial,
    QuotientRing,
    RingError,
    elimination_key,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    transfer,
)


# -- term-dict level machinery --------------------------------------------


def _leading(terms, key):
    return max(terms, key=key)


_BITS = tuple(1 << i for i in range(64))


def _support(m):
    """Bitmask of the variables in monomial m: bit i is set iff m[i] > 0.

    Only the first 64 variables get a bit. A mask only ever rules a divisor
    out, so a missing bit weakens the filter without changing any result.
    """
    return sum(itertools.compress(_BITS, m))


def _grevlex_descending(m):
    """A sort key ascending where `grevlex_key` descends: the negated degree, then the exponents reversed."""
    return (-sum(m),) + m[::-1]


def _elimination_descending(m):
    """A sort key ascending where `elimination_key` descends: the negated tag exponent, then as grevlex."""
    return (-m[0], m[0] - sum(m)) + m[:0:-1]


_DESCENDING = {grevlex_key: _grevlex_descending, elimination_key: _elimination_descending}


class _OrderKeys(dict):
    """The order-key table of one basis computation: monomial -> descending sort key, computed on first use.

    A smaller value is a larger monomial, so a min-heap pops the leading
    monomial first; the values are flat int tuples, so negated entrywise they
    ascend with the order.
    """

    __slots__ = ("descending",)

    def __init__(self, key):
        super().__init__()
        self.descending = _DESCENDING[key]

    def __missing__(self, m):
        value = self[m] = self.descending(m)
        return value


def _normal_form_terms(terms, reducers, p, ranks, masks):
    """Full normal form of a term dict, or of its items, against (lead, terms) reducer pairs, descending.

    Reducers must be monic. masks[i] is `_support` of the i-th lead: a lead
    with a variable that m lacks cannot divide m, so it is skipped before
    `monomial_divides`. ranks is the `_OrderKeys` table of the computation.
    Each monomial is pushed on a heap once, when it first enters the work
    dict; a term that cancels stays there with coefficient zero and is
    skipped when popped. A reduction only adds monomials below the popped
    one, so the heap pops in strictly descending order and the remainder
    lists the leading term first. Returns a new dict; the input is not mutated.
    """
    work = dict(terms)
    heap = [(ranks[m], m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        outside = ~_support(m)
        for mask, (lead, g_terms) in zip(masks, reducers):
            if not mask & outside and monomial_divides(lead, m):
                shift = monomial_div(m, lead)
                for gm, gc in g_terms.items():
                    if gm == lead:
                        continue
                    mm = monomial_mul(gm, shift)
                    v = work.get(mm)
                    if v is None:
                        work[mm] = -c * gc % p
                        heapq.heappush(heap, (ranks[mm], mm))
                    else:
                        work[mm] = (v - c * gc) % p
                break
        else:
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


def _monic(terms, p):
    """(lead, terms) of a nonzero normal form, whose first term leads, scaled to a monic leading term."""
    lead = next(iter(terms))
    lc = terms[lead]
    if lc == 1:
        return lead, terms
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
    """Reduced Groebner basis, as monic (lead, terms) pairs sorted by ascending lead, terms descending.

    Each element's leading monomial and its support mask (`_support`) are
    found once, when it enters the basis, and the basis list doubles as the
    reducer list of every normal form. Pair selection is the normal strategy:
    a pair (i, j) is ranked once, when it is created, by
    (deg lcm, key(lcm), i, j) and pushed on a heap, so pairs are taken by
    minimal lcm degree, ties by the lcm monomial, then by index; key(lcm) is
    read from the order-key table, negated. `key` is `grevlex_key` or
    `elimination_key`.

    Pairs are kept by the Gebauer-Moeller update (Gebauer-Moeller 1988) as
    each element h enters:
    - a waiting pair (i, j) is dropped when lead(h) divides its lcm and that
      lcm differs from lcm(i, h) and from lcm(j, h);
    - of the new pairs (i, h), only those whose lcm no other new lcm properly
      divides are kept, one pair per lcm; an lcm is dropped whole when one of
      its pairs is free: it has coprime leads or joins two monomials, so its
      S-polynomial reduces to zero.
    A waiting pair dropped by the first rule stays on the heap and is skipped
    when popped.

    The second rule sets free pairs aside first, with no lcm for two
    monomials (a monomial h scans only the elements with more than one term);
    coprime means disjoint masks and lcm equal to the product, since masks
    cover 64 variables. Then (a) the degree-sorted minimal filter runs over
    the lcms of the other pairs, and (b) a surviving lcm tau is dropped when
    the lead of a free partner w divides it: as lead(h) | tau, that is
    lcm(w, h) | tau, a proper divisor or a free pair of tau's own class.
    """
    basis: list = []
    masks: list = []
    ranks = _OrderKeys(key)
    polys: list = []  # indices of the basis elements with more than one term
    monomials: list = []  # (lead, support mask) of the one-term basis elements
    pairs: list = []
    live: dict = {}  # (i, j) -> (lcm, its support mask), for the queued pairs not dropped

    def enter(terms):
        lead, monic = _monic(terms, p)
        mask = _support(lead)
        for (i, j), (tau, tau_mask) in list(live.items()):
            if (
                not mask & ~tau_mask
                and monomial_divides(lead, tau)
                and tau != monomial_lcm(basis[i][0], lead)
                and tau != monomial_lcm(basis[j][0], lead)
            ):
                del live[i, j]
        is_monomial = len(monic) == 1
        classes: dict = {}  # lcm of a pair that is not free -> [first i, its support mask]
        free = monomials if is_monomial else ()  # (lead, mask) of the monomial partners, whose pairs are free
        coprime: list = []  # (lead, mask) of the partners with coprime leads
        for i in polys if is_monomial else range(len(basis)):
            lead_i = basis[i][0]
            tau = monomial_lcm(lead_i, lead)
            if not masks[i] & mask and tau == monomial_mul(lead_i, lead):
                coprime.append((lead_i, masks[i]))
            elif tau not in classes:
                classes[tau] = [i, masks[i] | mask]
        k = len(basis)
        minimal: list = []
        for tau in sorted(classes, key=sum):
            i, tau_mask = classes[tau]
            if any(not w_mask & ~tau_mask and monomial_divides(w, tau) for w, w_mask in minimal):
                continue
            minimal.append((tau, tau_mask))
            # lead(h) | tau, so lead(w) | tau iff lcm(w, h) | tau: a proper divisor, or a free pair of this lcm
            if not any(
                not w_mask & ~tau_mask and monomial_divides(w, tau) for w, w_mask in itertools.chain(free, coprime)
            ):
                live[i, k] = (tau, tau_mask)
                heapq.heappush(pairs, (sum(tau), tuple(map(neg, ranks[tau])), i, k))
        basis.append((lead, monic))
        masks.append(mask)
        if is_monomial:
            monomials.append((lead, mask))
        else:
            polys.append(k)

    for terms in generator_terms:
        if terms:
            nf = _normal_form_terms(terms, basis, p, ranks, masks)
            if nf:
                enter(nf)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        s = _s_poly(basis[i], basis[j], p)
        nf = s and _normal_form_terms(s, basis, p, ranks, masks)
        if nf:
            enter(nf)
    return _reduce_basis(basis, p, ranks)


def _reduce_basis(basis, p, ranks):
    """Interreduce (lead, terms) pairs to the unique reduced basis, ascending by lead.

    After the minimality pass no kept lead divides another, so only tails
    change: a one-term element passes as it is, and each other tail is reduced
    against the whole kept list, since a lead divides no monomial below it.
    The element is rebuilt lead first, then its reduced tail, descending.
    """
    kept: list = []
    masks: list = []  # `_support` of each kept lead
    for lead, terms in sorted(basis, key=lambda g: ranks[g[0]], reverse=True):
        mask = _support(lead)
        if not any(not h_mask & ~mask and monomial_divides(h, lead) for (h, _), h_mask in zip(kept, masks)):
            kept.append((lead, terms))
            masks.append(mask)
    return [
        (lead, terms)
        if len(terms) == 1
        else (lead, {lead: 1, **_normal_form_terms(itertools.islice(terms.items(), 1, None), kept, p, ranks, masks)})
        for lead, terms in kept
    ]


# -- ideal handles ----------------------------------------------------------


_ZERO: dict = {}  # shared normal form of every monomial that a monomial basis element divides


def _add_scaled(out, terms, c, p):
    """out += c * terms over GF(p), in place, dropping the terms that cancel."""
    for t, d in terms.items():
        v = (out.get(t, 0) + c * d) % p
        if v:
            out[t] = v
        else:
            del out[t]


class Ideal:
    """Generator list plus lazily cached reduced basis of the lifted ideal."""

    def __init__(self, ring: QuotientRing, generators):
        self.ring = ring
        seen = set()
        gens = []
        for g in generators:
            f = ring.parse(g) if isinstance(g, str) else transfer(g, ring)
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
        self._reducers = None
        self._bound = None
        self._index = None
        self._basis_ideal = None
        self._nf_memo: dict = {}
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
            # (lead, pre-negated tail) of each element, the monomial elements first
            p = self.ring.p
            self._reducers = [(lead, ()) for lead in self._monomial_elements] + [
                (lead, tuple((m, -c % p) for m, c in g.items() if m != lead))
                for lead, g in self._gb_leads
                if len(g) > 1
            ]
            # the variables some non-monomial element uses, as a 0/1 tuple, kept only when some other variable is free
            used = {i for _, g in self._gb_leads if len(g) > 1 for m in g for i, e in enumerate(m) if e}
            if 0 < len(used) < self.ring.nvars:
                self._bound = tuple(int(i in used) for i in range(self.ring.nvars))
        return self._gb

    def basis_ideal(self) -> "Ideal":
        """The same ideal of R on the reduced basis as its generators, one handle memoized on this one."""
        if self._basis_ideal is None:
            self._basis_ideal = Ideal(self.ring, self.groebner_basis())
        return self._basis_ideal

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Normal form of f modulo the reduced basis: the sum of c * NF(x^m) over the terms of f.

        NF(x^m) is memoized on this handle (`_monomial_nf`), so a monomial met
        again, in this call or a later one, costs a dict lookup.
        """
        if not f.ring.same_ambient(self.ring):
            raise RingError("element from a different ambient ring")
        p = self.ring.p
        out: dict = {}
        for m, c in f.terms.items():
            _add_scaled(out, self._monomial_nf(m), c, p)
        return Polynomial(self.ring, out)

    def _monomial_nf(self, m):
        """Memoized normal form of x^m, as a term dict that callers must not mutate.

        An explicit stack replaces recursion, since reduction chains can be
        thousands of steps long. A frame is expanded once into the tail of its
        first dividing reducer, the lowest bit of its divisor mask (shifted,
        already negated), and combined once all of that tail's monomials,
        each smaller than it, are memoized. A reducer with no tail is a
        monomial element, and its multiples reduce to zero.

        A binomial reducer x^lead -> c * x^g with deg g < deg lead jumps whole
        powers: when lead also divides n - lead, n = k * lead + r with k
        maximal, and the frame's one tail term is c^k * x^(k*g + r). The
        normal form modulo a reduced basis is unique, so every memoized value
        is the one the step-by-step chain would store; only the intermediate
        monomials are skipped. A homogeneous binomial steps: its chain stays in
        the degree of n, where the candidates of the maximal ideal's walk
        share those intermediates.

        When some variables are free (`_bound` is set: no non-monomial element
        uses them) and m = b + f has a free part f, the result is zero if a
        monomial element divides x^m, and otherwise x^f * NF(x^b) less the
        terms that a monomial element divides. That is exact: the reduction
        of x^b never leaves the bound variables, times x^f it is a reduction
        of x^m, and a lead of a non-monomial element divides u + f only when
        it divides the standard u. So only NF(x^b) is reduced, and the chain
        below it is shared by every free part.
        """
        memo = self._nf_memo
        if m in memo:
            return memo[m]
        index = self._divisor_index()
        divisors, everything = index.divisors, index.everything
        if self._bound is not None:
            b = tuple(map(mul, m, self._bound))
            if b != m:
                monomial = (1 << len(self._monomial_elements)) - 1
                if divisors(m, monomial):
                    memo[m] = _ZERO
                    return _ZERO
                f = monomial_div(m, b)
                shifted = ((monomial_mul(u, f), c) for u, c in self._monomial_nf(b).items())
                out = memo[m] = {v: c for v, c in shifted if not divisors(v, monomial)}
                return out
        p = self.ring.p
        reducers = self._reducers
        stack = [(m, None)]
        while stack:
            n, tail = stack.pop()
            if n in memo:
                continue
            if tail is None:
                found = divisors(n, everything)
                if not found:
                    memo[n] = {n: 1}
                    continue
                lead, tail = reducers[(found & -found).bit_length() - 1]
                if not tail:
                    memo[n] = _ZERO
                    continue
                shift = monomial_div(n, lead)
                if len(tail) == 1 and monomial_divides(lead, shift) and sum(tail[0][0]) < sum(lead):
                    ((g, c),) = tail
                    k = min(e // d for e, d in zip(n, lead) if d)
                    tail = [(tuple(e + k * (y - d) for e, d, y in zip(n, lead, g)), pow(c, k, p))]
                else:
                    tail = [(monomial_mul(gm, shift), c) for gm, c in tail]
                stack.append((n, tail))
                stack.extend((u, None) for u, _ in tail if u not in memo)
                continue
            out = {}
            for u, c in tail:
                _add_scaled(out, memo[u], c, p)
            memo[n] = out
        return memo[m]

    def _divisor_index(self) -> DivisorIndex:
        """The divisor index over the reducer leads, built on first use: bit k stands for `_reducers[k]`."""
        self.groebner_basis()
        if self._index is None:
            self._index = DivisorIndex([lead for lead, _ in self._reducers], self.ring.nvars)
        return self._index

    def contains_monomial(self, m) -> bool:
        """Whether x^m, given by its exponent tuple, lies in the ideal."""
        return not self._monomial_nf(m)

    def multiplier(self, g: Polynomial):
        """Multiplication by g in normal-form space: a function from a term dict f to NF(f * g).

        NF is linear, so NF(f * g) is the sum of c * NF(x^m * g) over the terms
        c * x^m of f. The returned function keeps its own table
        {m: NF(x^m * g)}, each entry summed once from the handle's memoized
        NF(x^(m+n)) over the terms d * x^n of g, and reused by every later
        call; the table lives as long as the function, not on this handle.
        Inputs are not mutated, and the results are fresh dicts.
        """
        if not g.ring.same_ambient(self.ring):
            raise RingError("element from a different ambient ring")
        p = self.ring.p
        g_terms = g.terms
        table: dict = {}

        def times(terms):
            out: dict = {}
            for m, c in terms.items():
                row = table.get(m)
                if row is None:
                    row = {}
                    for n, d in g_terms.items():
                        _add_scaled(row, self._monomial_nf(monomial_mul(m, n)), d, p)
                    table[m] = row
                _add_scaled(out, row, c, p)
            return out

        return times

    def contains_poly(self, f: Polynomial) -> bool:
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
        """Generators of the t-th ordinary power: the products of t generators, in order, less redundant ones.

        Level t + 1 multiplies each element f of level t by each generator g in
        order, skipping a monomial g that an earlier generator divides and a
        product that repeats an earlier one (a monomial up to its coefficient).
        Every dropped product is a multiple of an earlier product of the full
        list: f * g is one of f * g' when g' divides g, and the products of a
        dropped f are multiples of those of the earlier element it is a
        multiple of. So the list generates the same ideal, and its first
        element outside any ideal, coefficient included, is that of the full
        list: when a multiple of an earlier element lies outside, so does that
        element, so the first element outside is never dropped, and the kept
        elements keep their order.
        """
        if t == 0:
            return (self.ring.one(),)
        known = max(k for k in self._power_cache if k <= t)
        gens = self._power_cache[known]
        factors: list = []
        leads: list = []  # exponents of the monomial factors
        for g in self.generators:
            if len(g.terms) == 1:
                (m,) = g.terms
                if any(monomial_divides(d, m) for d in leads):
                    continue
                leads.append(m)
            factors.append(g)
        while known < t:
            seen = set()
            nxt = []
            for f in gens:
                for g in factors:
                    h = f * g
                    hkey = next(iter(h.terms)) if len(h.terms) == 1 else frozenset(h.terms.items())
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
        """Frobenius bracket power: the ideal generated by g^q, q a power of p; q = 1 gives this handle."""
        e = _power_of_p(q, self.ring.p)
        if e is None:
            raise RingError(f"{q} is not a power of the characteristic {self.ring.p}")
        if e == 0:
            return self
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
            while not all(self.contains_monomial(m) for m in self.candidate_monomials(N)):
                N += 1
            self._nilpotency = N
        return self._nilpotency

    def standard_monomials(self):
        """Monomials outside the lead-term staircase, ascending; finite iff cofinite."""
        caps = self._pure_power_leads()
        if None in caps:
            raise RingError("staircase is not cofinite; infinitely many standard monomials")
        # exponents stay below the caps, so degrees stay at most sum(caps) - nvars
        degrees = range(sum(caps) - self.ring.nvars + 1)
        return sorted((m for d in degrees for m in self.standard_monomials_of_degree(d)), key=grevlex_key)

    def standard_monomials_of_degree(self, degree: int):
        """Monomials of this degree outside the lead-term staircase, in monomials_of_degree order."""
        index = self._divisor_index()
        return list(index.outside(degree, index.everything))

    def candidate_monomials(self, degree: int):
        """Monomials of this degree that no monomial basis element divides, in monomials_of_degree order.

        Every other monomial of this degree lies in the ideal, so a sweep that
        tests only these skips that part of the ideal without reducing it.
        """
        index = self._divisor_index()  # the monomial elements come first among the reducers
        return index.outside(degree, (1 << len(self._monomial_elements)) - 1)

    def socle(self) -> tuple:
        """k-basis of (self : m)/self as normal forms, via multiplication-map kernels on the staircase."""
        if not self.is_m_primary():
            raise RingError("socle requires an m-primary ideal")
        std = self.standard_monomials()
        n = self.ring.nvars
        units = [tuple(int(i == v) for i in range(n)) for v in range(n)]
        # kernel reduces one row per key (v, monomial) of the normal forms of x_v * s; a standard
        # x_v * s is its own normal form, so the staircase alone bounds the keys from below
        standard = set(std)
        nkeys = sum(monomial_mul(s, u) in standard for s in std for u in units)
        linalg.check_cells(nkeys, len(std), "a socle matrix")
        rows = [
            {(v, t): c for v, u in enumerate(units) for t, c in self._monomial_nf(monomial_mul(s, u)).items()}
            for s in std
        ]
        kernel = linalg.kernel(rows, self.ring.p)
        reps = [Polynomial(self.ring, {m: c for m, c in zip(std, x) if c}) for x in kernel]
        reps.sort(key=lambda f: grevlex_key(_leading(f.terms, grevlex_key)))
        return tuple(reps)

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


def eliminate(tagged, p):
    """The elements free of the tag, with the tag dropped, of the reduced basis of tagged term dicts.

    The tag is the first exponent. Under `elimination_key` every monomial
    with the tag is larger than every monomial without it, so an element
    whose lead is free of the tag is free of it in every term; those elements
    generate the ideal's intersection with the ring without the tag.
    """
    basis = buchberger(tagged, p, key=elimination_key)
    return [{m[1:]: c for m, c in g.items()} for lead, g in basis if not lead[0]]


def _eliminate_intersection(terms_a, terms_b, p):
    """Generators of (a ∩ b) by tag-variable elimination: the tag-free part of t*a + (1-t)*b."""
    tagged = [{(1,) + m: c for m, c in terms.items()} for terms in terms_a]
    for terms in terms_b:
        tf: dict = {}
        for m, c in terms.items():
            tf[(0,) + m] = c
            tf[(1,) + m] = (-c) % p
        tagged.append(tf)
    return eliminate(tagged, p)


# -- ring-level operations ---------------------------------------------------


def zero_ideal(ring: QuotientRing) -> Ideal:
    return ring.cached("zero ideal", lambda: Ideal(ring, []))


def ring_dimension(ring: QuotientRing) -> int:
    """Krull dimension of S/L via independent variable sets modulo lead terms."""
    leads = [_leading(g.terms, grevlex_key) for g in zero_ideal(ring).groebner_basis()]
    lead_supports = [frozenset(i for i, e in enumerate(lead) if e > 0) for lead in leads]
    if frozenset() in lead_supports:
        raise RingError("relations generate the unit ideal")
    n = ring.nvars
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            u = set(subset)
            if not any(supp <= u for supp in lead_supports):
                return size
    return 0
