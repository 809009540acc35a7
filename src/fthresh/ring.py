"""Exact multivariate polynomial arithmetic over prime fields.

Everything downstream (Groebner bases, nu-scans, tangent cones) runs on the
types in this module: GF(p) coefficients in [0, p), monomials under a fixed
degree-reverse-lexicographic order, immutable polynomials with canonical
term dictionaries, and quotient-ring presentations R = S/L regarded locally
at the ideal generated by the variables.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from operator import add, le, or_, sub

MAX_EXPONENT = 1 << 20


class RingError(ValueError):
    """Raised on ring mismatches and invalid ring data."""


class ParseError(ValueError):
    """Syntax or lookup error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def grevlex_key(exponents):
    """Sort key realizing degree-reverse-lexicographic order (larger key = larger monomial)."""
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


def elimination_key(exponents):
    """Block order making the first variable larger than any monomial without it.

    Used for intersection/colon computations on an adjoined tag variable.
    """
    return (exponents[0], grevlex_key(exponents[1:]))


def monomial_mul(a, b):
    return tuple(map(add, a, b))


def monomial_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(map(le, a, b))


def monomial_div(b, a):
    return tuple(map(sub, b, a))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def monomials_of_degree(nvars: int, degree: int):
    """Yield all exponent tuples of the given total degree."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


class DivisorIndex:
    """Which of a fixed list of leads divide a monomial, as a bitmask: bit k stands for leads[k].

    For each variable i, `values[i]` holds the sorted distinct exponents of
    the leads at i, and `masks[i][k]` the leads whose exponent at i is among
    the first k of them; so the leads with exponent at most e at i are
    `masks[i][bisect_right(values[i], e)]`, and a table holds one entry per
    distinct exponent plus one, however large the exponents are. A `live`
    mask restricts every query to some of the leads.
    """

    __slots__ = ("nvars", "everything", "values", "masks", "last_exponent", "ended", "fresh")

    def __init__(self, leads, nvars: int):
        self.nvars = nvars
        self.everything = (1 << len(leads)) - 1
        self.values = [sorted({g[i] for g in leads}) for i in range(nvars)]
        self.masks = []
        for i, values in enumerate(self.values):
            below = [0] * (len(values) + 1)
            for k, g in enumerate(leads):
                below[bisect_right(values, g[i])] |= 1 << k
            self.masks.append(list(accumulate(below, or_)))
        # with `last` and `prev` the places of a lead's last two nonzero exponents (-1 where it has fewer), its
        # support from variable i on is empty when last < i (`ended[i]`) and is x_last when prev < i <= last;
        # `fresh[i]` holds the leads for which the latter starts at i
        supports = [[-1, -1] + [i for i, e in enumerate(g) if e] for g in leads]
        self.last_exponent = [(s[-1], g[s[-1]]) for g, s in zip(leads, supports)]
        self.ended = [sum(1 << k for k, s in enumerate(supports) if s[-1] < i) for i in range(nvars)]
        self.fresh = [sum(1 << k for k, s in enumerate(supports) if s[-2] == i - 1 < s[-1]) for i in range(nvars)]

    def divisors(self, n, live: int) -> int:
        """The live leads that divide the monomial n."""
        for e, values, masks in zip(n, self.values, self.masks):
            live &= masks[bisect_right(values, e)]
        return live

    def _capped(self, caps, capping: int):
        """caps[j] lowered to the exponent at j of each lead in the mask whose support, from here on, is x_j."""
        caps = list(caps)
        while capping:
            j, e = self.last_exponent[(capping & -capping).bit_length() - 1]
            capping &= capping - 1
            if e < caps[j]:
                caps[j] = e
        return caps

    def outside(self, degree: int, live: int):
        """Yield the exponent tuples of this degree that no live lead divides, in monomials_of_degree order.

        The walk fixes one variable at a time and keeps live only the leads
        that fit under the exponents fixed so far. A live lead with nothing
        left in the remaining variables divides every completion, so the node
        is never entered. A live lead with one variable j left caps x_j below
        its own exponent (`caps[j]`, degree + 1 when no lead caps x_j). The cap
        on the current variable bounds its exponent from above, and the degree
        the later variables can hold (their caps minus one, summed) bounds it
        from below. A branch outside those bounds is never entered: none of
        its completions escapes the leads. Nodes wait on one explicit stack,
        their children pushed smallest exponent first, so that the largest is
        taken next.
        """
        last = self.nvars - 1
        if live & self.ended[0]:
            return
        if last == 0:
            if not self.divisors((degree,), live):
                yield (degree,)
            return
        stack = [(0, degree, live, self._capped([degree + 1] * (last + 1), live & self.fresh[0]), ())]
        while stack:
            i, left, live, caps, head = stack.pop()
            top = min(left, caps[i] - 1)
            low = max(left - sum(caps[i + 1 :]) + last - i, 0)
            values, masks = self.values[i], self.masks[i]
            if i < last - 1:
                cut, fresh = self.ended[i + 1], self.fresh[i + 1]
                for first in range(low, top + 1):
                    child = live & masks[bisect_right(values, first)]
                    if not child & cut:
                        child_caps = self._capped(caps, child & fresh) if child & fresh else caps
                        stack.append((i + 1, left - first, child, child_caps, head + (first,)))
                continue
            # the children are leaves: x_last takes what is left, so one more mask settles each
            last_values, last_masks = self.values[last], self.masks[last]
            for first in range(top, low - 1, -1):
                if not live & masks[bisect_right(values, first)] & last_masks[bisect_right(last_values, left - first)]:
                    yield head + (first, left - first)


def monomials_up_to_degree(nvars: int, degree: int):
    for d in range(degree + 1):
        yield from monomials_of_degree(nvars, d)


class Polynomial:
    """Immutable multivariate polynomial over GF(p).

    ``terms`` maps exponent tuples to nonzero coefficients in [1, p); the
    empty dict is the zero polynomial. Arithmetic never mutates operands.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: "QuotientRing", terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        n = self.ring.nvars
        return self.terms == {(0,) * n: 1}

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def min_degree(self) -> int:
        return min((sum(m) for m in self.terms), default=-1)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.ring.nvars, 0)

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial(self.ring, {m: c for m, c in self.terms.items() if sum(m) == d})

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring.same_ambient(other.ring):
            return
        raise RingError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.ring.p
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {m: (c * v) % p for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise RingError("negative exponents are not supported")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def frobenius(self, e: int) -> "Polynomial":
        """f^(p^e), computed termwise (Frobenius is additive in characteristic p)."""
        if e < 0:
            raise RingError("Frobenius iterate must be nonnegative")
        q = self.ring.p ** e
        if any(x * q > MAX_EXPONENT for m in self.terms for x in m):
            raise RingError(f"exponent overflow beyond {MAX_EXPONENT}")
        return Polynomial(self.ring, {tuple(x * q for x in m): c for m, c in self.terms.items()})

    # -- canonical form -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring.same_ambient(other.ring)
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.p, self.ring.variables, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over GF({self.ring.p})[{','.join(self.ring.variables)}]>"


class QuotientRing:
    """Presentation R = S/L with S = GF(p)[variables], viewed locally at (variables).

    ``relations`` generate L and must be non-units (zero constant term); the
    zero ideal (no relations) presents the polynomial ring itself. Predicates
    exported downstream only depend on bounded m-adic truncations of R.
    """

    def __init__(self, p: int, variables, relations=()):
        if not isinstance(p, int) or not (2 <= p <= 1 << 16):
            raise RingError(f"characteristic must be an integer in [2, 2^16], got {p!r}")
        if not _is_prime(p):
            raise RingError(f"characteristic {p} is not prime")
        self.p = p
        names = tuple(variables)
        if len(names) == 0:
            raise RingError("at least one variable is required")
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        for name in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise RingError(f"invalid variable name {name!r}")
        self.variables = names
        self.nvars = len(names)
        self._var_index = {name: i for i, name in enumerate(names)}
        rels = []
        for r in relations:
            f = self.parse(r) if isinstance(r, str) else transfer(r, self)
            if f.is_zero():
                continue
            if f.constant_term() != 0:
                raise RingError(f"relation {f} is a unit locally at the maximal ideal")
            if f not in rels:
                rels.append(f)
        self.relations = tuple(rels)
        # everything computed once per ring (powers of m, the dimension, ...), read through `cached`
        self._cache: dict = {}

    # -- element constructors -------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        c %= self.p
        return Polynomial(self, {(0,) * self.nvars: c} if c else {})

    def variable(self, name: str) -> Polynomial:
        i = self._var_index[name]
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {m: 1})

    def gens(self):
        return [self.variable(v) for v in self.variables]

    def monomial(self, exponents, coeff: int = 1) -> Polynomial:
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise RingError("exponent tuple has wrong length")
        coeff %= self.p
        return Polynomial(self, {exponents: coeff} if coeff else {})

    def from_terms(self, terms: dict) -> Polynomial:
        p = self.p
        out = {}
        for m, c in terms.items():
            c %= p
            if c:
                out[tuple(m)] = c
        return Polynomial(self, out)

    def parse(self, source: str) -> Polynomial:
        return parse_poly(source, self)

    # -- structure -------------------------------------------------------

    def same_ambient(self, other: "QuotientRing") -> bool:
        return self.p == other.p and self.variables == other.variables

    def __eq__(self, other):
        return (
            isinstance(other, QuotientRing)
            and self.same_ambient(other)
            and {frozenset(f.terms.items()) for f in self.relations}
            == {frozenset(f.terms.items()) for f in other.relations}
        )

    def __hash__(self):
        return hash((self.p, self.variables, frozenset(frozenset(f.terms.items()) for f in self.relations)))

    def maximal_ideal(self):
        """The ideal generated by all variables, as an ideal handle."""
        from .ideals import Ideal

        return Ideal(self, self.gens())

    def cached(self, key, build):
        """The value this ring stores under `key`, made by `build()` on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def power_of_maximal_ideal(self, k: int):
        """m^k with its Groebner cache shared across calls."""
        from .ideals import Ideal

        def build():
            if k == 0:
                return Ideal(self, [self.one()])
            return Ideal(self, [self.monomial(m) for m in monomials_of_degree(self.nvars, k)])

        return self.cached(("power", k), build)

    @property
    def dimension(self) -> int:
        """Krull dimension of the local ring at the origin, read on its tangent cone."""
        from .graded import gr_presentation
        from .ideals import ring_dimension

        return self.cached("dimension", lambda: ring_dimension(gr_presentation(self)))

    def __repr__(self):
        if self.relations:
            rels = ", ".join(str(f) for f in self.relations)
            return f"GF({self.p})[{','.join(self.variables)}]/({rels})"
        return f"GF({self.p})[{','.join(self.variables)}]"


def transfer(poly: Polynomial, ring: QuotientRing) -> Polynomial:
    """Reinterpret a polynomial in another presentation with the same ambient."""
    if poly.ring is ring:
        return poly
    if poly.ring.p != ring.p or poly.ring.variables != ring.variables:
        raise RingError("cannot transfer between different ambient rings")
    return Polynomial(ring, dict(poly.terms))


# -- expression parser ----------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := INT | VAR | '(' expr ')' | factor '^' INT

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))")


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if not m or m.end() == m.start():
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {source[bad_at]!r}", bad_at)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "var":
            tokens.append(("var", m.group("var"), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, ring: QuotientRing, length: int):
        self.tokens = tokens
        self.ring = ring
        self.i = 0
        self.length = length

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("end", None, self.length)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Polynomial:
        kind, val, pos = self.next()
        if kind == "int":
            value = self.ring.constant(val)
        elif kind == "var":
            if val not in self.ring.variables:
                raise ParseError(f"unknown variable {val!r}", pos)
            value = self.ring.variable(val)
        elif kind == "op" and val == "(":
            value = self.expr()
            kind, val, pos = self.next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
        else:
            raise ParseError(f"unexpected token {val!r}" if kind != "end" else "unexpected end of input", pos)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind, exp, pos = self.next()
                if kind != "int":
                    raise ParseError("exponent must be an integer literal", pos)
                if exp > MAX_EXPONENT:
                    raise ParseError(f"exponent {exp} exceeds the bound {MAX_EXPONENT}", pos)
                value = value**exp
            else:
                return value


def parse_poly(source: str, ring: QuotientRing) -> Polynomial:
    """Parse a polynomial expression; coefficients reduce mod p, result canonical."""
    tokens = _tokenize(source)
    parser = _Parser(tokens, ring, len(source))
    value = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    return value
