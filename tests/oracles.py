"""Independent brute-force oracles for the test suite.

Everything here is deliberately self-contained: its own GF(p) elimination
and its own enumeration loops, sharing no code path with the library's
Groebner engine. Oracles certify membership through bounded Macaulay spans
and nu-values for monomial ideals through plain divisibility counting.
numpy is imported inside the functions that use it, so importing this
module, as the benchmark's set-up does, does not load it.
"""

from __future__ import annotations

import itertools


def rref_mod_p(matrix, p):
    """Row reduce mod p; returns (rref matrix, pivot column list)."""
    import numpy as np

    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        k = r + hits[0]
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def monomials_upto(nvars, degree):
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def poly_to_vector(terms, columns_index, p):
    import numpy as np

    v = np.zeros(len(columns_index), dtype=np.int64)
    for m, c in terms.items():
        v[columns_index[m]] = c % p
    return v


def macaulay_member(f_terms, generator_terms, nvars, p, degree_bound):
    """Span membership: f in the space of products m*g with deg(m*g) <= bound.

    A True answer certifies ideal membership outright; False means "not
    visible at this bound" and is only meaningful when the bound is generous
    for the fixture at hand.
    """
    import numpy as np

    columns = monomials_upto(nvars, degree_bound)
    index = {m: j for j, m in enumerate(columns)}
    rows = []
    for g in generator_terms:
        gdeg = max(sum(m) for m in g)
        for mult in monomials_upto(nvars, degree_bound - gdeg):
            row = {}
            for gm, c in g.items():
                key = tuple(a + b for a, b in zip(gm, mult))
                row[key] = (row.get(key, 0) + c) % p
            rows.append(poly_to_vector(row, index, p))
    if not rows:
        return all(c % p == 0 for c in f_terms.values())
    mat = np.array(rows, dtype=np.int64)
    reduced, pivots = rref_mod_p(mat, p)
    v = poly_to_vector(f_terms, index, p) % p
    for row, c in zip(reduced, pivots):
        if v[c]:
            v = (v - v[c] * row) % p
    return not v.any()


def monomial_ideal_member(exps, generator_exps):
    return any(all(g <= m for g, m in zip(gen, exps)) for gen in generator_exps)


def nu_monomial_oracle(power_gen_exps, bracket_gen_exps, nvars, t_cap):
    """nu for monomial data by divisibility enumeration.

    power_gen_exps generate the ideal whose powers are scanned; bracket
    generators form a monomial ideal. Returns max t <= t_cap such that some
    product of t power-generators escapes, or -1 if none escapes even at 0.
    """
    best = -1
    level = {(0,) * nvars}
    for t in range(t_cap + 1):
        if any(not monomial_ideal_member(m, bracket_gen_exps) for m in level):
            best = t
        level = {
            tuple(a + b for a, b in zip(m, g)) for m in level for g in power_gen_exps
        }
    return best


def hilbert_monomial_oracle(generator_exps, nvars, degree_bound):
    """Graded dimensions of S/(monomial ideal) by direct enumeration."""
    values = []
    for d in range(degree_bound + 1):
        count = 0
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for i in combo:
                exps[i] += 1
            if not monomial_ideal_member(tuple(exps), generator_exps):
                count += 1
        values.append(count)
    return values


def _cut_products(relation_terms, nvars, p, d, index):
    """Vectors over index of the products x^m * g with deg x^m + ord(g) <= d, cut above degree d."""
    vectors = []
    for g in relation_terms:
        order = min(sum(m) for m in g)
        for mult in monomials_upto(nvars, d - order):
            row = {}
            for gm, c in g.items():
                key = tuple(a + b for a, b in zip(gm, mult))
                if sum(key) <= d:
                    row[key] = c % p
            vectors.append(poly_to_vector(row, index, p))
    return vectors


def hilbert_oracle(relation_terms, nvars, p, D):
    """h_d = dim (m^d + L)/(m^(d+1) + L), d <= D, from dense spans of L in S/m^(d+1).

    The span of L in S/m^(d+1) is that of the products x^m * g with
    deg x^m + ord(g) <= d, cut above degree d. Its rank r_d grows by
    dim in(L)_d from r_(d-1), and h_d is the number of degree-d monomials
    minus that growth.
    """
    import numpy as np

    values = []
    previous = 0
    for d in range(D + 1):
        columns = monomials_upto(nvars, d)
        index = {m: j for j, m in enumerate(columns)}
        rows = _cut_products(relation_terms, nvars, p, d, index)
        rank = len(rref_mod_p(np.array(rows, dtype=np.int64), p)[1]) if rows else 0
        degree_d = sum(1 for m in columns if sum(m) == d)
        values.append(degree_d - (rank - previous))
        previous = rank
    return values


def order_oracle(f_terms, relation_terms, nvars, p, cutoff):
    """(ord f, in f as {monomial: coefficient}) in S/L, or (None, None) when f is in m^cutoff + L.

    For each d < cutoff, one dense matrix has a row per monomial of degree
    <= d and, as columns in this order: the products x^m * g with
    deg x^m + ord(g) <= d cut above degree d, the degree-d monomials in
    descending exponent order, and f cut above degree d. Its pivot columns
    are the greedy choice of independent columns, so the pivot monomials are
    the earliest ones independent modulo L + m^(d+1), and f's column holds
    its coefficients on them. The first d with a nonzero coefficient is the
    order, and that combination is the initial form.
    """
    import numpy as np

    for d in range(cutoff):
        coordinates = monomials_upto(nvars, d)
        index = {m: j for j, m in enumerate(coordinates)}
        columns = _cut_products(relation_terms, nvars, p, d, index)
        degree_d = sorted((m for m in coordinates if sum(m) == d), reverse=True)
        columns += [poly_to_vector({m: 1}, index, p) for m in degree_d]
        columns.append(poly_to_vector({m: c for m, c in f_terms.items() if sum(m) <= d}, index, p))
        reduced, pivots = rref_mod_p(np.array(columns, dtype=np.int64).T, p)
        f_column = len(columns) - 1
        assert f_column not in pivots, "f is not in m^d + L: a lower degree was skipped"
        offset = f_column - len(degree_d)
        form = {
            degree_d[c - offset]: int(reduced[k, f_column])
            for k, c in enumerate(pivots)
            if c >= offset and reduced[k, f_column]
        }
        if form:
            return d, form
    return None, None


def simplest_rational_oracle(lo, hi, max_denominator):
    """Brute force: scan denominators upward, numerators upward, first hit wins."""
    from fractions import Fraction

    lo, hi = Fraction(lo), Fraction(hi)
    for den in range(1, max_denominator + 1):
        num = -(-lo.numerator * den // lo.denominator)  # ceil(lo * den)
        while Fraction(num, den) <= hi:
            f = Fraction(num, den)
            if f.denominator == den:
                return f
            num += 1
    return None
