"""GF(p) linear algebra against the independent dense elimination in oracles.

`rref` eliminates sparsely; `oracles.rref_mod_p` is plain dense Gaussian
elimination. The RREF of a matrix is unique, so both must return the same
matrix and pivots, and `rank`, `kernel`, `solve` and `in_row_space` are
checked through the oracle's ranks.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import session_path
from fthresh import QuotientRing, linalg
from fthresh.graded import _column_layout, _product_rows
from oracles import rref_mod_p

PRIMES = [2, 3, 65521]


def oracle_rank(matrix, p):
    return len(rref_mod_p(matrix, p)[1])


def check_against_oracle(m, p, rng):
    rows, cols = m.shape
    r, pivots = linalg.rref(m, p)
    r0, pivots0 = rref_mod_p(m, p)
    assert pivots == pivots0
    assert r.shape == r0.shape and r.dtype == r0.dtype
    assert np.array_equal(r, r0)
    rank = len(pivots0)
    assert linalg.rank(m, p) == rank

    k = linalg.kernel(m, p)
    assert k.shape == (cols - rank, cols)
    assert not ((m @ k.T) % p).any()
    assert oracle_rank(k, p) == cols - rank

    consistent_target = (rng.integers(0, p, size=rows) @ m) % p
    for target in (consistent_target, rng.integers(-p, 2 * p, size=cols)):
        x = linalg.solve(m, target, p)
        solvable = oracle_rank(np.vstack([m, target]), p) == rank
        if solvable:
            assert x is not None and x.shape == (rows,)
            assert not ((x @ m - target) % p).any()
        else:
            assert x is None

    basis = r[:rank]
    for v in (consistent_target, rng.integers(-p, 2 * p, size=cols)):
        expected = oracle_rank(np.vstack([m, v]), p) == rank
        assert linalg.in_row_space(v, basis, pivots, p) == expected


@st.composite
def dense_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    shape = draw(st.tuples(st.integers(0, 7), st.integers(1, 7)))
    m = draw(arrays(np.int64, shape, elements=st.integers(-3 * p, 3 * p)))
    return m, p


@st.composite
def macaulay_like_matrices(draw):
    """At most 3 nonzeros per row, and singleton rows repeated with other scalars."""
    p = draw(st.sampled_from(PRIMES))
    cols = draw(st.integers(1, 10))
    entry = st.integers(-2 * p, 2 * p).filter(lambda v: v % p)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        support = draw(st.lists(st.integers(0, cols - 1), max_size=3, unique=True))
        row = [0] * cols
        for j in support:
            row[j] = draw(entry)
        rows.append(row)
        if len(support) == 1:
            for _ in range(draw(st.integers(0, 3))):
                rows.append([draw(entry) if v else 0 for v in row])
    return np.array(rows, dtype=np.int64).reshape(len(rows), cols), p


@given(dense_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_dense_matrices_match_the_oracle(case, seed):
    m, p = case
    check_against_oracle(m, p, np.random.default_rng(seed))


@given(macaulay_like_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_macaulay_like_matrices_match_the_oracle(case, seed):
    m, p = case
    check_against_oracle(m, p, np.random.default_rng(seed))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize(
    "shape, fill",
    [((0, 5), 0), ((4, 6), 0), ((1, 7), 1), ((1, 7), 0), ((6, 1), 1), ((6, 1), 0)],
    ids=["0xn", "all-zero", "1xn", "1xn-zero", "nx1", "nx1-zero"],
)
def test_edge_shapes(p, shape, fill):
    rng = np.random.default_rng(p)
    m = (rng.integers(-3 * p, 3 * p, size=shape) * fill).astype(np.int64)
    check_against_oracle(m, p, rng)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_sparse_and_dense(seed):
    rng = np.random.default_rng(seed)
    p = PRIMES[seed % 3]
    rows, cols = 40, 30
    sparse = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        support = rng.choice(cols, size=rng.integers(0, 4), replace=False)
        lift = p * rng.integers(-2, 3, size=support.size)
        sparse[i, support] = rng.integers(1, p, size=support.size) + lift
    singles = sparse[(sparse != 0).sum(axis=1) == 1]
    sparse = np.vstack([sparse, singles, 2 * singles, singles])
    dense = rng.integers(-3 * p, 3 * p, size=(rows // 2, cols // 2))
    for m in (sparse, dense):
        check_against_oracle(m, p, rng)


def test_determinantal_macaulay_matrix():
    """A real product-row matrix of the deformed determinantal fixture."""
    with open(session_path("ex-determinantal.json")) as fh:
        data = json.load(fh)
    ring = QuotientRing(data["p"], data["variables"], data["relations"])
    _, col_index = _column_layout(ring.nvars, 7)
    _, m = _product_rows(list(ring.relations), ring.nvars, 7, col_index)
    assert m.shape[1] == len(col_index) and (m != 0).sum() <= 3 * m.shape[0]
    r, pivots = linalg.rref(m, ring.p)
    r0, pivots0 = rref_mod_p(m, ring.p)
    assert pivots == pivots0 and np.array_equal(r, r0)
