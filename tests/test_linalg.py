"""GF(p) linear algebra against the independent dense elimination in oracles.

`rref` takes a `linalg.Matrix` of column-numbered rows, eliminates sparsely
and returns its pivot rows as dicts; `oracles.rref_mod_p` is plain dense
Gaussian elimination. Each test draws a dense matrix and hands `rref` its
nonzero entries (`as_matrix`). The RREF of a matrix is unique, so the pivots
must agree and each pivot row must equal the oracle's row of the same rank,
read as a dict of its nonzero entries. `echelon` must give `rref`'s rows
under the column keys, and `rank`, `kernel` and `solve`, which take term-dict
rows, are checked through the oracle's ranks. Renaming the keys or reordering
them inside each row leaves those three unchanged. The benchmark tracer's
`_cells` sizes what the four hand `rref` as the rows x columns of the dense
matrix it stands for, and `rref` refuses that size past the cell bound
whichever of the four hands it over.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import session_path
from fthresh import QuotientRing, RingError, linalg
from fthresh.linalg import _renumber
from fthresh.ring import grevlex_key, monomial_mul, monomials_up_to_degree
from oracles import rref_mod_p

PRIMES = [2, 3, 65521]


def oracle_rank(matrix, p):
    return len(rref_mod_p(matrix, p)[1])


def as_dicts(dense_rows):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in dense_rows]


def as_matrix(m):
    """The dense matrix m as rref's input: its nonzero entries, row by row, and its width."""
    return linalg.Matrix(as_dicts(m), m.shape[1])


def check_rows(m, p):
    """rref's rows against the oracle, and its contract on each row; returns the rank."""
    r, pivots = linalg.rref(as_matrix(m), p)
    r0, pivots0 = rref_mod_p(m, p)
    assert pivots == pivots0
    assert r == as_dicts(r0[: len(pivots0)])
    for row, c in zip(r, pivots):
        assert row[c] == 1
        assert all(0 < v < p for v in row.values())
        assert not set(row) & (set(pivots) - {c})
    return len(pivots0)


def check_against_oracle(m, p, rng):
    rows, cols = m.shape
    rank = check_rows(m, p)
    keys = [("col", j) for j in range(cols)]
    keyed = [{keys[j]: v for j, v in row.items()} for row in as_dicts(m)]
    assert linalg.echelon(keyed, keys, p) == [
        (keys[c], {keys[j]: v for j, v in row.items()}) for row, c in zip(*linalg.rref(as_matrix(m), p))
    ]
    assert linalg.rank(as_dicts(m), p) == rank

    # the columns of m as rows: kernel gives the x with m @ x = 0
    k = np.array(linalg.kernel(as_dicts(m.T), p), dtype=np.int64).reshape(-1, cols)
    assert k.shape == (cols - rank, cols)
    assert not ((m @ k.T) % p).any()
    assert oracle_rank(k, p) == cols - rank

    consistent_target = (rng.integers(0, p, size=rows) @ m) % p
    for target in (consistent_target, rng.integers(-p, 2 * p, size=cols)):
        x = linalg.solve(as_dicts(m), as_dicts([target])[0], p)
        solvable = oracle_rank(np.vstack([m, target]), p) == rank
        if solvable:
            assert x is not None and len(x) == rows
            assert not ((np.array(x, dtype=np.int64) @ m - target) % p).any()
        else:
            assert x is None


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
    """A real product-row matrix of the deformed determinantal fixture.

    The rows are the products x^m * g of total degree <= 7, g a relation.
    """
    with open(session_path("ex-determinantal.json")) as fh:
        data = json.load(fh)
    ring = QuotientRing(data["p"], data["variables"], data["relations"])
    columns = sorted(monomials_up_to_degree(ring.nvars, 7), key=grevlex_key)
    rows = [
        {monomial_mul(gm, x): c for gm, c in g.terms.items()}
        for g in ring.relations
        for x in monomials_up_to_degree(ring.nvars, 7 - g.degree())
    ]
    index = {mono: j for j, mono in enumerate(columns)}
    m = np.zeros((len(rows), len(columns)), dtype=np.int64)
    for i, row in enumerate(rows):
        for mono, v in row.items():
            m[i, index[mono]] = v
    assert m.shape == (931, 1716)
    assert (m != 0).sum() <= 3 * m.shape[0]
    numbered = _renumber(iter(rows), columns)
    assert (len(numbered.rows), numbered.width) == m.shape
    assert numbered.rows == as_dicts(m)
    check_rows(m, ring.p)


@st.composite
def keyed_rows(draw):
    """Term-dict rows over a few keys, a renaming of the keys, and a target."""
    p = draw(st.sampled_from(PRIMES))
    nkeys = draw(st.integers(1, 6))
    entry = st.integers(-2 * p, 2 * p)
    row = st.dictionaries(st.integers(0, nkeys - 1), entry, max_size=nkeys)
    rows = draw(st.lists(row, max_size=7))
    target = draw(row)
    names = draw(st.permutations([("key", j) for j in range(nkeys)]))
    return p, rows, target, names


@given(keyed_rows(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_results_ignore_key_names_and_order(case, random):
    """rank, solve and kernel see only the row space, not how keys are named or ordered."""
    p, rows, target, names = case

    def renamed(row):
        items = [(names[key], v) for key, v in row.items()]
        random.shuffle(items)
        return dict(items)

    moved = [renamed(row) for row in rows]
    assert linalg.rank(moved, p) == linalg.rank(rows, p)
    assert linalg.solve(moved, renamed(target), p) == linalg.solve(rows, target, p)
    assert linalg.kernel(moved, p) == linalg.kernel(rows, p)


@pytest.mark.parametrize("p", PRIMES)
def test_explicit_zeros_and_multiples_of_p_are_dropped(p):
    rng = np.random.default_rng(p)
    m = rng.integers(-3 * p, 3 * p, size=(8, 6)) * rng.integers(0, 2, size=(8, 6)) * p
    m[::2] += rng.integers(-3 * p, 3 * p, size=(4, 6))
    every_cell = linalg.Matrix([{j: int(v) for j, v in enumerate(row)} for row in m], 6)
    assert linalg.rref(every_cell, p) == linalg.rref(as_matrix(m), p)
    check_rows(m, p)


def load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sizes_every_rref_call_as_rows_times_columns(monkeypatch):
    """The benchmark's rref_cells_* count what each entry point hands rref as the dense rows x columns."""
    cells = load_tracer()._cells
    seen = []
    real = linalg.rref

    def recording(matrix, p):
        seen.append((cells((matrix, p), None), len(matrix.rows), matrix.width))
        return real(matrix, p)

    monkeypatch.setattr(linalg, "rref", recording)
    p = 3
    rows = [{"x": 1, "y": 2}, {"y": 1}, {}, {"x": 2, "y": 1}]
    keys = ["x", "y", "z"]
    linalg.echelon(rows, keys, p)
    linalg.rank(rows, p)
    linalg.solve(rows, {"z": 1}, p)
    linalg.kernel(rows, p)
    # echelon: one row per input row over the three keys; the other three: one row per key
    # (those the rows hold, and z through solve's target), one column per input row
    assert seen == [(12.0, 4, 3), (8.0, 2, 4), (15.0, 3, 5), (8.0, 2, 4)]


_BOUND_ROWS = [{"x": 1, "y": 2}, {"y": 1}, {}, {"x": 2, "y": 1}]


@pytest.mark.parametrize(
    "call,shape",
    [
        (lambda: linalg.echelon(_BOUND_ROWS, ["x", "y", "z"], 3), (4, 3)),
        (lambda: linalg.rank(_BOUND_ROWS, 3), (2, 4)),
        (lambda: linalg.solve(_BOUND_ROWS, {"z": 1}, 3), (3, 5)),
        (lambda: linalg.kernel(_BOUND_ROWS, 3), (2, 4)),
    ],
    ids=["echelon", "rank", "solve", "kernel"],
)
def test_every_entry_point_is_held_to_the_cell_bound(call, shape, monkeypatch):
    # the shapes are those the tracer test above sees: rref checks what it is handed
    nrows, ncols = shape
    cells = nrows * ncols
    monkeypatch.setattr(linalg, "_MAX_MATRIX_CELLS", cells)
    call()
    monkeypatch.setattr(linalg, "_MAX_MATRIX_CELLS", cells - 1)
    with pytest.raises(RingError, match=f"of {nrows} x {ncols} cells exceeds the bound of {cells - 1} cells"):
        call()

