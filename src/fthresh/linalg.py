"""Linear algebra over GF(p) on term-dict rows.

Callers hand rows as dicts {key: entry} with any hashable key (a monomial, a
(variable, monomial) pair, a column number). `echelon` reduces them over an
ordered column list; `rank`, `solve` and `kernel` reduce the transposed
system, whose RREF depends only on its row space, so neither key order nor
absent keys can change their results. Only `_dense` builds a dense matrix,
as the input of `rref`, which reads its nonzeros once and eliminates sparsely:
Macaulay matrices hold one to three nonzeros per row in thousands of columns,
so the cost follows the nonzeros and their fill-in, not rows x columns. `rref`
still takes a dense matrix because the benchmark's tracer sizes a call by
`args[0].size` and `tests/oracles.rref_mod_p` checks it (ROADMAP item 1).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

# Most cells (rows x columns) of a matrix; callers count them and refuse a larger
# one before building it. The largest the tests and benchmark build has 1,597,596.
_MAX_MATRIX_CELLS = 2**27


def rref(matrix: np.ndarray, p: int):
    """Reduced row echelon form mod p, as its pivot rows.

    Returns (rows, pivot_columns): rows[k] is the dict {column: entry} of the
    k-th pivot row, with its pivot entry 1 and no zero entries, and every
    other pivot column is cleared from it. Rows come in pivot order. The
    input is a dense matrix (see the module docstring); the zero rows of the
    echelon form are not returned.

    Each row is reduced, as a dict, against the pivot rows found so far; what
    is left is made monic at its leftmost column, which becomes a pivot and is
    cleared from the older pivot rows through a column-to-rows index. While
    reducing, pivot rows keep only their tails (the pivot entry 1 is implied),
    and a tail holds no pivot column, so one pass over a row's pivot columns
    reduces it.
    """
    a = np.asarray(matrix, dtype=np.int64)
    row_of, col_of = np.nonzero(a)
    values = a[row_of, col_of] % p
    keep = values != 0
    rows = defaultdict(dict)
    for i, j, v in zip(row_of[keep].tolist(), col_of[keep].tolist(), values[keep].tolist()):
        rows[i][j] = v
    tails = {}  # pivot column -> {column: entry} right of it, outside every pivot column
    users = defaultdict(set)  # column -> pivot columns whose tails hold it
    for row in rows.values():
        for c in [c for c in row if c in tails]:
            v = row.pop(c)
            for j, w in tails[c].items():
                x = (row.get(j, 0) - v * w) % p
                if x:
                    row[j] = x
                else:
                    del row[j]
        if not row:
            continue
        c = min(row)
        inv = pow(row.pop(c), p - 2, p)
        tail = {j: v * inv % p for j, v in row.items()}
        for pc in users.pop(c, ()):
            older = tails[pc]
            v = older.pop(c)
            for j, w in tail.items():
                x = (older.get(j, 0) - v * w) % p
                if x:
                    older[j] = x
                    users[j].add(pc)
                else:
                    del older[j]
                    users[j].discard(pc)
        for j in tail:
            users[j].add(c)
        tails[c] = tail
    pivots = sorted(tails)
    return [{c: 1, **tails[c]} for c in pivots], pivots


def _dense(rows, columns) -> np.ndarray:
    """int64 matrix of term dicts over the ordered columns.

    A row can be dropped once read: only its nonzeros are kept, as triplets,
    until the matrix is allocated and filled in one assignment.
    """
    index = {key: j for j, key in enumerate(columns)}
    at, to, values = [], [], []
    height = 0
    for row in rows:
        for key, v in row.items():
            at.append(height)
            to.append(index[key])
            values.append(v)
        height += 1
    mat = np.zeros((height, len(index)), dtype=np.int64)
    mat[at, to] = values
    return mat


def echelon(rows, columns, p: int):
    """(pivot key, {key: entry}) for each RREF row of rows over the column sequence, in pivot order."""
    reduced, pivots = rref(_dense(rows, columns), p)
    return [(columns[c], {columns[j]: v for j, v in row.items()}) for row, c in zip(reduced, pivots)]


def _transposed_rref(rows, p: int):
    """rref of the matrix whose column i is rows[i], one matrix row per key."""
    by_key = defaultdict(dict)
    for i, row in enumerate(rows):
        for key, v in row.items():
            by_key[key][i] = v
    return rref(_dense(by_key.values(), range(len(rows))), p)


def rank(rows, p: int) -> int:
    return len(_transposed_rref(rows, p)[1])


def solve(rows, target, p: int):
    """The RREF particular solution x (free coordinates 0) of sum x[i]*rows[i] == target, or None."""
    n = len(rows)
    reduced, pivots = _transposed_rref([*rows, target], p)
    x = [0] * n
    for row, c in zip(reduced, pivots):
        if c == n:
            return None
        x[c] = row.get(n, 0)
    return x


def kernel(rows, p: int):
    """Basis of {x : sum x[i]*rows[i] == 0} over GF(p), one list per free coordinate."""
    reduced, pivots = _transposed_rref(rows, p)
    basis = []
    for fc in sorted(set(range(len(rows))) - set(pivots)):
        x = [0] * len(rows)
        x[fc] = 1
        for row, pc in zip(reduced, pivots):
            x[pc] = -row.get(fc, 0) % p
        basis.append(x)
    return basis
