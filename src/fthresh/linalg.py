"""Linear algebra over GF(p) on numpy integer matrices.

Entries are canonical representatives in [0, p). `rref` takes and returns
dense matrices, but eliminates sparsely: the Macaulay matrices of the
tangent-cone code hold one to three nonzeros per row (1.1 to 2.0 on
average) in thousands of columns, so it reads the nonzeros once, reduces
rows held as dicts and writes the echelon form back at the end. Its cost
follows the nonzeros and their fill-in, not rows x columns.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def rref(matrix: np.ndarray, p: int):
    """Reduced row echelon form mod p.

    Returns (R, pivot_columns). R has the same shape with zero rows at the
    bottom; pivot entries are 1 and their columns are cleared.

    Each row is reduced, as a dict, against the pivot rows found so far; what
    is left is made monic at its leftmost column, which becomes a pivot and is
    cleared from the older pivot rows through a column-to-rows index. Pivot
    rows keep only their tails (the pivot entry 1 is implied), and a tail
    holds no pivot column, so one pass over a row's pivot columns reduces it.
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
    out = np.zeros(a.shape, dtype=np.int64)
    for r, c in enumerate(pivots):
        out[r, c] = 1
        for j, w in tails[c].items():
            out[r, j] = w
    return out, pivots


def rank(matrix: np.ndarray, p: int) -> int:
    _, pivots = rref(matrix, p)
    return len(pivots)


def terms_matrix(rows, col_index) -> np.ndarray:
    """Coefficient matrix of term dicts: row i holds rows[i], monomial m in column col_index[m]."""
    mat = np.zeros((len(rows), len(col_index)), dtype=np.int64)
    for i, row in enumerate(rows):
        for m, c in row.items():
            mat[i, col_index[m]] = c
    return mat


def in_row_space(vector: np.ndarray, basis_rref: np.ndarray, pivots, p: int) -> bool:
    """Membership of a vector in a row space given its RREF basis."""
    v = np.array(vector, dtype=np.int64) % p
    for row, c in zip(basis_rref, pivots):
        if v[c]:
            v = (v - v[c] * row) % p
    return not v.any()


def solve(matrix: np.ndarray, target: np.ndarray, p: int):
    """One solution x of x @ matrix = target over GF(p), or None.

    The returned solution is the RREF particular solution (free coordinates
    zero), so it is deterministic.
    """
    rows = matrix.shape[0]
    aug = np.concatenate([matrix.T, np.reshape(target, (-1, 1))], axis=1)
    r, pivots = rref(aug, p)
    x = np.zeros(rows, dtype=np.int64)
    for row, c in zip(r, pivots):
        if c == rows:
            return None
        x[c] = row[rows]
    return x


def kernel(matrix: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : matrix @ x = 0} as rows, over GF(p)."""
    cols = matrix.shape[1]
    r, pivots = rref(matrix, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row, pc in zip(r, pivots):
            basis[i, pc] = (-row[fc]) % p
    return basis
