"""Dense linear algebra over GF(p) on numpy integer matrices.

Entries are canonical representatives in [0, p). Row reductions are plain
Gaussian elimination mod p; sizes here are Macaulay-matrix scale (a few
thousand columns at most), so this is comfortably fast.
"""

from __future__ import annotations

import numpy as np


def rref(matrix: np.ndarray, p: int):
    """Reduced row echelon form mod p.

    Returns (R, pivot_columns). R has the same shape with zero rows at the
    bottom; pivot entries are 1 and their columns are cleared.
    """
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + nz[0]
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.nonzero(a[:, c])[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


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
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    aug = np.concatenate([a.T, (np.array(target, dtype=np.int64) % p).reshape(-1, 1)], axis=1)
    r, pivots = rref(aug, p)
    x = np.zeros(rows, dtype=np.int64)
    for row, c in zip(r, pivots):
        if c == rows:
            return None
        x[c] = row[rows]
    return x


def kernel(matrix: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : matrix @ x = 0} as rows, over GF(p)."""
    a = np.array(matrix, dtype=np.int64) % p
    _, cols = a.shape
    r, pivots = rref(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row, pc in zip(r, pivots):
            basis[i, pc] = (-row[fc]) % p
    return basis
