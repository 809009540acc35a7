"""Linear algebra over GF(p) on term-dict rows.

Callers hand rows as dicts {key: entry} with any hashable key (a monomial, a
(variable, monomial) pair, a column number). `echelon` reduces them over an
ordered column list; `rank`, `solve` and `kernel` reduce the transposed
system, whose RREF depends only on its row space, so neither key order nor
absent keys can change their results. Each hands `rref` a `Matrix`, its rows
keyed by column number, and `rref` eliminates sparsely: Macaulay matrices hold
one to three nonzeros per row in thousands of columns, so the cost follows the
nonzeros and their fill-in, not rows x columns. No dense matrix is built.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .ring import RingError

# Most cells (rows x columns) of a matrix `rref` reduces; a caller that can count a matrix
# refuses a larger one through `check_cells` before building it. The largest the tests and
# benchmark build has 1,597,596.
_MAX_MATRIX_CELLS = 2**27


def check_cells(nrows: int, ncols: int, what: str, error=RingError) -> None:
    """Raise `error` when an nrows x ncols matrix, named `what`, has more than _MAX_MATRIX_CELLS cells."""
    if nrows * ncols > _MAX_MATRIX_CELLS:
        raise error(f"{what} of {nrows} x {ncols} cells exceeds the bound of {_MAX_MATRIX_CELLS} cells")


class Matrix(NamedTuple):
    """A matrix as its rows {column number: entry}, `width` columns wide; absent entries are 0."""

    rows: list
    width: int

    @property
    def size(self) -> int:
        """Cells of the dense matrix this stands for: rows x columns."""
        return len(self.rows) * self.width


def rref(matrix: Matrix, p: int):
    """Reduced row echelon form mod p, as its pivot rows.

    Returns (rows, pivot_columns): rows[k] is the dict {column: entry} of the
    k-th pivot row, with its pivot entry 1 and no zero entries, and every
    other pivot column is cleared from it. Rows come in pivot order. Entries
    are reduced mod p, zeros are dropped, and each row is read in column
    order; the zero rows of the echelon form are not returned.

    Each row is reduced, as a dict, against the pivot rows found so far; what
    is left is made monic at its leftmost column, which becomes a pivot and is
    cleared from the older pivot rows through a column-to-rows index. While
    reducing, pivot rows keep only their tails (the pivot entry 1 is implied),
    and a tail holds no pivot column, so one pass over a row's pivot columns
    reduces it. A matrix past the cell bound is refused before any row is read.
    """
    check_cells(len(matrix.rows), matrix.width, "a matrix")
    tails = {}  # pivot column -> {column: entry} right of it, outside every pivot column
    users = defaultdict(set)  # column -> pivot columns whose tails hold it
    for entries in matrix.rows:
        row = {j: v % p for j, v in sorted(entries.items()) if v % p}
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


def _renumber(rows, columns) -> Matrix:
    """The term-dict rows as a Matrix, each key replaced by its position in the ordered columns."""
    index = {key: j for j, key in enumerate(columns)}
    return Matrix([{index[key]: v for key, v in row.items()} for row in rows], len(index))


def echelon(rows, columns, p: int):
    """(pivot key, {key: entry}) for each RREF row of rows over the column sequence, in pivot order."""
    reduced, pivots = rref(_renumber(rows, columns), p)
    return [(columns[c], {columns[j]: v for j, v in row.items()}) for row, c in zip(reduced, pivots)]


def _transposed_rref(rows, p: int):
    """rref of the matrix whose column i is rows[i], one matrix row per key."""
    by_key = defaultdict(dict)
    for i, row in enumerate(rows):
        for key, v in row.items():
            by_key[key][i] = v
    return rref(Matrix(list(by_key.values()), len(rows)), p)


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
