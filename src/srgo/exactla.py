"""Exact rational linear algebra that skips zero entries.

Matrices are numpy object arrays holding ``fractions.Fraction`` entries;
the loops work on their rows as Python lists and touch only nonzeros:
``rref`` eliminates over the pivot row's nonzero columns and divides only
by a pivot that is not 1, ``matmul`` and ``matvec`` multiply through lists
of each row's nonzero entries. Everything here is deterministic and exact;
float counterparts live with the callers.
"""

from fractions import Fraction

import numpy as np


def fmat(rows):
    """Build a Fraction matrix from a nested sequence."""
    a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            a[i, j] = Fraction(v)
    return a


def fzeros(nrows, ncols):
    a = np.empty((nrows, ncols), dtype=object)
    a[:] = Fraction(0)
    return a.copy()


def feye(n):
    a = fzeros(n, n)
    for i in range(n):
        a[i, i] = Fraction(1)
    return a


def to_float(a):
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def _from_rows(rows, nrows, ncols):
    out = np.empty((nrows, ncols), dtype=object)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def row_nonzeros(a):
    """Per row of ``a``, the list of its (column, value) nonzero entries."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in a.tolist()]


def rref(a):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    nrows, ncols = a.shape
    rows = a.tolist()
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = next((i for i in range(row, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        prow = rows[row]
        # Rows from ``row`` on are zero left of ``col``.
        nz = [j for j in range(col, ncols) if prow[j]]
        lead = prow[col]
        if lead != 1:
            for j in nz:
                prow[j] = prow[j] / lead
        for i, other in enumerate(rows):
            f = other[col]
            if f and i != row:
                for j in nz:
                    other[j] = other[j] - f * prow[j]
        pivots.append(col)
        row += 1
    return _from_rows(rows, nrows, ncols), pivots


def rank(a):
    if a.size == 0:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Columns span the exact right null space of ``a``."""
    nrows, ncols = a.shape
    if ncols == 0:
        return fzeros(0, 0)
    r, pivots = rref(a)
    free = [j for j in range(ncols) if j not in pivots]
    basis = fzeros(ncols, len(free))
    for bi, j in enumerate(free):
        basis[j, bi] = Fraction(1)
        for ri, pc in enumerate(pivots):
            basis[pc, bi] = -r[ri, j]
    return basis


def solve(a, b):
    """Solve a x = b exactly; returns None if inconsistent.

    ``b`` may be a vector or matrix. Free variables are set to zero.
    """
    b2 = b if b.ndim == 2 else b.reshape(-1, 1)
    aug = np.concatenate([a, b2], axis=1)
    r, pivots = rref(aug)
    ncols = a.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    x = fzeros(ncols, b2.shape[1])
    for ri, pc in enumerate(pivots):
        for j in range(b2.shape[1]):
            x[pc, j] = r[ri, ncols + j]
    return x if b.ndim == 2 else x[:, 0]


def inverse(a):
    """Exact inverse of a square matrix; ValueError if it is singular.

    ``solve(a, I)`` has a solution exactly when ``a`` has full rank, so one
    row reduction decides both.
    """
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("only a square matrix has an inverse")
    inv = solve(a, feye(n))
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


def column_echelon(a):
    """Canonical reduced column echelon form, zero columns dropped.

    Two subspaces are equal iff their spanning matrices have identical
    canonical forms.
    """
    r, pivots = rref(a.T)
    cols = r[: len(pivots)].T
    return cols


def matmul(a, b):
    out = fzeros(a.shape[0], b.shape[1])
    b_rows = row_nonzeros(b)
    for i, a_row in enumerate(row_nonzeros(a)):
        acc = {}
        for k, aik in a_row:
            for j, bkj in b_rows[k]:
                acc[j] = acc[j] + aik * bkj if j in acc else aik * bkj
        for j, v in acc.items():
            out[i, j] = v
    return out


def matvec(a, v):
    v_nz = [(k, x) for k, x in enumerate(v) if x]
    out = np.empty(a.shape[0], dtype=object)
    for i, row in enumerate(a.tolist()):
        s = Fraction(0)
        for k, x in v_nz:
            if row[k]:
                s += row[k] * x
        out[i] = s
    return out
