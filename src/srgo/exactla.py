"""Exact rational linear algebra that skips zero entries.

Matrices are numpy object arrays of exact rationals: an integral value is
held as a Python int, any other as a ``fractions.Fraction``. Most values
are integral (every bundled structure constant is), and int arithmetic is
several times cheaper than Fraction's. Division is the one operation that
leaves the rationals on ints (``int / int`` is a float), so every division
here goes through Fraction, save an int by an int that divides it, which
``//`` does exactly. ``_int_or_fraction`` normalises a value, and
every matrix or vector returned here holds normalised entries.

All elimination runs through one sparse eliminator, ``_echelon``, which
takes rows as {column: value} dicts and reduces them one at a time,
touching only nonzeros. ``_reduce`` back-reduces its pivot rows to the
canonical form that ``rref`` (so ``rank``, ``solve``, ``inverse`` and
``column_echelon``) and ``algebra.Subspace`` read; ``solve_sparse``,
``nullspace_sparse`` and the dense ``nullspace`` back-substitute instead.
``matmul`` and ``matvec`` multiply through lists of each row's nonzero
entries. Everything here is deterministic and exact; float counterparts
live with the callers.
"""

import bisect
from fractions import Fraction

import numpy as np


def _int_or_fraction(v):
    """An exact rational as an int when it is integral, else as a Fraction.

    Anything ``Fraction`` accepts (an int, a float, a string such as
    "1/2") is converted exactly.
    """
    t = type(v)
    if t is int:
        return v
    if t is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def fmat(rows):
    """Build an exact matrix, entries normalised, from a nested sequence
    or a 2-d array."""
    a = np.empty((len(rows), len(rows[0]) if len(rows) else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            a[i, j] = _int_or_fraction(v)
    return a


def fzeros(nrows, ncols):
    a = np.empty((nrows, ncols), dtype=object)
    a[:] = 0
    return a


def feye(n):
    a = fzeros(n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def to_float(a):
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def row_nonzeros(a):
    """Per row of ``a``, the list of its (column, value) nonzero entries."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in a.tolist()]


def _dict_rows(a):
    """The rows of a matrix as {column: value} dicts of their nonzeros."""
    return [{j: v for j, v in enumerate(row) if v} for row in a.tolist()]


def _reduce(rows):
    """The nonzero rows of the RREF of a sparse system of {column: value}
    rows, as {pivot column: row right of its leading 1}, entries normalised.

    From the last of ``_echelon``'s pivot rows back, each is cleared at the
    later pivot columns with the rows already cleared.
    """
    pivots = _echelon(rows)
    reduced = {}
    for p in sorted(pivots, reverse=True):
        row = dict(pivots[p])
        for q in [c for c in row if c in reduced]:
            f = row.pop(q)
            for c, v in reduced[q].items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
        reduced[p] = {c: _int_or_fraction(v) for c, v in row.items()}
    return reduced


def rref(a):
    """Reduced row echelon form. Returns (R, pivot_columns).

    The pivot rows are ``_reduce``'s; the zero rows follow them.
    """
    nrows, ncols = a.shape
    reduced = _reduce(_dict_rows(a))
    order = sorted(reduced)
    r = fzeros(nrows, ncols)
    for i, p in enumerate(order):
        row = [0] * ncols
        row[p] = 1
        for c, v in reduced[p].items():
            row[c] = v
        r[i] = row
    return r, order


def rank(a):
    if a.size == 0:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Columns span the exact right null space of ``a``.

    The basis is the one read off ``rref(a)``: one column per free column
    j, 1 at j, 0 at the other free columns, -R[i, j] at pivot column i.
    """
    nrows, ncols = a.shape
    if ncols == 0:
        return fzeros(0, 0)
    kernel = nullspace_sparse(_dict_rows(a), ncols)
    basis = fzeros(ncols, len(kernel))
    for bi, vec in enumerate(kernel):
        for j, v in vec.items():
            basis[j, bi] = v
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
        x[pc] = r[ri, ncols:]
    return x if b.ndim == 2 else x[:, 0]


def _echelon(rows):
    """Pivot rows of a sparse system, reduced one row at a time.

    ``rows`` is an iterable of {column: value} dicts. Each row is reduced
    against the pivot rows found so far, always at its lowest nonzero
    column, and becomes a pivot row where that column has none yet.
    Returns {pivot column: {column: value}}, each row given right of its
    leading 1. The pivot rows span the row space and lead at distinct
    columns, so the pivot columns are those of ``rref``. Entries come in
    normalised, so integral ones are ints; a pivot row is divided by its
    lead with ``//`` where both are ints and the lead divides the entry,
    and through Fraction otherwise.
    """
    pivots = {}
    for coeffs in rows:
        row = {c: _int_or_fraction(v) for c, v in coeffs.items() if v}
        while row:
            col = min(row)
            f = row.pop(col)
            if col not in pivots:
                if f != 1:
                    whole = type(f) is int
                    row = {c: v // f if whole and type(v) is int and not v % f
                           else _int_or_fraction(Fraction(v) / f)
                           for c, v in row.items()}
                pivots[col] = row
                break
            for c, v in pivots[col].items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return pivots


def _back_substitute(pivots, order, col, value):
    """The solution with x[col] = value, the other free variables 0 and
    each pivot variable solved from its row, as a dict of its nonzeros.

    ``order`` is the sorted pivot columns. A pivot row touches only columns
    right of its pivot, so the pivot variables right of ``col`` stay 0.
    """
    x = {col: value}
    for p in reversed(order[:bisect.bisect(order, col)]):
        v = 0
        for c, w in pivots[p].items():
            if c in x:
                v -= w * x[c]
        if v:
            x[p] = v
    return x


def solve_sparse(rows, ncols):
    """Solve a sparse system exactly; returns None if it is inconsistent.

    ``rows`` is an iterable of (coefficients, rhs) pairs, the coefficients a
    {column: value} dict over columns 0..ncols-1. The right-hand side
    rides along as column ``ncols``, so the system is inconsistent exactly
    when that column leads a pivot row. Back-substitution with x[ncols] = -1
    and the free variables set to zero gives the vector ``solve`` returns.
    """
    pivots = _echelon({**coeffs, ncols: rhs} for coeffs, rhs in rows)
    if ncols in pivots:
        return None
    x = _back_substitute(pivots, sorted(pivots), ncols, -1)
    out = np.empty(ncols, dtype=object)
    out[:] = [_int_or_fraction(x.get(c, 0)) for c in range(ncols)]
    return out


def nullspace_sparse(rows, ncols):
    """Exact right null space of a sparse matrix, as sparse vectors.

    ``rows`` is an iterable of {column: value} dicts over columns
    0..ncols-1. Returns one {column: value} dict per free column j, in
    increasing j: x_j = 1, the other free variables 0, and the pivot
    variables back-substituted. That is the basis ``nullspace`` reads off
    the canonical RREF.
    """
    pivots = _echelon(rows)
    order = sorted(pivots)
    return [{c: _int_or_fraction(v)
             for c, v in _back_substitute(pivots, order, j, 1).items()}
            for j in range(ncols) if j not in pivots]


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
            out[i, j] = _int_or_fraction(v)
    return out


def matvec(a, v):
    v_nz = [(k, x) for k, x in enumerate(v) if x]
    out = np.empty(a.shape[0], dtype=object)
    for i, row in enumerate(a.tolist()):
        s = 0
        for k, x in v_nz:
            if row[k]:
                s += row[k] * x
        out[i] = _int_or_fraction(s)
    return out
