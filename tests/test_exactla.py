from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgo import exactla


def frac_matrices(max_dim=4):
    entry = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(entry, min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            ).map(exactla.fmat)
        )
    )


def test_fmat_and_friends():
    a = exactla.fmat([[1, "1/2"], [0, 3]])
    assert a[0, 1] == Fraction(1, 2)
    assert (exactla.feye(2) == exactla.fmat([[1, 0], [0, 1]])).all()
    assert np.allclose(exactla.to_float(a), [[1.0, 0.5], [0.0, 3.0]])
    z = exactla.fzeros(2, 3)
    assert z.shape == (2, 3) and all(v == 0 for v in z.flat)


def test_rref_simple():
    a = exactla.fmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = exactla.rref(a)
    assert pivots == [0, 1]
    assert exactla.rank(a) == 2


@settings(max_examples=60, deadline=None)
@given(frac_matrices())
def test_nullspace_annihilates(a):
    ns = exactla.nullspace(a)
    assert exactla.rank(a) + ns.shape[1] == a.shape[1]
    if ns.shape[1]:
        prod = exactla.matmul(a, ns)
        assert all(v == 0 for v in prod.flat)


@settings(max_examples=60, deadline=None)
@given(frac_matrices())
def test_solve_consistent_systems(a):
    x = exactla.fmat([[Fraction(i + 1, 3)] for i in range(a.shape[1])])
    b = exactla.matmul(a, x)[:, 0]
    sol = exactla.solve(a, b)
    assert sol is not None
    assert all(v == 0 for v in (exactla.matvec(a, sol) - b))


def test_solve_inconsistent():
    a = exactla.fmat([[1, 0], [1, 0]])
    b = np.array([Fraction(1), Fraction(2)], dtype=object)
    assert exactla.solve(a, b) is None


def test_inverse():
    a = exactla.fmat([[2, 1], [1, 1]])
    inv = exactla.inverse(a)
    assert (exactla.matmul(a, inv) == exactla.feye(2)).all()
    with pytest.raises(ValueError, match="singular"):
        exactla.inverse(exactla.fmat([[1, 1], [1, 1]]))


def test_inverse_rejects_non_square():
    # [[1, 0, 0], [0, 1, 0]] has a right inverse, but no inverse.
    with pytest.raises(ValueError, match="square"):
        exactla.inverse(exactla.fmat([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError, match="square"):
        exactla.inverse(exactla.fmat([[1, 0], [0, 1], [0, 0]]))


def test_column_echelon_canonical():
    # Same span, different bases -> identical canonical form.
    a = exactla.fmat([[1, 1], [0, 1], [2, 0]])
    b = exactla.fmat([[2, 1], [1, 0], [2, 4]])  # b = a @ [[1,1],[1,-1]] ... spans
    b = exactla.matmul(a, exactla.fmat([[1, 2], [1, -1]]))
    assert (exactla.column_echelon(a) == exactla.column_echelon(b)).all()


def _dense_rref(a):
    """Row reduction over whole object-array rows (the former code)."""
    r = a.copy()
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = next((i for i in range(row, nrows) if r[i, col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = r[row] / r[row, col]
        for i in range(nrows):
            if i != row and r[i, col] != 0:
                r[i] = r[i] - r[i, col] * r[row]
        pivots.append(col)
        row += 1
    return r, pivots


def _dense_matmul(a, b):
    out = exactla.fzeros(a.shape[0], b.shape[1])
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum((a[i, k] * b[k, j] for k in range(a.shape[1])),
                            Fraction(0))
    return out


def _sparse_matrix(rng, nrows, ncols, zero_share):
    return exactla.fmat([[0 if rng.random() < zero_share
                          else Fraction(int(rng.integers(-4, 5)),
                                        int(rng.integers(1, 4)))
                          for _ in range(ncols)] for _ in range(nrows)])


def test_nonzero_aware_loops_match_dense_reference():
    rng = np.random.default_rng(11)
    for nrows, ncols, zero_share in [(4, 7, 0.0), (9, 5, 0.6), (12, 12, 0.85),
                                     (6, 1, 0.5), (1, 6, 0.3), (20, 8, 0.9)]:
        a = _sparse_matrix(rng, nrows, ncols, zero_share)
        a[nrows // 2] = a[0] * 3  # a dependent row
        r, pivots = exactla.rref(a)
        r_ref, pivots_ref = _dense_rref(a)
        assert pivots == pivots_ref
        assert r.shape == r_ref.shape and (r == r_ref).all()
        b = _sparse_matrix(rng, ncols, 5, zero_share)
        assert (exactla.matmul(a, b) == _dense_matmul(a, b)).all()
        v = b[:, 0]
        assert list(exactla.matvec(a, v)) == list(_dense_matmul(
            a, v.reshape(-1, 1))[:, 0])
