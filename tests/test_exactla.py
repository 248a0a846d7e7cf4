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


def int_systems(max_dim=5):
    """(a, b) with small integer entries, zeros common, so that many systems
    are rank deficient and inconsistent."""
    entry = st.integers(-2, 2)
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.tuples(
                st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n).map(exactla.fmat),
                st.lists(entry, min_size=n, max_size=n).map(
                    lambda b: exactla.fmat([b])[0]),
            )
        )
    )


def _sparse_rows(a, b):
    return [({j: v for j, v in enumerate(row) if v}, rhs)
            for row, rhs in zip(a.tolist(), b)]


@settings(max_examples=200, deadline=None)
@given(int_systems(), st.booleans())
def test_solve_sparse_matches_solve(normalised, system, contradict):
    a, b = system
    if contradict:  # the first row again with another right-hand side
        a = np.concatenate([a, a[:1]])
        b = np.concatenate([b, b[:1] + 1])
    dense = exactla.solve(a, b)
    sparse = exactla.solve_sparse(_sparse_rows(a, b), a.shape[1])
    if dense is None:
        assert sparse is None
    else:
        assert sparse is not None and sparse.shape == dense.shape
        assert all(normalised(v) for v in sparse)
        assert list(sparse) == list(dense)


def test_solve_sparse_takes_int_entries_and_empty_rows():
    rows = [({}, 0), ({1: 2, 0: 0}, 3), ({0: 1, 1: 1}, 1)]
    assert list(exactla.solve_sparse(rows, 3)) == [Fraction(-1, 2),
                                                   Fraction(3, 2), 0]
    assert exactla.solve_sparse(rows + [({}, 1)], 3) is None


def rref_nullspace(a):
    """The kernel basis read off ``rref``: per free column j, 1 at j and
    -R[i, j] at pivot column i."""
    r, pivots = exactla.rref(a)
    free = [j for j in range(a.shape[1]) if j not in pivots]
    basis = exactla.fzeros(a.shape[1], len(free))
    for bi, j in enumerate(free):
        basis[j, bi] = Fraction(1)
        for ri, pc in enumerate(pivots):
            basis[pc, bi] = -r[ri, j]
    return basis


def int_matrices(max_dim=6):
    entry = st.integers(-3, 3)
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(st.lists(entry, min_size=m, max_size=m),
                               min_size=n, max_size=n).map(exactla.fmat)))


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_nullspace_equals_rref_basis(normalised, a):
    got = exactla.nullspace(a)
    want = rref_nullspace(a)
    assert got.shape == want.shape
    assert all(normalised(v) for v in got.flat)
    assert got.tolist() == want.tolist()


def test_nullspace_sparse_takes_int_entries_and_empty_rows():
    rows = [{}, {1: 2, 0: 0}, {0: 3, 2: 1}]
    assert exactla.nullspace_sparse(rows, 4) == [
        {2: Fraction(1), 0: Fraction(-1, 3)}, {3: Fraction(1)}]
    assert exactla.nullspace_sparse([], 2) == [{0: 1}, {1: 1}]


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


def _gauss_jordan(a):
    """Dense Gauss-Jordan reduction in Fraction arithmetic, the oracle for
    ``exactla.rref``. Returns (R, pivot_columns)."""
    nrows, ncols = a.shape
    rows = [[Fraction(v) for v in row] for row in a.tolist()]
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
    r = np.empty((nrows, ncols), dtype=object)
    for i, values in enumerate(rows):
        r[i] = values
    return r, pivots


def _oracle_solve(a, b):
    """``exactla.solve`` read off the oracle's reduction of [a | b]."""
    ncols = a.shape[1]
    r, pivots = _gauss_jordan(np.concatenate([a, b], axis=1))
    if any(p >= ncols for p in pivots):
        return None
    x = np.full((ncols, b.shape[1]), Fraction(0), dtype=object)
    for ri, pc in enumerate(pivots):
        x[pc] = r[ri, ncols:]
    return x


_ENTRY = st.one_of(st.integers(-3, 3), st.just(0),
                   st.fractions(-3, 3, max_denominator=3))


@st.composite
def mixed_matrices(draw, max_dim=5):
    """Object matrices whose entries mix ints and Fractions (integral ones
    among them), with a zero row or a dependent row now and then."""
    ncols = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=max_dim))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if draw(st.booleans()):  # rank deficient: a combination of two rows
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        f = draw(_ENTRY)
        rows.append([x + f * y for x, y in zip(rows[i], rows[j])])
    a = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        a[i] = row
    return a


@settings(max_examples=300, deadline=None)
@given(mixed_matrices(), st.data())
def test_eliminations_equal_the_gauss_jordan_oracle(normalised, a, data):
    nrows, ncols = a.shape
    r, pivots = exactla.rref(a)
    r_ref, pivots_ref = _gauss_jordan(a)
    assert pivots == pivots_ref
    assert r.shape == r_ref.shape and r.tolist() == r_ref.tolist()
    assert exactla.rank(a) == len(pivots_ref)

    b = np.empty((nrows, data.draw(st.integers(1, 3))), dtype=object)
    for i in range(nrows):
        b[i] = data.draw(st.lists(_ENTRY, min_size=b.shape[1],
                                  max_size=b.shape[1]))
    outputs = [r]
    # b as a matrix, and its first column as a vector
    for rhs, x_ref in ((b, _oracle_solve(a, b)),
                       (b[:, 0], _oracle_solve(a, b[:, :1]))):
        x = exactla.solve(a, rhs)
        assert (x is None) == (x_ref is None)
        if x is not None:
            assert x.tolist() == x_ref.reshape(x.shape).tolist()
            outputs.append(x)

    ce = exactla.column_echelon(a)
    ce_ref = _gauss_jordan(a.T)[0][: len(pivots_ref)].T
    assert ce.shape == ce_ref.shape and ce.tolist() == ce_ref.tolist()
    outputs.append(ce)

    d = min(nrows, ncols)
    square = a[:d, :d]
    inv_ref = _oracle_solve(square, np.eye(d, dtype=int).astype(object))
    if inv_ref is None:
        with pytest.raises(ValueError, match="singular"):
            exactla.inverse(square)
    else:
        inv = exactla.inverse(square)
        assert inv.tolist() == inv_ref.tolist()
        outputs.append(inv)

    # Normalised entries: no float (an int / int) and no integral Fraction.
    assert all(normalised(v) for m in outputs for v in m.flat)


def test_a_pivot_row_stays_on_ints_where_its_lead_divides_it():
    pivots = exactla._echelon([{0: -2, 1: 4, 2: -6},
                               {1: 3, 2: 2, 3: Fraction(3, 2)},
                               {2: Fraction(1, 2), 3: 1}])
    assert pivots == {0: {1: -2, 2: 3},
                      1: {2: Fraction(2, 3), 3: Fraction(1, 2)},
                      2: {3: 2}}
    assert [[type(v) for v in pivots[p].values()] for p in range(3)] == [
        [int, int], [Fraction, Fraction], [int]]


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


def test_nonzero_aware_loops_match_dense_reference(normalised):
    rng = np.random.default_rng(11)
    for nrows, ncols, zero_share in [(4, 7, 0.0), (9, 5, 0.6), (12, 12, 0.85),
                                     (6, 1, 0.5), (1, 6, 0.3), (20, 8, 0.9)]:
        a = _sparse_matrix(rng, nrows, ncols, zero_share)
        a[nrows // 2] = a[0] * 3  # a dependent row
        r, pivots = exactla.rref(a)
        r_ref, pivots_ref = _gauss_jordan(a)
        assert pivots == pivots_ref
        assert r.shape == r_ref.shape and (r == r_ref).all()
        b = _sparse_matrix(rng, ncols, 5, zero_share)
        ab = exactla.matmul(a, b)
        assert (ab == _dense_matmul(a, b)).all()
        v = b[:, 0]
        av = exactla.matvec(a, v)
        assert list(av) == list(_dense_matmul(a, v.reshape(-1, 1))[:, 0])
        assert all(normalised(x) for x in [*r.flat, *ab.flat, *av])
