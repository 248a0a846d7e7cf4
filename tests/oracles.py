"""Reference forms the tests check the package against.

No code in ``srgo`` calls any of these. Each is a direct formula over the
stored structure constants, a structure's exact matrices or a trajectory:
the float bracket, ad and coad maps, their exact counterparts, the
pairings p([dH(p), X_r]) on the annihilator of k by their own bracket
contraction, the Lie-Poisson bracket on g*, H as a polynomial on g*, exact
evaluation of a polynomial, membership of one vector, and CSV written to a
file.
"""

from collections import defaultdict
from fractions import Fraction

import numpy as np

from srgo import exactla
from srgo.exactla import _int_or_fraction
from srgo.poly import Polynomial


def _nonzero_items(v, n):
    """The (index, value) pairs of the nonzero entries of a length-n
    vector, each value normalised."""
    if len(v) != n:
        raise ValueError("dimension mismatch")
    if isinstance(v, np.ndarray):
        v = v.tolist()
    return [(i, _int_or_fraction(x)) for i, x in enumerate(v) if x]


def _object_vec(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def coo_arrays(g):
    """The nonzero constants of ``g`` in float: an index array (3, nnz) of
    (i, j, k) and the values (nnz,), in the order of ``g.coo``."""
    coo = g.coo
    index = np.array([t[:3] for t in coo], dtype=np.intp).reshape(-1, 3).T
    return index, np.array([float(t[3]) for t in coo])


def _scatter(index, values, size):
    """out[index[t]] += values[t] over a float zero vector of length size."""
    return np.bincount(index, values, size).astype(float, copy=False)


def _float_args(g, *vectors):
    out = [np.asarray(v, dtype=float) for v in vectors]
    if any(v.shape != (g.dim,) for v in out):
        raise ValueError("dimension mismatch")
    return out


def bracket(g, a, b):
    """[a, b] for float coordinate vectors."""
    a, b = _float_args(g, a, b)
    (i, j, k), c = coo_arrays(g)
    return _scatter(k, a[i] * b[j] * c, g.dim)


def ad_matrix(g, x):
    """Matrix of ad x; column j is [x, e_j]."""
    (x,) = _float_args(g, x)
    n = g.dim
    (i, j, k), c = coo_arrays(g)
    return _scatter(k * n + j, x[i] * c, n * n).reshape(n, n)


def coad_apply(g, x, p):
    """Coadjoint pairing: the covector xi -> p([x, xi])."""
    x, p = _float_args(g, x, p)
    (i, j, k), c = coo_arrays(g)
    return _scatter(j, x[i] * c * p[k], g.dim)


def ad_matrix_exact(g, x):
    """Exact ad x, column j [x, e_j]: ``brackets`` of x with the identity."""
    out = exactla.fzeros(g.dim, g.dim)
    for (_, j), vec in g.brackets(g._column(x), exactla.feye(g.dim)).items():
        for k, v in vec.items():
            out[k, j] = v
    return out


def coad_apply_exact(g, x, p):
    """The covector xi -> p([x, xi]), exactly."""
    p = dict(_nonzero_items(p, g.dim))
    out = [0] * g.dim
    for i, xi in _nonzero_items(x, g.dim):
        for j, k, c in g.by_i[i]:
            pk = p.get(k)
            if pk is not None:
                out[j] += xi * c * pk
    return _object_vec(out)


def dH_exact(structure, p):
    """dH(p) = Dmat p, exactly."""
    return exactla.matvec(structure.dmat_exact,
                          structure.algebra._column(p)[:, 0])


def dh_pairings(structure, columns):
    """p([dH(p), X_r]) at p = m_dual a, a quadratic form in a per column X_r
    of the exact matrix ``columns``: {(r, u, t): the coefficient of a_u a_t},
    u <= t, nonzeros only. dH(m_dual a) = sum_u a_u Y_u with Y = Dmat m_dual:
    the brackets of Y with the columns, paired with m_dual."""
    y = exactla.matmul(structure.dmat_exact, structure.m_dual_exact)
    dual_rows = exactla.row_nonzeros(structure.m_dual_exact)  # k -> [(t, value)]
    merged = defaultdict(int)  # (r, u, t) -> coefficient, u <= t
    for (u, r), vec in structure.algebra.brackets(y, columns).items():
        for k, v in vec.items():
            for t, x in dual_rows[k]:
                merged[r, min(u, t), max(u, t)] += v * x
    return {key: _int_or_fraction(c) for key, c in merged.items() if c}


def contains(space, v):
    """Whether the vector v lies in the Subspace ``space``."""
    return space.contains_all([dict(_nonzero_items(v, space.ambient_dim))])


def eval_exact(poly, p):
    """Exact value of ``poly`` at p, normalised as the coefficients are."""
    p = [_int_or_fraction(x) for x in p]
    total = 0
    for m, c in poly.terms.items():
        v = c
        for i, e in enumerate(m):
            if e:
                v *= p[i] ** e
        total += v
    return _int_or_fraction(total)


def hamiltonian_polynomial(structure):
    """H as an exact quadratic polynomial on g*."""
    n = structure.dim
    d = structure.dmat_exact
    terms = {}
    for i in range(n):
        for j in range(i, n):
            c = d[i, j] if i == j else d[i, j] + d[j, i]
            # c / 2 is integral only when c is an even int.
            c = c // 2 if type(c) is int and not c % 2 else Fraction(c, 2)
            if c:
                mono = [0] * n
                mono[i] += 1
                mono[j] += 1
                terms[tuple(mono)] = c
    return Polynomial(n, terms)


def lie_poisson_bracket(F, G, algebra):
    """{F, G}(p) = sum c[i][j][k] p_k dF/dp_i dG/dp_j, exact."""
    if F.nvars != G.nvars:
        raise ValueError("variable-count mismatch")
    if F.nvars != algebra.dim:
        raise ValueError(
            "polynomial variables must match the algebra dimension")
    n = algebra.dim
    out = Polynomial.zero(n)
    dF = [F.diff(i) for i in range(n)]
    dG = [G.diff(j) for j in range(n)]
    for i, row in enumerate(algebra.by_i):
        if dF[i].is_zero():
            continue
        lin_by_j = {}  # j -> the linear form sum_k c[i, j, k] p_k
        for j, k, c in row:
            if not dG[j].is_zero():
                mono = [0] * n
                mono[k] = 1
                lin_by_j.setdefault(j, {})[tuple(mono)] = c
        for j, lin in lin_by_j.items():
            out = out + Polynomial(n, lin) * dF[i] * dG[j]
    return out


def casimir_check(F, algebra):
    """True iff {p_i, F} = 0 exactly for every coordinate function."""
    n = algebra.dim
    return all(lie_poisson_bracket(Polynomial.coordinate(n, i), F,
                                   algebra).is_zero() for i in range(n))


def to_csv(traj, path):
    """Write a trajectory's CSV to ``path``, as the CLI streams it."""
    with open(path, "w") as fh:
        fh.writelines(traj.csv_chunks())
