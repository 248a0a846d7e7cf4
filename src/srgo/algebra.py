"""Lie algebra arithmetic from structure constants.

The structure constants are stored once, as their nonzero entries: a COO
list (i, j, k, c) of exact rationals, grouped by i. The float tensor the
kernels use and the dense exact view are both derived from it, and every
exact loop (brackets, ad and coad matrices, the Killing form, the
antisymmetry and Jacobi checks) runs over the nonzeros only. All
structural checks (antisymmetry, Jacobi, reductivity, bracket generation)
run in exact arithmetic. A homogeneous structure contracts them once more,
into the vertical field and the k action, which every other module reads.
"""

from collections import defaultdict
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import exactla
from .exactla import fmat, fzeros, to_float


def _as_fraction_vec(v, n):
    out = np.empty(n, dtype=object)
    for i in range(n):
        out[i] = Fraction(v[i]) if not isinstance(v[i], Fraction) else v[i]
    return out


def _nonzero_items(v, n):
    """The (index, Fraction) pairs of the nonzero entries of a length-n vector."""
    if len(v) != n:
        raise ValueError("dimension mismatch")
    return [(i, x if type(x) is Fraction else Fraction(x))
            for i, x in enumerate(v) if x]


def _object_vec(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _read_only(a):
    a.setflags(write=False)
    return a


def _contract_first(algebra, vectors):
    """{(a, j, k): sum_i vectors[i, a] c[i, j, k]}: with X_a the a-th column,
    the coefficient of p_k in p([X_a, e_j]). Exact, over the nonzeros."""
    rows = exactla.row_nonzeros(vectors)  # i -> [(a, vectors[i, a])]
    out = defaultdict(Fraction)
    for i, j, k, c in algebra.coo:
        for a, x in rows[i]:
            out[a, j, k] += x * c
    return out


def _float_terms(terms, what):
    """``terms`` with each exact coefficient (the last entry) as a float."""
    try:
        return tuple((*idx, float(v)) for *idx, v in terms)
    except OverflowError:
        raise ValueError(f"{what} has non-finite coefficients") from None


class LieAlgebra:
    """Finite-dimensional Lie algebra given by its structure constants.

    ``constants`` is either a dense (n, n, n) array or a mapping
    {(i, j, k): value}; entry (i, j, k) is the coefficient of e_k in
    [e_i, e_j]. Only the nonzero entries are kept: ``by_i[i]`` is the tuple
    of (j, k, c) with exact Fraction c, sorted by (j, k).
    """

    def __init__(self, dim, constants, labels=None):
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i + 1}" for i in range(dim)]
        if len(self.labels) != dim:
            raise ValueError("label count mismatch")
        if isinstance(constants, dict):
            items = constants.items()
        else:
            dense = np.asarray(constants, dtype=object)
            if dense.shape != (dim, dim, dim):
                raise ValueError("structure tensor must have shape (n, n, n)")
            items = ((idx, dense[idx]) for idx in zip(*np.nonzero(dense)))
        rows = [[] for _ in range(dim)]
        for (i, j, k), v in items:
            i, j, k = int(i), int(j), int(k)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure constant index {(i, j, k)} out of range")
            v = v if isinstance(v, Fraction) else Fraction(v)
            if v:
                rows[i].append((j, k, v))
        self.by_i = tuple(tuple(sorted(row)) for row in rows)
        self.c_float = np.zeros((dim, dim, dim))
        for i, j, k, v in self.coo:
            self.c_float[i, j, k] = float(v)

    @classmethod
    def from_brackets(cls, dim, brackets, labels=None):
        """Build from a dict {(i, j): {k: coeff}} with i < j, 0-based.

        Antisymmetric counterparts are filled in automatically; a later
        entry overwrites an earlier one at the same position.
        """
        entries = {}
        for (i, j), comps in brackets.items():
            for k, v in comps.items():
                entries[(i, j, k)] = Fraction(v)
                entries[(j, i, k)] = -Fraction(v)
        return cls(dim, entries, labels)

    @property
    def coo(self):
        """The nonzero constants as (i, j, k, c), sorted by (i, j, k)."""
        return [(i, j, k, c) for i, row in enumerate(self.by_i)
                for j, k, c in row]

    @property
    def constants(self):
        """Dense (n, n, n) object array of Fractions, built on each access."""
        n = self.dim
        c = np.empty((n, n, n), dtype=object)
        c[:] = Fraction(0)
        for i, j, k, v in self.coo:
            c[i, j, k] = v
        return c

    def bracket(self, a, b):
        """[a, b] for float coordinate vectors."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != (self.dim,) or b.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        return np.einsum("i,j,ijk->k", a, b, self.c_float)

    def bracket_exact(self, a, b):
        b = dict(_nonzero_items(b, self.dim))
        out = [Fraction(0)] * self.dim
        for i, ai in _nonzero_items(a, self.dim):
            for j, k, c in self.by_i[i]:
                bj = b.get(j)
                if bj is not None:
                    out[k] += ai * bj * c
        return _object_vec(out)

    def ad_matrix(self, x):
        """Matrix of ad x; column j is [x, e_j]."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        return np.einsum("i,ijk->kj", x, self.c_float)

    def ad_matrix_exact(self, x):
        out = fzeros(self.dim, self.dim)
        for i, xi in _nonzero_items(x, self.dim):
            for j, k, c in self.by_i[i]:
                out[k, j] += xi * c
        return out

    def coad_apply(self, x, p):
        """Coadjoint pairing: returns the covector xi -> p([x, xi])."""
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        if x.shape != (self.dim,) or p.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        return np.einsum("i,ijk,k->j", x, self.c_float, p)

    def coad_apply_exact(self, x, p):
        p = dict(_nonzero_items(p, self.dim))
        out = [Fraction(0)] * self.dim
        for i, xi in _nonzero_items(x, self.dim):
            for j, k, c in self.by_i[i]:
                pk = p.get(k)
                if pk is not None:
                    out[j] += xi * c * pk
        return _object_vec(out)

    def killing_form(self):
        """K[i, j] = tr(ad e_i ad e_j) = sum_{a,b} c[i, b, a] c[j, a, b], exact."""
        n = self.dim
        by_last = {}  # (a, b) -> [(j, c[j, a, b])]
        for j, a, b, c in self.coo:
            by_last.setdefault((a, b), []).append((j, c))
        K = fzeros(n, n)
        for i, row in enumerate(self.by_i):
            acc = {}
            for b, a, c1 in row:
                for j, c2 in by_last.get((a, b), ()):
                    acc[j] = acc[j] + c1 * c2 if j in acc else c1 * c2
            for j, t in acc.items():
                K[i, j] = t
        return K

    def killing_form_float(self):
        return to_float(self.killing_form())

    def killing_kernel(self):
        """Null space of the Killing form as a Subspace."""
        return Subspace(self.dim, exactla.nullspace(self.killing_form()))

    def validate(self, max_reported=20):
        """Exact antisymmetry and Jacobi checks; returns a ValidationReport.

        Both are sparse sums over the nonzero constants. Violations are
        reported in lexicographic order of their indices, at most
        ``max_reported`` of them; Jacobi is checked only once the tensor is
        antisymmetric.
        """
        report = ValidationReport()
        entries = {(i, j, k): c for i, j, k, c in self.coo}
        anti = sorted(set(entries) | {(j, i, k) for i, j, k in entries})
        for i, j, k in anti:
            if entries.get((i, j, k), 0) + entries.get((j, i, k), 0):
                if len(report.violations) >= max_reported:
                    break
                report.add(f"antisymmetry violated at ({i + 1},{j + 1},{k + 1})")
        if report.violations:
            return report
        # jac[i, j, l, k] = coefficient of e_k in [[e_i, e_j], e_l]
        jac = {}
        for i, j, m, c1 in self.coo:
            for l, k, c2 in self.by_i[m]:
                key = (i, j, l, k)
                jac[key] = jac[key] + c1 * c2 if key in jac else c1 * c2
        candidates = sorted({(*sorted((i, j, l)), k)
                             for i, j, l, k in jac if len({i, j, l}) == 3})
        for i, j, l, k in candidates:
            total = (jac.get((i, j, l, k), 0) + jac.get((l, i, j, k), 0)
                     + jac.get((j, l, i, k), 0))
            if total:
                if len(report.violations) >= max_reported:
                    break
                report.add(
                    f"Jacobi identity violated at ({i + 1},{j + 1},{l + 1};{k + 1})"
                )
        return report


class ValidationReport:
    """Accumulates structural violations; empty means valid."""

    def __init__(self):
        self.violations = []

    def add(self, msg):
        self.violations.append(msg)

    @property
    def ok(self):
        return not self.violations

    def merged(self, other):
        out = ValidationReport()
        out.violations = self.violations + other.violations
        return out

    def __repr__(self):
        return "valid" if self.ok else "; ".join(self.violations)


class Subspace:
    """Subspace of R^n spanned by the columns of ``basis`` (exact)."""

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        if basis.size == 0:
            basis = fzeros(ambient_dim, 0)
        self.basis = basis
        if basis.shape[0] != ambient_dim:
            raise ValueError("basis rows must match ambient dimension")
        self.canonical = exactla.column_echelon(basis)
        if self.canonical.shape[1] != basis.shape[1]:
            raise ValueError("basis columns are linearly dependent")
        # Fast membership path when every basis column is a standard vector.
        idx = set()
        for j in range(basis.shape[1]):
            col = basis[:, j]
            nz = [i for i in range(ambient_dim) if col[i]]
            if len(nz) == 1 and col[nz[0]] == 1:
                idx.add(nz[0])
            else:
                idx = None
                break
        self._std_indices = idx

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        if not vectors:
            return cls(ambient_dim, fzeros(ambient_dim, 0))
        return cls(ambient_dim, fmat(vectors).T)

    @classmethod
    def span_of_columns(cls, ambient_dim, cols):
        """Span, discarding dependent columns."""
        return cls(ambient_dim, exactla.column_echelon(cols))

    @property
    def dim(self):
        return self.basis.shape[1]

    def basis_float(self):
        return to_float(self.basis)

    def contains(self, v):
        if self.dim == 0:
            return all(Fraction(x) == 0 for x in v)
        if self._std_indices is not None:
            return all(
                not v[i] for i in range(self.ambient_dim)
                if i not in self._std_indices
            )
        vv = _as_fraction_vec(v, self.ambient_dim)
        return exactla.solve(self.basis, vv) is not None

    def contains_subspace(self, other):
        return all(self.contains(other.basis[:, j]) for j in range(other.dim))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.canonical.shape == other.canonical.shape
            and (self.canonical == other.canonical).all()
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.canonical.shape))

    def __repr__(self):
        return f"Subspace(dim={self.dim} in R^{self.ambient_dim})"


def subspace_sum(ambient_dim, subspaces):
    cols = [s.basis for s in subspaces if s.dim]
    if not cols:
        return Subspace(ambient_dim, fzeros(ambient_dim, 0))
    return Subspace.span_of_columns(ambient_dim, np.concatenate(cols, axis=1))


def lie_closure(algebra, seed):
    """Smallest subalgebra containing the Subspace ``seed``."""
    current = seed
    while True:
        new_cols = [current.basis]
        for a in range(current.dim):
            for b in range(a + 1, current.dim):
                v = algebra.bracket_exact(current.basis[:, a], current.basis[:, b])
                new_cols.append(v.reshape(-1, 1))
        nxt = Subspace.span_of_columns(
            algebra.dim, np.concatenate(new_cols, axis=1)
        )
        # All of g is closed: no confirming round is needed.
        if nxt.dim == current.dim or nxt.dim == algebra.dim:
            return nxt
        current = nxt


class HomogeneousSRStructure:
    """Left-invariant sub-Riemannian structure on G/K via (g, k, m, delta, B).

    The metric is stored exactly and inverted once at construction; a
    non positive-definite metric is rejected immediately, and the structure
    is validated exactly.

    ``isotropy_exact`` is False when k is not known to be the full isotropy
    algebra, ``isotropy_connected`` False when the isotropy group has
    components the infinitesimal invariants cannot see; either keeps the GO
    verdict at the evidence level. ``kappa`` is the rotation rate of the
    closed-form vertical flow, set only on the axisymmetric models.

    The vertical field f_j(p) = p([dH(p), e_j]) = sum coef p_a p_k is
    ``vertical_terms_exact``, its nonzero (j, a, k, coef) with a <= k, sorted;
    the k action p([Z_a, e_j]) = sum_k T[a, j, k] p_k is ``k_action_exact``,
    the nonzero (a, j, k, T[a, j, k]). Float mirrors: ``vertical_terms``
    (float coefficients) and the dense ``k_action`` T; a coefficient that
    overflows a float is a ValueError.
    """

    def __init__(self, algebra, k, m, delta, metric, grading=None,
                 representation=None, isotropy_exact=True,
                 isotropy_connected=True, kappa=None):
        self.algebra = algebra
        self.k = k
        self.m = m
        self.delta = delta
        self.metric = fmat(metric) if not isinstance(metric, np.ndarray) or metric.dtype != object else metric
        self.grading = grading
        self.representation = (
            [np.asarray(r, dtype=float) for r in representation]
            if representation is not None
            else None
        )
        self.isotropy_exact = isotropy_exact
        self.isotropy_connected = isotropy_connected
        self.kappa = kappa

        if self.metric.shape != (delta.dim, delta.dim):
            raise ValueError("metric shape must match delta dimension")
        if (self.metric != self.metric.T).any():
            raise ValueError("metric is not symmetric")
        mf = to_float(self.metric)
        try:
            np.linalg.cholesky(mf)
        except np.linalg.LinAlgError:
            raise ValueError("metric is not positive definite") from None
        self.metric_float = mf
        self.metric_inv = exactla.inverse(self.metric)
        self.metric_inv_float = to_float(self.metric_inv)

        # dH(p) = Dmat @ p with Dmat = delta B^{-1} delta^T.
        db = delta.basis
        self.dmat_exact = exactla.matmul(
            exactla.matmul(db, self.metric_inv), db.T
        )
        self.dmat = to_float(self.dmat_exact)
        self.k_basis_float = k.basis_float()
        self.m_basis_float = m.basis_float()
        self.delta_basis_float = delta.basis_float()

        rep = self.validate()
        if not rep.ok:
            raise ValueError(f"invalid structure: {rep}")

        merged = defaultdict(Fraction)  # (j, a, k) -> coefficient, a <= k
        for (a, j, kk), v in _contract_first(algebra, self.dmat_exact).items():
            merged[j, min(a, kk), max(a, kk)] += v
        self.vertical_terms_exact = tuple(sorted(
            (*key, v) for key, v in merged.items() if v))
        self.k_action_exact = tuple(sorted(
            (*key, v) for key, v in _contract_first(algebra, k.basis).items() if v))
        self.vertical_terms = _float_terms(self.vertical_terms_exact,
                                           "the vertical field")
        self.k_action = np.zeros((k.dim, algebra.dim, algebra.dim))
        for a, j, kk, v in _float_terms(self.k_action_exact, "the k action"):
            self.k_action[a, j, kk] = v

    @property
    def dim(self):
        return self.algebra.dim

    @cached_property
    def m_dual_exact(self):
        """Exact (n, dim m) map from m*-coordinates into the annihilator of k.

        Column a pairs to 1 with the a-th m-basis vector and to 0 with the
        other m-basis vectors and with k: the first dim m columns of the
        inverse transpose of the adapted basis [m | k].
        """
        adapted = np.concatenate([self.m.basis, self.k.basis], axis=1)
        return _read_only(exactla.inverse(adapted).T[:, : self.m.dim])

    @cached_property
    def m_dual(self):
        """Float mirror of ``m_dual_exact``."""
        return _read_only(to_float(self.m_dual_exact))

    def freeze(self):
        """Mark every array of this structure read-only.

        Covers the arrays of the structure itself, of its algebra, of its
        k, m, delta and grading subspaces, and the representation matrices.
        A structure shared by several callers is frozen so that none of
        them can change it in place for the others.
        """
        holders = [self, self.algebra, self.k, self.m, self.delta,
                   *(self.grading or ())]
        arrays = [v for h in holders for v in vars(h).values()
                  if isinstance(v, np.ndarray)]
        for a in arrays + list(self.representation or ()):
            _read_only(a)

    def validate(self):
        """Exact structural checks; returns a ValidationReport."""
        report = ValidationReport()
        g = self.algebra
        n = g.dim
        k, m, delta = self.k, self.m, self.delta

        if k.dim + m.dim != n or exactla.rank(
            np.concatenate([k.basis, m.basis], axis=1) if k.dim else m.basis
        ) != n:
            report.add("g is not the direct sum of k and m")
        # Every ordered pair, a == b included: antisymmetry is not checked
        # here. Each kind of violation is reported once.
        if not all(k.contains(g.bracket_exact(k.basis[:, a], k.basis[:, b]))
                   for a in range(k.dim) for b in range(k.dim)):
            report.add("k is not a subalgebra")
        if not all(m.contains(g.bracket_exact(k.basis[:, a], m.basis[:, b]))
                   for a in range(k.dim) for b in range(m.dim)):
            report.add("decomposition is not reductive: [k, m] not in m")
        if not m.contains_subspace(delta):
            report.add("delta is not contained in m")
        seed = subspace_sum(n, [delta, k])
        if lie_closure(g, seed).dim != n:
            report.add("delta (with k) is not bracket generating")

        if self.grading is not None:
            report = report.merged(self._validate_grading())
        if self.representation is not None:
            report = report.merged(self._validate_representation())
        return report

    def _validate_grading(self):
        report = ValidationReport()
        g = self.algebra
        n = g.dim
        layers = self.grading
        if subspace_sum(n, layers) != subspace_sum(n, [self.m]):
            report.add("grading layers do not span m")
        if layers[0] != Subspace(n, self.delta.basis.copy()) and layers[0] != self.delta:
            report.add("first grading layer must equal delta")
        s = len(layers)
        for i, layer in enumerate(layers):
            brackets = []
            for a in range(layers[0].dim):
                for b in range(layer.dim):
                    brackets.append(
                        g.bracket_exact(layers[0].basis[:, a], layer.basis[:, b]).reshape(-1, 1)
                    )
            span = Subspace.span_of_columns(n, np.concatenate(brackets, axis=1))
            if i + 1 < s:
                if span != layers[i + 1]:
                    report.add(f"[g_1, g_{i + 1}] != g_{i + 2}")
            else:
                if span.dim != 0:
                    report.add("[g_1, g_s] != 0")
        if lie_closure(g, layers[0]).dim != sum(l.dim for l in layers):
            report.add("g_1 does not generate the graded part")
        return report

    def _validate_representation(self):
        report = ValidationReport()
        g = self.algebra
        rho = self.representation
        if len(rho) != g.dim:
            report.add("representation must provide one matrix per basis vector")
            return report
        for i, row in enumerate(g.by_i):
            for j in range(i + 1, g.dim):
                comm = rho[i] @ rho[j] - rho[j] @ rho[i]
                target = sum(float(c) * rho[k] for jj, k, c in row if jj == j)
                if np.max(np.abs(comm - target)) > 1e-10:
                    report.add(f"representation not bracket-compatible at ({i + 1},{j + 1})")
        return report

    def dH(self, p):
        """B^{-1}(p|_delta) in g-coordinates, supported on delta."""
        p = np.asarray(p, dtype=float)
        return self.dmat @ p

    def dH_exact(self, p):
        return exactla.matvec(self.dmat_exact, _as_fraction_vec(p, self.dim))

    def hamiltonian_value(self, p):
        p = np.asarray(p, dtype=float)
        return 0.5 * float(p @ self.dmat @ p)

    def annihilates_k(self, p, tol=1e-9):
        if self.k.dim == 0:
            return True
        return float(np.max(np.abs(self.k_basis_float.T @ np.asarray(p, dtype=float)))) <= tol
