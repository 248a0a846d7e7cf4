"""Lie algebra arithmetic from structure constants.

The structure constants are stored once, as their nonzero entries grouped
by i (``LieAlgebra.by_i``), exact rationals: ints where integral, as
everywhere in the exact layer (see ``exactla``). The COO list and the dense
exact view are derived from it, and every exact loop (brackets, the Killing
form, the antisymmetry and Jacobi checks) runs over the nonzeros only. All
structural checks (antisymmetry, Jacobi, reductivity, bracket generation,
the k-invariance of the metric) run in exact arithmetic. Every exact
bracket is one contraction of two bases, ``LieAlgebra.brackets``. A
homogeneous structure contracts dH's matrix with the identity, once, into
the terms of the vertical field on g*, and reads its other forms off those
terms at p = m_dual a, m_dual the map from m*-coordinates: paired with the
m basis, the motion of the m*-coordinates; paired with the k basis, the
k-invariance check. A ``Subspace`` reads membership off its canonical
form, with no solve.
"""

from collections import defaultdict
from functools import cached_property

import numpy as np

from . import exactla
from .exactla import _int_or_fraction, fmat, fzeros, to_float


def _columns(a):
    """The columns of an exact matrix as {row: value} dicts of their nonzeros."""
    return exactla._dict_rows(a.T)


def _nonzero_items(v, n):
    """The (index, value) pairs of the nonzero entries of a length-n vector,
    each value normalised by ``exactla._int_or_fraction``."""
    if len(v) != n:
        raise ValueError("dimension mismatch")
    if isinstance(v, np.ndarray):
        v = v.tolist()  # iterating the list skips numpy's per-item access
    return [(i, _int_or_fraction(x)) for i, x in enumerate(v) if x]


def _object_vec(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _read_only(a):
    a.setflags(write=False)
    return a


def _float_terms(terms, what):
    """``terms`` with each exact coefficient (the last entry) as a float."""
    try:
        return tuple((*idx, float(v)) for *idx, v in terms)
    except OverflowError:
        raise ValueError(f"{what} has non-finite coefficients") from None


def _float_matrix(a, what):
    """to_float(a); an entry beyond the float range is a ValueError."""
    try:
        return to_float(a)
    except OverflowError:
        raise ValueError(f"{what} has entries beyond the float range") from None


class LieAlgebra:
    """Finite-dimensional Lie algebra given by its structure constants.

    ``constants`` is a mapping {(i, j, k): value}; entry (i, j, k) is the
    coefficient of e_k in [e_i, e_j]. Only the nonzero entries are kept:
    ``by_i[i]`` is the tuple of (j, k, c) sorted by (j, k), with c exact: an
    int when it is integral, else a Fraction. Integral constants are the
    common case, and every exact loop over them then runs in int
    arithmetic, which is several times cheaper than Fraction's. A constant
    beyond the float range is a ValueError: the float layers (the Killing
    form of the existence route, the vertical field) could not hold it.
    """

    def __init__(self, dim, constants, labels=None):
        self.dim = dim
        self.labels = list(labels) if labels else [f"e{i + 1}" for i in range(dim)]
        if len(self.labels) != dim:
            raise ValueError("label count mismatch")
        rows = [[] for _ in range(dim)]
        for (i, j, k), v in constants.items():
            i, j, k = int(i), int(j), int(k)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"structure constant index {(i, j, k)} out of range")
            v = _int_or_fraction(v)
            if v:
                rows[i].append((j, k, v))
        self.by_i = tuple(tuple(sorted(row)) for row in rows)
        _float_terms(self.coo, "the bracket")  # only for its range check

    @classmethod
    def from_brackets(cls, dim, brackets, labels=None):
        """Build from a dict {(i, j): {k: coeff}} with i < j, 0-based.

        Antisymmetric counterparts are filled in automatically; a later
        entry overwrites an earlier one at the same position.
        """
        entries = {}
        for (i, j), comps in brackets.items():
            for k, v in comps.items():
                v = _int_or_fraction(v)
                entries[(i, j, k)] = v
                entries[(j, i, k)] = -v
        return cls(dim, entries, labels)

    @property
    def coo(self):
        """The nonzero constants as (i, j, k, c), sorted by (i, j, k)."""
        return [(i, j, k, c) for i, row in enumerate(self.by_i)
                for j, k, c in row]

    @property
    def constants(self):
        """Dense (n, n, n) object array of the exact constants, built on
        each access."""
        n = self.dim
        c = np.empty((n, n, n), dtype=object)
        c[:] = 0
        for i, j, k, v in self.coo:
            c[i, j, k] = v
        return c

    def brackets(self, a, b=None):
        """Every bracket [A_r, B_s] of a column of ``a`` with one of ``b``.

        [A_r, B_s]_k = sum_{i,j} A[i, r] B[j, s] c[i, j, k], summed over the
        nonzero constants and the nonzeros of the exact matrices ``a`` and
        ``b`` only; without ``b``, ``a`` with itself, pairs r < s only.
        Returns {(r, s): {k: value}} of the nonzero normalised coordinates;
        a pair whose bracket is 0 is left out.
        """
        a_rows = exactla.row_nonzeros(a)  # i -> [(r, A[i, r])]
        b_rows = a_rows if b is None else exactla.row_nonzeros(b)
        acc = defaultdict(lambda: defaultdict(int))  # (r, s) -> {k: value}
        for xs, row in zip(a_rows, self.by_i):
            if not xs:
                continue
            for j, k, c in row:
                for s, y in b_rows[j]:
                    yc = y * c
                    for r, x in xs:
                        if b is not None or r < s:
                            acc[r, s][k] += x * yc
        return {key: nz for key, vec in acc.items()
                if (nz := {k: _int_or_fraction(v) for k, v in vec.items() if v})}

    def _column(self, v):
        """A length-n vector as an exact (n, 1) matrix."""
        col = fzeros(self.dim, 1)
        for i, x in _nonzero_items(v, self.dim):
            col[i, 0] = x
        return col

    def bracket_exact(self, a, b):
        """[a, b] exactly, as ``brackets`` of the two vectors."""
        vec = self.brackets(self._column(a), self._column(b)).get((0, 0), {})
        return _object_vec([vec.get(k, 0) for k in range(self.dim)])

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
        # c1 c2 is a term of the coefficient of e_k in [[e_i, e_j], e_l].
        # For i < j < l the Jacobi sum takes the rotations (i, j, l),
        # (l, i, j) and (j, l, i): each term lands on its increasing triple.
        total = defaultdict(int)  # (i, j, l, k) with i < j < l -> Jacobi sum
        for i, j, m, c1 in self.coo:
            for l, k, c2 in self.by_i[m]:
                if i < j < l:
                    total[i, j, l, k] += c1 * c2
                elif l < i < j:
                    total[l, i, j, k] += c1 * c2
                elif j < l < i:
                    total[j, l, i, k] += c1 * c2
        for i, j, l, k in sorted(key for key, v in total.items() if v):
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

    def __repr__(self):
        return "valid" if self.ok else "; ".join(self.violations)


class Subspace:
    """Subspace of R^n spanned by the columns of ``basis`` (exact).

    ``basis`` is held as a copy with normalised entries (ints where
    integral, see ``exactla``); ``canonical`` is its reduced column echelon
    form, which two equal subspaces share. Column j of ``canonical`` is 1
    at its pivot row p_j and 0 at the other pivot rows, so v lies in the
    subspace exactly when v = sum_j v[p_j] canonical[:, j]: membership is
    read off the canonical form, over the nonzeros of v, with no solve.
    """

    def __init__(self, ambient_dim, basis):
        if basis.size == 0:
            basis = fzeros(ambient_dim, 0)
        if basis.shape[0] != ambient_dim:
            raise ValueError("basis rows must match ambient dimension")
        basis = fmat(basis)
        self._init(ambient_dim, _columns(basis))
        if self.dim != basis.shape[1]:
            raise ValueError("basis columns are linearly dependent")
        self.basis = basis

    def _init(self, ambient_dim, vectors):
        """Reduce the sparse ``vectors`` once, by ``exactla._reduce``, to the
        canonical form of their span, which is also taken as the basis."""
        reduced = exactla._reduce(vectors)
        # (p_j, canonical column j as {row: value}), in increasing p_j
        self._pivot_columns = [(p, {p: 1, **reduced[p]}) for p in sorted(reduced)]
        canonical = fzeros(ambient_dim, len(reduced))
        for j, (_, col) in enumerate(self._pivot_columns):
            for i, v in col.items():
                canonical[i, j] = v
        self.ambient_dim = ambient_dim
        self.basis = self.canonical = canonical

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        return cls(ambient_dim, fmat(vectors).T)

    @classmethod
    def span(cls, ambient_dim, vectors):
        """Span of sparse {index: value} vectors, dependent ones discarded.

        The basis is the canonical form itself, computed once.
        """
        out = cls.__new__(cls)
        out._init(ambient_dim, vectors)
        return out

    @classmethod
    def span_of_columns(cls, ambient_dim, cols):
        """Span of the columns of an exact matrix, as ``span``."""
        if cols.shape[0] != ambient_dim:
            raise ValueError("basis rows must match ambient dimension")
        return cls.span(ambient_dim, _columns(cols))

    @property
    def dim(self):
        return self.basis.shape[1]

    def basis_float(self):
        return _float_matrix(self.basis, "a subspace basis")

    def contains_all(self, vectors):
        """Whether every sparse vector v, a {index: value} dict of its
        nonzeros, lies in the subspace: v = sum_j v[p_j] canonical[:, j]."""
        for v in vectors:
            rebuilt = defaultdict(int)
            for p, col in self._pivot_columns:
                for i, c in col.items() if p in v else ():
                    rebuilt[i] += v[p] * c
            if {i: w for i, w in rebuilt.items() if w} != v:
                return False
        return True

    def contains_subspace(self, other):
        return self.contains_all(col for _, col in other._pivot_columns)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self._pivot_columns == other._pivot_columns)

    def __hash__(self):
        return hash((self.ambient_dim, self.canonical.shape))

    def __repr__(self):
        return f"Subspace(dim={self.dim} in R^{self.ambient_dim})"


def subspace_sum(ambient_dim, subspaces):
    return Subspace.span(ambient_dim, [col for s in subspaces
                                       for _, col in s._pivot_columns])


def lie_closure(algebra, seed):
    """Smallest subalgebra containing the Subspace ``seed``."""
    current = seed
    while True:
        nxt = Subspace.span(algebra.dim, [
            *_columns(current.basis), *algebra.brackets(current.basis).values()])
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
    verdict at the evidence level. ``grading`` (the Carnot layers of m)
    and ``kappa`` (the rate of a rotating vertical flow) are derived from
    the bracket, each None where it does not exist.

    The vertical field f_j(p) = p([dH(p), e_j]) = sum coef p_a p_k is
    ``vertical_terms_exact``, its nonzero (j, a, k, coef) with a <= k,
    sorted. On k-circ, in m*-coordinates a (p = m_dual a, a_r = p(m_r)),
    those terms paired with m_r give ``m_field_exact``, the motion adot_r =
    p([dH(p), m_r]) as the nonzero (r, u, t, c) with u <= t, sorted, c the
    coefficient of a_u a_t; paired with k they vanish (``validate``).
    ``m_action_exact`` is the k action on m, the nonzero (b, r, t, c),
    sorted, c the coefficient of a_t in p([Z_b, m_r]). Float mirrors, all
    built here: ``m_dual``, ``vertical_terms`` (float coefficients) and the
    dense read-only ``m_action`` R of shape (dk, dm, dm), R[b, r, t] = c; a
    coefficient, or an entry of the metric, its inverse, Dmat or m_dual,
    that overflows a float is a ValueError. ``m_dual_r`` is the
    upper-triangular R of m_dual = QR with a positive diagonal, so that
    |R w| = |m_dual w|: the g-coordinate norm of a covector on k-circ read
    off its m*-coordinates w, whatever the scale of the m basis.
    """

    def __init__(self, algebra, k, m, delta, metric, representation=None,
                 isotropy_exact=True, isotropy_connected=True):
        self.algebra = algebra
        self.k = k
        self.m = m
        self.delta = delta
        self.metric = fmat(metric)
        try:
            self.representation = None if representation is None else [
                np.asarray(r, dtype=float) for r in representation]
        except (TypeError, ValueError, OverflowError):
            raise ValueError("representation must be a list of matrices") from None
        self.isotropy_exact = isotropy_exact
        self.isotropy_connected = isotropy_connected

        if self.metric.shape != (delta.dim, delta.dim):
            raise ValueError("metric shape must match delta dimension")
        if (self.metric != self.metric.T).any():
            raise ValueError("metric is not symmetric")
        mf = _float_matrix(self.metric, "the metric")
        try:
            np.linalg.cholesky(mf)
        except np.linalg.LinAlgError:
            raise ValueError("metric is not positive definite") from None
        self.metric_float = mf
        self.metric_inv = exactla.inverse(self.metric)
        self.metric_inv_float = _float_matrix(self.metric_inv,
                                              "the inverse metric")

        # dH(p) = Dmat @ p with Dmat = delta B^{-1} delta^T.
        db = delta.basis
        self.dmat_exact = exactla.matmul(
            exactla.matmul(db, self.metric_inv), db.T
        )
        self.dmat = _float_matrix(self.dmat_exact, "the map p -> dH(p)")
        self.k_basis_float = k.basis_float()
        self.m_basis_float = m.basis_float()
        self.delta_basis_float = delta.basis_float()

        # [X_a, e_j]_k (X_a column a) is the coefficient of p_k in p([X_a, e_j])
        merged = defaultdict(int)  # (j, a, k) -> coefficient, a <= k
        for (a, j), vec in algebra.brackets(
                self.dmat_exact, exactla.feye(algebra.dim)).items():
            for kk, v in vec.items():
                merged[j, min(a, kk), max(a, kk)] += v
        self.vertical_terms_exact = tuple(sorted(
            (*key, _int_or_fraction(v)) for key, v in merged.items() if v))

        rep = self.validate()
        if not rep.ok:
            raise ValueError(f"invalid structure: {rep}")
        self.grading = self._carnot_layers()
        self.m_field_exact = tuple(sorted(
            (*key, c) for key, c in self._field_on_k_circ(m.basis).items()))
        # c of (b, r, t, c) is the m_t-coordinate of [Z_b, m_r] (reductive).
        dual = exactla.row_nonzeros(self.m_dual_exact)  # i -> [(t, m_dual[i, t])]
        action = defaultdict(int)  # (b, r, t) -> coefficient
        for (b, r), vec in algebra.brackets(k.basis, m.basis).items():
            for i, v in vec.items():
                for t, y in dual[i]:
                    action[b, r, t] += v * y
        self.m_action_exact = tuple(sorted(
            (*key, _int_or_fraction(c)) for key, c in action.items() if c))
        self.vertical_terms = _float_terms(self.vertical_terms_exact,
                                           "the vertical field")
        self.m_action = np.zeros((k.dim, m.dim, m.dim))
        for b, r, t, v in _float_terms(self.m_action_exact, "the k action on m"):
            self.m_action[b, r, t] = v
        _read_only(self.m_action)
        self.m_dual = _read_only(_float_matrix(self.m_dual_exact, "m_dual"))
        # m_dual = QR; a positive diagonal makes R unique (I on an
        # orthonormal m_dual).
        r = np.linalg.qr(self.m_dual, mode="r")
        self.m_dual_r = _read_only(r * np.where(np.diag(r) < 0, -1.0, 1.0)[:, None])

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

    def _field_on_k_circ(self, columns):
        """p([dH(p), X_r]) = sum_j X[j, r] f_j(p) at p = m_dual a, per column
        X_r of ``columns``: {(r, u, t): the coefficient of a_u a_t}, u <= t,
        nonzeros only. Each f_j needed is substituted once, off its terms."""
        cols = exactla.row_nonzeros(columns)  # j -> [(r, X[j, r])]
        dual = exactla.row_nonzeros(self.m_dual_exact)  # i -> [(t, m_dual[i, t])]
        forms = defaultdict(lambda: defaultdict(int))  # j -> {(u, t): c}
        for j, a, k, c in self.vertical_terms_exact:
            for u, x in dual[a] if cols[j] else ():
                for t, y in dual[k]:
                    forms[j][min(u, t), max(u, t)] += c * x * y
        merged = defaultdict(int)  # (r, u, t) -> coefficient
        for j, form in forms.items():
            for r, x in cols[j]:
                for (u, t), c in form.items():
                    merged[r, u, t] += x * c
        return {key: _int_or_fraction(v) for key, v in merged.items() if v}

    @cached_property
    def kappa(self):
        """The exact rate kappa of the closed-form flow, or None.

        kappa when the field is adot_0 = -kappa a_1 a_2, adot_1 =
        kappa a_0 a_2, every other a_r constant: (a_0, a_1) rotates by the
        angle kappa a_2 t. 0 when the field is zero; None otherwise.
        """
        field = self.m_field_exact
        if not field:
            return 0
        if [t[:3] for t in field] == [(0, 1, 2), (1, 0, 2)] \
                and field[0][3] == -field[1][3]:
            return field[1][3]
        return None

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

        if k.dim + m.dim != n or subspace_sum(n, [k, m]).dim != n:
            report.add("g is not the direct sum of k and m")
        # Every ordered pair, a == b included: antisymmetry is not checked
        # here. Each kind of violation is reported once.
        if not k.contains_all(g.brackets(k.basis, k.basis).values()):
            report.add("k is not a subalgebra")
        if not m.contains_all(g.brackets(k.basis, m.basis).values()):
            report.add("decomposition is not reductive: [k, m] not in m")
        if not m.contains_subspace(delta):
            report.add("delta is not contained in m")
        # A G-invariant structure on G/K is an Ad(K)-invariant one on m:
        # p([dH(p), Z_c]) = 0 on k-circ, whose m_dual needs the checks above.
        if report.ok and self._field_on_k_circ(k.basis):
            report.add("the metric on delta is not invariant under k")
        seed = subspace_sum(n, [delta, k])
        if lie_closure(g, seed).dim != n:
            report.add("delta (with k) is not bracket generating")

        if self.representation is not None:
            report.violations += self._validate_representation().violations
        return report

    def _carnot_layers(self):
        """V_1 = delta, V_{i+1} = [V_1, V_i] up to the first layer that is 0,
        when the layers lie in m and m is their direct sum; else None. The
        loop ends once a layer leaves m or the dims pass dim m (so(3))."""
        n, dm = self.dim, self.m.dim
        layers = [self.delta]
        while sum(v.dim for v in layers) <= dm and self.m.contains_subspace(layers[-1]):
            nxt = Subspace.span(n, self.algebra.brackets(
                self.delta.basis, layers[-1].basis).values())
            if nxt.dim == 0:
                return layers if subspace_sum(n, layers).dim == dm else None
            layers.append(nxt)
        return None

    def _validate_representation(self):
        report = ValidationReport()
        g = self.algebra
        rho = self.representation
        if len(rho) != g.dim:
            report.add("representation must provide one matrix per basis vector")
            return report
        r = rho[0].shape[0] if rho[0].ndim else 0
        if any(m.shape != (r, r) for m in rho) or not np.isfinite(rho).all():
            report.add("representation matrices must be finite, square and "
                       "of one shape")
            return report
        # A product of finite entries can overflow: the NaN fails the test.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, row in enumerate(g.by_i):
                for j in range(i + 1, g.dim):
                    comm = rho[i] @ rho[j] - rho[j] @ rho[i]
                    target = sum(float(c) * rho[k] for jj, k, c in row if jj == j)
                    if not np.max(np.abs(comm - target)) <= 1e-10:
                        report.add(f"representation not bracket-compatible at ({i + 1},{j + 1})")
        return report

    def dH(self, p):
        """B^{-1}(p|_delta) in g-coordinates, supported on delta."""
        p = np.asarray(p, dtype=float)
        return self.dmat @ p

    def hamiltonian_value(self, p):
        p = np.asarray(p, dtype=float)
        return 0.5 * float(p @ self.dmat @ p)

    def annihilates_k(self, p):
        """Whether p is finite and pairs with k to at most 1e-9 (1 + max|p|):
        the one rule for a momentum on the annihilator of k."""
        p = np.asarray(p, dtype=float)
        bound = 1e-9 * (1.0 + np.max(np.abs(p)))  # finite iff p is
        return bool(np.isfinite(bound)
                    and (np.abs(self.k_basis_float.T @ p) <= bound).all())
