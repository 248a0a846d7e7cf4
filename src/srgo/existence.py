"""Constructive existence of homogeneous geodesics.

Two constructions, selected by the Killing form: when the Killing kernel
equals the reductive complement, a momentum annihilating the derived
algebra of a solvable transitive subalgebra works; otherwise an
eigenvector of the comparison operator between the metric extension and
the Killing form provides one, after factoring out the radical.
Every returned momentum carries a homogeneity certificate.
"""

from dataclasses import dataclass, field

import numpy as np

from . import exactla
from .algebra import Subspace, subspace_sum
from .hamiltonian import Momentum, vertical_field
from .homogeneity import HOMOGENEOUS, check_homogeneous

ROUTE_SOLVABLE = "solvable"
ROUTE_EIGENVECTOR = "eigenvector"


@dataclass
class ExistenceResult:
    success: bool
    route: str
    momentum: np.ndarray | None
    certificate: object | None
    steps: list = field(default_factory=list)

    def to_dict(self):
        return {
            "success": self.success,
            "route": self.route,
            "momentum": None if self.momentum is None
            else [float(x) for x in self.momentum],
            "certificate": None if self.certificate is None
            else self.certificate.to_dict(),
            "steps": self.steps,
        }


@dataclass
class Factorization:
    structure: object
    projection: np.ndarray  # exact (n_hat, n)
    ideal: Subspace

    def lift(self, p_hat):
        """Pull a quotient momentum back; it annihilates the ideal."""
        proj_f = exactla.to_float(self.projection)
        return proj_f.T @ np.asarray(p_hat, dtype=float)


def _derived_subspace(algebra, space):
    """Span of all brackets of basis vectors of ``space``."""
    return Subspace.span(algebra.dim, algebra.brackets(space.basis).values())


def _derived_series(algebra, space):
    """[s, [s, s], [[s, s], [s, s]], ...] for s = ``space``, up to the first
    term that is 0 or no smaller than the one before it; a subalgebra s is
    solvable exactly when the last term is 0."""
    series = [space, _derived_subspace(algebra, space)]
    while 0 < series[-1].dim < series[-2].dim:
        series.append(_derived_subspace(algebra, series[-1]))
    return series


def is_solvable(algebra, space=None):
    """Exact derived-series test for a subalgebra (default: all of g)."""
    if space is None:
        space = Subspace(algebra.dim, exactla.feye(algebra.dim))
    return _derived_series(algebra, space)[-1].dim == 0


def radical(algebra):
    """Solvable radical: the Killing-orthogonal complement of [g, g]."""
    derived = _derived_subspace(
        algebra, Subspace(algebra.dim, exactla.feye(algebra.dim))
    )
    if derived.dim == 0:
        return Subspace(algebra.dim, exactla.feye(algebra.dim))
    mat = exactla.matmul(derived.basis.T, algebra.killing_form())
    return Subspace(algebra.dim, exactla.nullspace(mat))


def _intersection(a: Subspace, b: Subspace):
    """Exact intersection of two subspaces."""
    stacked = np.concatenate([a.basis, -b.basis], axis=1)
    null = exactla.nullspace(stacked)
    cols = exactla.matmul(a.basis, null[: a.dim])
    return Subspace.span_of_columns(a.ambient_dim, cols)


def _is_ideal(algebra, space):
    return space.contains_all(
        algebra.brackets(exactla.feye(algebra.dim), space.basis).values())


def _standard_completion(subspace):
    """The i whose e_i complete ``subspace`` to R^n, picked greedily in
    index order: e_i is skipped exactly when some vector of the subspace
    has its last nonzero entry at i, that is when n - 1 - i is a pivot of
    the subspace's basis with its coordinates reversed."""
    n = subspace.ambient_dim
    lead = exactla._echelon({n - 1 - c: v for c, v in col}
                            for col in exactla.row_nonzeros(subspace.basis.T))
    return [i for i in range(n) if n - 1 - i not in lead]


def factorize_by_ideal(structure, ideal: Subspace) -> Factorization:
    """Quotient structure on g / i with the inherited metric.

    Requires an exact ideal contained in m that does not contain delta;
    the quotient basis is a standard-vector completion, so the projection
    keeps plain coordinates wherever possible.
    """
    from .algebra import HomogeneousSRStructure, LieAlgebra

    s = structure
    g = s.algebra
    n = g.dim
    if ideal.dim == 0:
        return Factorization(s, exactla.feye(n), ideal)
    if not _is_ideal(g, ideal):
        raise ValueError("subspace is not an ideal")
    if not s.m.contains_subspace(ideal):
        raise ValueError("ideal must sit inside m")
    if ideal.contains_subspace(s.delta):
        raise ValueError("delta collapses in the quotient")

    comp_idx = _standard_completion(ideal)
    n_hat = len(comp_idx)
    comp = exactla.fzeros(n, n_hat)
    for a, i in enumerate(comp_idx):
        comp[i, a] = 1
    full = np.concatenate([ideal.basis, comp], axis=1)
    proj = exactla.inverse(full)[ideal.dim:]  # (n_hat, n): quotient coords

    brackets = {}
    for key, vec in g.brackets(comp).items():
        w = exactla.matvec(proj, [vec.get(k, 0) for k in range(n)])
        comps = {k: w[k] for k in range(n_hat) if w[k]}
        if comps:
            brackets[key] = comps
    labels = [g.labels[i] for i in comp_idx]
    g_hat = LieAlgebra.from_brackets(n_hat, brackets, labels)

    k_hat = Subspace.span_of_columns(n_hat, exactla.matmul(proj, s.k.basis))
    m_hat = Subspace.span_of_columns(n_hat, exactla.matmul(proj, s.m.basis))

    # delta part surviving the quotient: B-orthogonal complement of
    # delta cap i inside delta, expressed in delta-coordinates.
    cap = _intersection(s.delta, ideal)
    if cap.dim:
        cap_coords = exactla.solve(s.delta.basis, cap.basis)
        w_coords = exactla.nullspace(
            exactla.matmul(cap_coords.T, s.metric)
        )
    else:
        w_coords = exactla.feye(s.delta.dim)
    projected = exactla.matmul(proj, exactla.matmul(s.delta.basis, w_coords))
    delta_hat = Subspace.span_of_columns(n_hat, projected)
    # delta_hat's basis is the canonical form of the projected columns, not
    # those columns: the metric is carried into it by the t with
    # projected t = delta_hat.basis.
    w_coords = exactla.matmul(w_coords,
                              exactla.solve(projected, delta_hat.basis))
    metric_hat = exactla.matmul(exactla.matmul(w_coords.T, s.metric), w_coords)

    s_hat = HomogeneousSRStructure(g_hat, k_hat, m_hat, delta_hat, metric_hat)
    return Factorization(s_hat, proj, ideal)


def _normalize_sign(v):
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


def _solvable_route(structure, steps):
    s = structure
    g = s.algebra
    n = g.dim
    # Transitive solvable subalgebra s: m itself when it is one, else g.
    series = _derived_series(g, s.m)
    if s.m.contains_subspace(series[1]):
        steps.append("transitive solvable subalgebra: the complement m")
    else:
        series = _derived_series(g, Subspace(n, exactla.feye(n)))
        steps.append("transitive solvable subalgebra: g itself")
    if series[-1].dim:
        steps.append("selected subalgebra is not solvable")
        return None
    derived = series[1]
    blocked = subspace_sum(n, [s.k, derived])
    if blocked.dim == n:
        steps.append("annihilator of k + [s, s] is trivial")
        return None
    ann = exactla.nullspace(blocked.basis.T)
    steps.append(
        f"momenta annihilating k and [s, s]: {ann.shape[1]}-dimensional"
    )
    best = None
    for j in range(ann.shape[1]):
        p = np.array([float(v) for v in ann[:, j]])
        if np.linalg.norm(s.dH(p)) > 1e-9:
            best = p
            break
    if best is None:
        best = np.array([float(v) for v in ann[:, 0]])
        steps.append("no candidate with nonzero horizontal part; using first")
    best = _normalize_sign(best / np.linalg.norm(best))
    return best


def _khat_extension(structure, steps):
    """Metric extension and comparison operator for the eigenvector route.

    Returns (bhat, gamma_float) with bhat the full bilinear form whose
    restriction to delta is B, built on the splitting by the
    Killing-orthogonal complement of Gamma.
    """
    s = structure
    g = s.algebra
    n = g.dim
    kf = g.killing_form()
    # Degenerate directions of K inside delta, in delta-coordinates.
    gram = exactla.matmul(exactla.matmul(s.delta.basis.T, kf), s.delta.basis)
    degenerate = exactla.nullspace(gram)
    if degenerate.shape[1]:
        gamma_coords = exactla.nullspace(
            exactla.matmul(degenerate.T, s.metric)
        )
        steps.append(
            f"K degenerates on a {degenerate.shape[1]}-dimensional part of delta"
        )
    else:
        gamma_coords = exactla.feye(s.delta.dim)
    gamma = exactla.matmul(s.delta.basis, gamma_coords)
    if gamma.shape[1] == 0:
        return None, None
    # Killing-orthogonal complement of Gamma in g.
    comp = exactla.nullspace(exactla.matmul(gamma.T, kf))
    try:
        inv = exactla.inverse(np.concatenate([gamma, comp], axis=1))
    except ValueError:  # not square, or singular
        steps.append("Gamma meets its Killing complement; extension fails")
        return None, None
    b_gamma = exactla.matmul(
        exactla.matmul(gamma_coords.T, s.metric), gamma_coords
    )
    blocks = exactla.fzeros(n, n)
    dg = gamma.shape[1]
    for i in range(dg):
        for j in range(dg):
            blocks[i, j] = b_gamma[i, j]
    for i in range(dg, n):
        blocks[i, i] = 1
    bhat = exactla.matmul(exactla.matmul(inv.T, blocks), inv)
    return exactla.to_float(bhat), exactla.to_float(gamma)


def _eigen_route(structure, steps, killing_kernel):
    s = structure
    g = s.algebra
    rad = radical(g)
    if 0 < rad.dim < g.dim:
        ideal = _intersection(rad, s.m)
        if ideal.dim and not ideal.contains_subspace(s.delta) \
                and _is_ideal(g, ideal):
            steps.append(
                f"factoring out the {ideal.dim}-dimensional radical part of m"
            )
            fact = factorize_by_ideal(s, ideal)
            inner = construct_homogeneous_geodesic(fact.structure)
            steps.extend("  " + t for t in inner.steps)
            if not inner.success:
                return None
            steps.append("lifting the quotient momentum")
            return fact.lift(inner.momentum)
    if killing_kernel.dim:
        steps.append(f"the Killing form is degenerate (kernel of dimension "
                     f"{killing_kernel.dim}): K^(-1) B-hat does not exist")
        return None
    bhat, gamma = _khat_extension(s, steps)
    if bhat is None:
        return None
    kf = g.killing_form_float()
    a_op = np.linalg.solve(kf, bhat)
    # Restrict A to Gamma: A Gamma = Gamma M up to invariance residual.
    m_mat, *_ = np.linalg.lstsq(gamma, a_op @ gamma, rcond=None)
    resid = np.max(np.abs(a_op @ gamma - gamma @ m_mat))
    if resid > 1e-9:
        steps.append(f"Gamma is not invariant under the comparison operator "
                     f"(residual {resid:.2e})")
        return None
    vals, vecs = np.linalg.eig(m_mat)
    order = np.argsort(-np.abs(vals))
    for idx in order:
        lam, v = vals[idx], vecs[:, idx]
        if abs(lam) < 1e-12 or abs(lam.imag) > 1e-10 \
                or np.max(np.abs(v.imag)) > 1e-10:
            continue
        x = gamma @ v.real
        x = _normalize_sign(x / np.linalg.norm(x))
        steps.append(
            f"eigenvector of K^(-1) B-hat with eigenvalue {lam.real:.6g}"
        )
        p = bhat @ x
        if s.k.dim and np.max(np.abs(s.k_basis_float.T @ p)) > 1e-9:
            steps.append("candidate momentum fails to annihilate k; skipping")
            continue
        return p
    steps.append("no usable real eigenvector")
    return None


def construct_homogeneous_geodesic(structure) -> ExistenceResult:
    """Produce a momentum generating a homogeneous geodesic, with proof.

    The solvable construction applies when the Killing kernel is exactly
    the complement m; otherwise the eigenvector construction runs, passing
    through the quotient by the radical when there is one. It fails, with a
    step that says so, where the Killing form is still degenerate.
    """
    s = structure
    steps = []
    ker = s.algebra.killing_kernel()
    if ker == s.m:
        steps.append("Killing kernel equals m: solvable construction")
        route = ROUTE_SOLVABLE
        p = _solvable_route(s, steps)
    else:
        steps.append("Killing form alive on delta: eigenvector construction")
        route = ROUTE_EIGENVECTOR
        p = _eigen_route(s, steps, ker)
    if p is None:
        return ExistenceResult(False, route, None, None, steps)
    cert = check_homogeneous(Momentum(p, s))
    ok = cert.verdict == HOMOGENEOUS
    steps.append(
        "certificate: homogeneous" if ok
        else f"certificate failed ({cert.verdict}, residual {cert.residual:.2e})"
    )
    return ExistenceResult(ok, route, p, cert, steps)


def verify_eigenconstruction(structure, result: ExistenceResult):
    """Independent numeric audit of a constructed momentum."""
    p = Momentum(result.momentum, structure)
    out = {
        "annihilates_k": bool(structure.annihilates_k(p.coords)),
        "hamiltonian": float(structure.hamiltonian_value(p.coords)),
        "vertical_residual": float(np.max(np.abs(vertical_field(p)))),
    }
    cert = check_homogeneous(p)
    out["homogeneous"] = cert.verdict == HOMOGENEOUS
    out["residual"] = cert.residual
    return out
