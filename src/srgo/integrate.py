"""Integration of the vertical momentum system and horizontal lifts.

Fixed-step classical RK4 throughout (reproducible diagnostics). The
vertical loop runs in kernels.py, as generated Python-float code, one
momentum at a time. The work done per sample afterwards (H and Casimirs,
the lift's propagators, CSV rows) runs on whole arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import Momentum, vertical_field_coords
from .kernels import rk4_stage_points, vertical_form, vertical_rk4

# Rows per block of CSV text, and steps per block of lift propagators.
CSV_BLOCK_ROWS = 2048
LIFT_BLOCK_STEPS = 1024


@dataclass
class Trajectory:
    """Sampled solution of the vertical (and optionally horizontal) system."""

    structure: "HomogeneousSRStructure"  # noqa: F821
    times: np.ndarray
    momenta: np.ndarray  # (N, n)
    group_points: np.ndarray | None = None  # (N, r, r)
    diagnostics: dict = field(default_factory=dict)
    aborted: bool = False

    @property
    def n_samples(self):
        return self.times.shape[0]

    def momentum(self, i):
        return Momentum(self.momenta[i], self.structure)

    def h_drift(self):
        h = self.diagnostics["H"]
        return float(np.max(np.abs(h - h[0])))

    def casimir_drifts(self):
        return {
            name: float(np.max(np.abs(vals - vals[0])))
            for name, vals in self.diagnostics.items()
            if name != "H"
        }

    def csv_chunks(self):
        """CSV export in pieces: the header line, then blocks of rows.

        Columns are t, p_1..p_n, H, casimirs, then flattened group points;
        every value is printed with %.17g.
        """
        n = self.momenta.shape[1]
        names = [k for k in self.diagnostics if k != "H"]
        cols = ["t"] + [f"p_{i + 1}" for i in range(n)] + ["H"] + names
        parts = [self.times[:, None], self.momenta,
                 self.diagnostics["H"][:, None]]
        parts += [self.diagnostics[k][:, None] for k in names]
        if self.group_points is not None:
            r = self.group_points.shape[1]
            cols += [f"g_{i + 1}{j + 1}" for i in range(r) for j in range(r)]
            parts.append(self.group_points.reshape(self.n_samples, r * r))
        yield ",".join(cols) + "\n"
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        for start in range(0, self.n_samples, CSV_BLOCK_ROWS):
            block = np.concatenate(
                [a[start:start + CSV_BLOCK_ROWS] for a in parts], axis=1)
            yield (row * len(block)) % tuple(block.ravel().tolist())

    def to_csv_text(self):
        return "".join(self.csv_chunks())

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.writelines(self.csv_chunks())


def _nsteps(T, step):
    if not (T > 0 and 0 < step <= T):
        raise ValueError("need T > 0 and 0 < step <= T")
    if not np.isfinite(T / step):
        raise ValueError("need T and T / step finite")
    return int(round(T / step))


def _trajectory(s, samples, last, step, casimirs):
    """The Trajectory of kernel output ``samples`` valid up to ``last``."""
    momenta = samples[: last + 1]
    times = step * np.arange(last + 1)
    diagnostics = {"H": 0.5 * np.einsum("ti,ij,tj->t", momenta, s.dmat, momenta)}
    for name, poly in (casimirs or {}).items():
        diagnostics[name] = poly(momenta)
    return Trajectory(s, times, momenta, diagnostics=diagnostics,
                      aborted=last < len(samples) - 1)


def integrate_vertical(p0: Momentum, T, step, casimirs=None) -> Trajectory:
    """Integrate the momentum equation over [0, T] with fixed step RK4.

    ``casimirs`` is an optional mapping name -> Polynomial (on g*) recorded
    per sample alongside H. On a non-finite state the trajectory is
    truncated at the last valid sample and flagged aborted.
    """
    nsteps = _nsteps(T, step)
    s = p0.structure
    samples, last = vertical_rk4(
        s.algebra.c_float, s.dmat, p0.coords, step, nsteps
    )
    return _trajectory(s, samples, last, step, casimirs)


def integrate_vertical_batch(structure, momenta, T, step, casimirs=None):
    """integrate_vertical for each row of ``momenta`` (shape (B, n));
    returns B trajectories. Every row is checked before any is integrated."""
    _nsteps(T, step)
    rows = [Momentum(row, structure) for row in momenta]
    return [integrate_vertical(p, T, step, casimirs) for p in rows]


def closed_form_axisymmetric(p0: Momentum, t, kappa) -> Momentum:
    """Exact vertical solution for the axisymmetric models.

    Rotates the (p1, p2) pair by the angle kappa * p3 * t and keeps the
    remaining coordinates; kappa is the per-model constant calibrated
    against the integrator (the structure's ``kappa``).
    """
    s = p0.structure
    if s.kappa is None:
        raise ValueError("closed form only applies to the axisymmetric models")
    p = p0.coords.copy()
    theta = kappa * p[2] * t
    c, sn = np.cos(theta), np.sin(theta)
    p1, p2 = p[0], p[1]
    p[0] = c * p1 - sn * p2
    p[1] = sn * p1 + c * p2
    return Momentum(p, s)


def integrate_horizontal(traj: Trajectory) -> Trajectory:
    """Fill group_points by solving G' = G rho(dH(p(t))), G(0) = I.

    Each sample interval is one classical RK4 step of the joint system
    (p, G): the stage values of p are recomputed from the stored sample with
    the vertical field, so the lift is fourth order like the vertical flow.
    An RK4 step is linear in G, G_{i+1} = G_i Phi_i; the propagators Phi_i
    are built for blocks of LIFT_BLOCK_STEPS steps at once, and only the
    products G_i Phi_i run one step at a time.
    """
    s = traj.structure
    if s.representation is None:
        raise ValueError("structure carries no matrix representation")
    rho = np.stack(s.representation)
    n, r = rho.shape[0], rho.shape[1]
    q = vertical_form(s.algebra.c_float, s.dmat)
    lift = s.dmat.T @ rho.reshape(n, r * r)  # p -> rho(dH(p)), flattened
    nsamp = traj.n_samples
    gpts = np.empty((nsamp, r, r))
    gpts[0] = np.eye(r)
    for start in range(0, nsamp - 1, LIFT_BLOCK_STEPS):
        stop = min(start + LIFT_BLOCK_STEPS, nsamp - 1)
        dt = np.diff(traj.times[start:stop + 1])[:, None]
        a1, a2, a3, a4 = (
            (x @ lift).reshape(-1, r, r)
            for x in rk4_stage_points(q, traj.momenta[start:stop], dt)
        )
        h = dt[:, :, None]
        # G-stages k_i = G K_i: K1 = a1, K2 = a2 + h/2 K1 a2, ...
        k2 = a2 + 0.5 * h * (a1 @ a2)
        k3 = a3 + 0.5 * h * (k2 @ a3)
        k4 = a4 + h * (k3 @ a4)
        phi = np.eye(r) + h / 6.0 * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
        for i in range(start, stop):
            np.matmul(gpts[i], phi[i - start], out=gpts[i + 1])
    return Trajectory(
        s, traj.times, traj.momenta, group_points=gpts,
        diagnostics=traj.diagnostics, aborted=traj.aborted,
    )


def sample_momenta(structure, nsamples, rng):
    """Draw momenta on the level set H = 1/2 inside the annihilator of k.

    Rejection-free: a unit Gaussian direction fixes the delta-pairings
    through the metric square root (pinning H to 1/2 exactly), the rest of
    the m-dual block is Gaussian fill, the k-pairings are identically zero
    by construction in the dual of the adapted basis. ``nsamples`` must be
    positive. All rows are drawn and mapped at once; the result is bitwise
    the one that drawing and mapping row by row gives.
    """
    if nsamples <= 0:
        raise ValueError("samples must be positive")
    s = structure
    dm = s.m.dim
    # delta = m_basis @ E; pairings with delta are E^T a for m*-coords a.
    e_coef, *_ = np.linalg.lstsq(s.m_basis_float, s.delta_basis_float, rcond=None)
    rank = e_coef.shape[1]
    gram_inv = np.linalg.inv(e_coef.T @ e_coef)
    # fixed basis of ker(E^T): fill directions that leave H untouched
    _, sv, vt = np.linalg.svd(e_coef.T)
    null_dim = dm - rank
    fill = vt[rank:].T
    sqrt_b = np.linalg.cholesky(s.metric_float)
    # One draw holds each row's rank + null_dim normals in the order that
    # per-row draws of rank, then null_dim, take them. The norm is
    # sqrt(u^T u) through matmul, bitwise the per-row np.linalg.norm;
    # np.linalg.norm along an axis sums differently, in the last bit.
    x = rng.standard_normal((nsamples, rank + null_dim))[:, :, None]
    u = x[:, :rank]
    u /= np.sqrt(np.swapaxes(u, 1, 2) @ u)
    target = sqrt_b @ u  # delta-pairings with (1/2)|B^{-1/2} target|^2 = 1/2
    a = e_coef @ (gram_inv @ target)
    if null_dim:
        a = a + fill @ x[:, rank:]
    return (s.m_dual @ a)[:, :, 0]


def find_fixed_points(structure, samples, seed=0, residual_tol=1e-10,
                      dedup_tol=1e-6):
    """Fixed points of the vertical field on the level set H = 1/2.

    Seeds are sampled momenta polished by Gauss-Newton on the stacked
    system (vertical field, H - 1/2, k-pairings) with its exact Jacobian;
    converged points are deduplicated by Euclidean distance.
    """
    s = structure
    n = s.dim
    rng = np.random.default_rng(seed)
    seeds = sample_momenta(s, samples, rng)
    kb = s.k_basis_float
    q = vertical_form(s.algebra.c_float, s.dmat)
    q3 = q.reshape(n, n, n)

    def residual(p):
        parts = [vertical_field_coords(s, p), [s.hamiltonian_value(p) - 0.5]]
        if s.k.dim:
            parts.append(kb.T @ p)
        return np.concatenate([np.atleast_1d(np.asarray(x)) for x in parts])

    def jacobian(p):
        # d/dp of the field's pᵀ Q_j p is (Q_j + Q_jᵀ) p; of H, dmat p.
        field_jac = (q3 @ p).T + (p @ q).reshape(n, n)
        return np.concatenate([field_jac, s.dH(p)[None, :], kb.T], axis=0)

    found = []
    for p in seeds:
        x = p.copy()
        for _ in range(60):
            r = residual(x)
            if np.linalg.norm(r, np.inf) < 1e-14:
                break
            dx, *_ = np.linalg.lstsq(jacobian(x), -r, rcond=None)
            step_len = np.linalg.norm(dx)
            if step_len > 1.0:
                dx = dx / step_len
            x = x + dx
            if not np.all(np.isfinite(x)):
                break
        if not np.all(np.isfinite(x)):
            continue
        if np.linalg.norm(vertical_field_coords(s, x), np.inf) < residual_tol and \
           abs(s.hamiltonian_value(x) - 0.5) < 1e-9 and \
           (not s.k.dim or np.max(np.abs(kb.T @ x)) < 1e-9):
            found.append(x)
    found.sort(key=lambda v: tuple(np.round(v, 8)))
    unique = []
    for x in found:
        if all(np.linalg.norm(x - y) > dedup_tol for y in unique):
            unique.append(x)
    return [Momentum(x, s) for x in unique]
