"""Homogeneity of geodesics from initial momenta.

A geodesic with momentum p is homogeneous iff some X = dH(p) + z with
z in the isotropy algebra satisfies p([X, g]) = 0, a linear system in z.
On the annihilator of k its rows paired with k vanish: [k, k] lies in k,
and H is k-invariant (the structure checks it). So the system is read in
the m*-coordinates a = m_basis^T p that ``go`` uses, dim m rows off the
structure's k action on m and the motion adot of a (the vertical terms at
m_dual a, paired with the m basis), weighted so that the residual is the
one in g-coordinates and does not depend on the scale of the m basis. A
momentum whose k-pairings are not exactly 0 (``annihilates_k`` accepts
them up to 1e-9 (1 + max|p|)) is decided at m_dual a, the momentum on the
annihilator with the same m-pairings. A scan solves its rows by one
batched SVD, and a borderline residual escalates to the exact forms, solved
over the rationals. ``go`` scans only where its bracket test finds no
linear witness L: one that exists closes coad(dH(p) + Lp)p = 0 exactly at
every p on the annihilator, so every geodesic is homogeneous and the scan
is implied, with no momentum drawn.
"""

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import exactla
from .hamiltonian import Momentum
from .integrate import sample_momenta
from .kernels import field_rows

DEFAULT_THRESHOLD = 1e-8

# Rows per block of feasibility_residuals; bounds a scan's temporaries.
RESIDUAL_BLOCK_ROWS = 256

HOMOGENEOUS = "homogeneous"
NOT_HOMOGENEOUS = "not_homogeneous"
INCONCLUSIVE = "inconclusive"


@dataclass
class HomogeneityCertificate:
    verdict: str
    witness: np.ndarray | None
    residual: float
    threshold_used: float

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else [float(x) for x in self.witness],
            # JSON has no NaN or inf; a non-finite residual is null.
            "residual": self.residual if np.isfinite(self.residual) else None,
            "threshold": self.threshold_used,
        }


def feasibility_systems(structure, momenta):
    """A (B, dm, dk) and b (B, dm) of the systems A z = b of a (B, n) stack,
    at the m*-coordinates a = m_basis^T p of each row and p = m_dual a, the
    momentum on k-circ with the same m-pairings. Row r, before weighting, is
    sum_b p([Z_b, m_r]) z_b = -adot_r(a), from ``m_action`` and
    ``vertical_terms``: adot(a) is the vertical field at p paired with the m
    basis. The rows are weighted by ``m_dual_r``, so that |A z - b| is the
    g-coordinate norm of the residual covector p([dH(p) + Z, .]), which lies
    on k-circ: the residual does not depend on how the m basis is scaled or
    mixed."""
    r, w = structure.m_action, structure.m_dual_r
    dk, dm, _ = r.shape
    a = momenta @ structure.m_basis_float
    rows = (a @ r.transpose(1, 0, 2).reshape(dm * dk, dm).T).reshape(
        len(momenta), dm, dk)
    f = field_rows(structure.vertical_terms, a @ structure.m_dual.T)
    return w @ rows, -(f @ structure.m_basis_float) @ w.T


def feasibility_residuals(structure, momenta):
    """Relative least-squares residuals of the systems of a (B, n) stack.

    Each row is solved through a batched SVD with lstsq's cutoff (singular
    values up to eps * max(n, dk) * sigma_max count as zero), in blocks of
    RESIDUAL_BLOCK_ROWS. Returns (relres, z) of shapes (B,) and (B, dk),
    with relres = |A z - b| / (1 + |b|) for the minimum-norm z; a row whose
    system is not finite gets NaN in both.
    """
    momenta = np.asarray(momenta, dtype=float)
    nrows, n = momenta.shape
    dk = structure.k.dim
    cutoff = np.finfo(float).eps * max(n, dk)
    relres = np.full(nrows, np.nan)
    z = np.full((nrows, dk), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, nrows, RESIDUAL_BLOCK_ROWS):
            block = slice(start, start + RESIDUAL_BLOCK_ROWS)
            a, b = feasibility_systems(structure, momenta[block])
            ok = np.isfinite(b).all(axis=1) & np.isfinite(a).all(axis=(1, 2))
            if ok.all():  # nearly every block: index by a view, copy nothing
                ok = slice(None)
            else:
                a, b = a[ok], b[ok]
            if dk:
                u, sv, vt = np.linalg.svd(a, full_matrices=False)
                keep = sv > cutoff * sv[:, :1]
                coef = np.where(keep, (b[:, None, :] @ u)[:, 0]
                                / np.where(keep, sv, 1.0), 0.0)
                zb = (coef[:, None, :] @ vt)[:, 0]
                res = (a @ zb[:, :, None])[:, :, 0] - b
            else:
                zb, res = np.zeros((len(b), 0)), b
            relres[block][ok] = (np.linalg.norm(res, axis=1)
                                 / (1.0 + np.linalg.norm(b, axis=1)))
            z[block][ok] = zb
    return relres, z


def _exact_feasible(p: Momentum):
    """An exact solution z (free variables 0) of the feasibility system at
    the rational float coordinates of p, or None. At a = m_basis^T p,
    exactly, row r is sum_b p([Z_b, m_r]) z_b = -adot_r(a), read off
    ``m_action_exact`` and ``m_field_exact``."""
    s = p.structure
    a = exactla.matvec(s.m.basis.T, [exactla._int_or_fraction(x)
                                     for x in p.coords.tolist()])
    rows = [defaultdict(int) for _ in range(s.m.dim)]  # r -> {b: A[r, b]}
    for b, r, t, c in s.m_action_exact:
        rows[r][b] += c * a[t]
    rhs = [0] * s.m.dim
    for r, u, t, c in s.m_field_exact:
        rhs[r] -= c * a[u] * a[t]
    return exactla.solve_sparse(zip(rows, rhs), s.k.dim)


def _check_threshold(threshold):
    """A verdict threshold must be a finite positive number: NaN and inf
    would call any residual homogeneous, zero or less none."""
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")


def _float_verdicts(relres, threshold):
    """The verdicts an array of float residuals decides, as an object
    array: None in the exact band [threshold, 10 threshold), and
    inconclusive where a residual is not finite."""
    decided = np.where(relres < threshold, HOMOGENEOUS, np.where(
        relres >= 10.0 * threshold, NOT_HOMOGENEOUS, None))
    return np.where(np.isfinite(relres), decided, INCONCLUSIVE)


def _escalate(p: Momentum, relres, threshold):
    """Decide a residual in the band by exact arithmetic on the (rational)
    float coordinates instead of guessing."""
    s = p.structure
    try:
        z_exact = _exact_feasible(p)
    except (ValueError, OverflowError):
        return HomogeneityCertificate(INCONCLUSIVE, None, relres, threshold)
    if z_exact is not None:
        zf = np.array([float(v) for v in z_exact])
        witness = s.dH(p.coords) + (s.k_basis_float @ zf if s.k.dim else 0.0)
        return HomogeneityCertificate(HOMOGENEOUS, witness, 0.0, threshold)
    return HomogeneityCertificate(NOT_HOMOGENEOUS, None, relres, threshold)


def check_homogeneous(p: Momentum, threshold=DEFAULT_THRESHOLD) -> HomogeneityCertificate:
    """Decide homogeneity of the geodesic with initial momentum p.

    Residuals are relative (scaled by 1 + |b|); a verdict in the band
    [threshold, 10 threshold) escalates to exact rational arithmetic
    before giving up as inconclusive. A system that is not finite (say,
    from an overflowing momentum) is inconclusive. A threshold that is not
    finite and positive raises ValueError.
    """
    _check_threshold(threshold)
    s = p.structure
    relres, z = feasibility_residuals(s, p.coords[None])
    verdict = _float_verdicts(relres, threshold)[0]
    relres, z = float(relres[0]), z[0]
    if verdict is None:
        return _escalate(p, relres, threshold)
    witness = None
    if verdict == HOMOGENEOUS:
        witness = s.dH(p.coords) + (s.k_basis_float @ z if s.k.dim else 0.0)
    return HomogeneityCertificate(verdict, witness, relres, threshold)


def homogeneity_verdicts(structure, momenta, threshold=DEFAULT_THRESHOLD):
    """check_homogeneous's verdict for each row of a (B, n) stack of
    momenta annihilating k (as sample_momenta draws them).

    The residuals come from one feasibility_residuals call; only the rows
    in the exact band are escalated, one at a time.
    """
    _check_threshold(threshold)
    momenta = np.asarray(momenta, dtype=float)
    relres = feasibility_residuals(structure, momenta)[0]
    verdicts = _float_verdicts(relres, threshold)
    for i in np.flatnonzero(np.equal(verdicts, None)):
        verdicts[i] = _escalate(Momentum(momenta[i], structure),
                                float(relres[i]), threshold).verdict
    return verdicts.tolist()


@dataclass
class TangencyReport:
    gaps: dict
    tolerance: float

    @property
    def passed(self):
        return all(g < self.tolerance for g in self.gaps.values())

    @property
    def max_gap(self):
        return max(self.gaps.values(), default=0.0)


def orbit_tangency_check(traj, invariants) -> TangencyReport:
    """Constancy of invariant polynomials (on m*) along a trajectory."""
    s = traj.structure
    coords = traj.momenta @ s.m_basis_float  # m*-coordinates per sample
    gaps = {}
    for i, poly in enumerate(invariants):
        vals = poly(coords)
        gaps[f"F{i + 1}"] = float(np.max(np.abs(vals - vals[0])))
    return TangencyReport(gaps, 1e-8)


@dataclass
class ScanSummary:
    samples: int
    n_homogeneous: int
    n_not: int
    n_inconclusive: int
    seed: int
    counterexamples: list = field(default_factory=list)

    @property
    def fraction_homogeneous(self):
        return self.n_homogeneous / self.samples if self.samples else 0.0

    def to_dict(self):
        return {
            "samples": self.samples,
            "homogeneous": self.n_homogeneous,
            "not_homogeneous": self.n_not,
            "inconclusive": self.n_inconclusive,
            "fraction_homogeneous": self.fraction_homogeneous,
            "seed": self.seed,
            "counterexamples": [[float(x) for x in p] for p in self.counterexamples],
        }


def scan_homogeneous(structure, samples, seed=0,
                     threshold=DEFAULT_THRESHOLD) -> ScanSummary:
    """Homogeneity census over seeded momenta on the H = 1/2 level set."""
    rng = np.random.default_rng(seed)
    momenta = sample_momenta(structure, samples, rng)
    verdicts = np.array(homogeneity_verdicts(structure, momenta, threshold))
    refuted = verdicts == NOT_HOMOGENEOUS
    n_homogeneous = int(np.count_nonzero(verdicts == HOMOGENEOUS))
    n_not = int(np.count_nonzero(refuted))
    return ScanSummary(samples, n_homogeneous, n_not,
                       samples - n_homogeneous - n_not, seed,
                       list(momenta[refuted][:10]))
