"""Homogeneity of geodesics from initial momenta.

A geodesic with momentum p is homogeneous iff some X = dH(p) + z with
z in the isotropy algebra satisfies p([X, g]) = 0, a linear system in z
read off the structure's k action and vertical field. The float systems of
a whole stack of momenta are solved by one batched SVD; a borderline
residual escalates to the exact forms, solved over the rationals.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

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
    """A (B, n, dk) and b (B, n) of the systems A z = b of a (B, n) stack:
    A[:, j, a] = p([Z_a, e_j]) and b = -p([dH(p), .])."""
    t = structure.k_action
    dk, n, _ = t.shape
    a = momenta @ t.transpose(1, 0, 2).reshape(n * dk, n).T
    return (a.reshape(len(momenta), n, dk),
            -field_rows(structure.vertical_terms, momenta))


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
    the rational float coordinates of p, or None: row j is
    sum_a T[a, j, k] p_k z_a = -f_j(p), from the exact forms."""
    s = p.structure
    coords = [Fraction(x) for x in p.coords.tolist()]
    a = [defaultdict(Fraction) for _ in range(s.dim)]  # j -> {a: A[j, a]}
    for col, j, k, c in s.k_action_exact:
        a[j][col] += c * coords[k]
    b = [Fraction(0)] * s.dim
    for j, u, k, c in s.vertical_terms_exact:
        b[j] -= c * coords[u] * coords[k]
    return exactla.solve_sparse(zip(a, b), s.k.dim)


def _check_threshold(threshold):
    """A verdict threshold must be a finite positive number: NaN and inf
    would call any residual homogeneous, zero or less none."""
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")


def _float_verdict(relres, threshold):
    """The verdict a float residual decides, or None in the exact band
    [threshold, 10 threshold). A residual that is not finite is
    inconclusive."""
    if not np.isfinite(relres):
        return INCONCLUSIVE
    if relres < threshold:
        return HOMOGENEOUS
    if relres >= 10.0 * threshold:
        return NOT_HOMOGENEOUS
    return None


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
    relres, z = float(relres[0]), z[0]
    verdict = _float_verdict(relres, threshold)
    if verdict is None:
        return _escalate(p, relres, threshold)
    witness = None
    if verdict == HOMOGENEOUS:
        witness = s.dH(p.coords) + (s.k_basis_float @ z if s.k.dim else 0.0)
    return HomogeneityCertificate(verdict, witness, relres, threshold)


def homogeneity_verdicts(structure, momenta, threshold=DEFAULT_THRESHOLD):
    """check_homogeneous's verdict for each row of a (B, n) stack of
    momenta annihilating k (as sample_momenta draws them).

    The residuals of all rows come from one feasibility_residuals call;
    only the rows in the exact band are escalated, one at a time.
    """
    _check_threshold(threshold)
    relres, _ = feasibility_residuals(structure, momenta)
    verdicts = []
    for row, r in zip(momenta, relres):
        verdict = _float_verdict(r, threshold)
        if verdict is None:
            verdict = _escalate(Momentum(row, structure), float(r),
                                threshold).verdict
        verdicts.append(verdict)
    return verdicts


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


def orbit_tangency_check(traj, invariants, tolerance=1e-8) -> TangencyReport:
    """Constancy of invariant polynomials (on m*) along a trajectory."""
    s = traj.structure
    coords = traj.momenta @ s.m_basis_float  # m*-coordinates per sample
    gaps = {}
    for i, poly in enumerate(invariants):
        vals = poly(coords)
        gaps[f"F{i + 1}"] = float(np.max(np.abs(vals - vals[0])))
    return TangencyReport(gaps, tolerance)


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
    summary = ScanSummary(samples, 0, 0, 0, seed)
    for row, verdict in zip(momenta, homogeneity_verdicts(structure, momenta,
                                                          threshold)):
        if verdict == HOMOGENEOUS:
            summary.n_homogeneous += 1
        elif verdict == NOT_HOMOGENEOUS:
            summary.n_not += 1
            if len(summary.counterexamples) < 10:
                summary.counterexamples.append(row.copy())
        else:
            summary.n_inconclusive += 1
    return summary
