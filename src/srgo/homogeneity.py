"""Homogeneity of geodesics from initial momenta.

A geodesic with momentum p is homogeneous iff some X = dH(p) + z with
z in the isotropy algebra satisfies p([X, g]) = 0; the check is a linear
least-squares feasibility problem in z with an exact rational escalation
for borderline cases.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exactla
from .hamiltonian import Momentum, dH, vertical_field
from .integrate import sample_momenta

DEFAULT_THRESHOLD = 1e-8

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
            "residual": self.residual,
            "threshold": self.threshold_used,
        }


def _feasibility_system(p: Momentum):
    """A z = b with A[:, a] = p([Z_a, .]) and b = -p([dH(p), .])."""
    s = p.structure
    g = s.algebra
    b = -vertical_field(p)
    if s.k.dim:
        a = np.stack(
            [g.coad_apply(s.k_basis_float[:, j], p.coords) for j in range(s.k.dim)],
            axis=1,
        )
    else:
        a = np.zeros((s.dim, 0))
    return a, b


def _exact_feasible(p: Momentum):
    """Exact rank test: is the feasibility system solvable over Q?"""
    s = p.structure
    g = s.algebra
    coords = np.array([Fraction(float(x)) for x in p.coords], dtype=object)
    x0 = s.dH_exact(coords)
    b = np.array([-v for v in g.coad_apply_exact(x0, coords)], dtype=object)
    cols = []
    for j in range(s.k.dim):
        cols.append(g.coad_apply_exact(s.k.basis[:, j], coords).reshape(-1, 1))
    a = np.concatenate(cols, axis=1) if cols else exactla.fzeros(s.dim, 0)
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    if exactla.rank(a) != exactla.rank(aug):
        return None
    z = exactla.solve(a, b)
    return z


def check_homogeneous(p: Momentum, threshold=DEFAULT_THRESHOLD) -> HomogeneityCertificate:
    """Decide homogeneity of the geodesic with initial momentum p.

    Residuals are relative (scaled by 1 + |b|); a verdict in the band
    [threshold, 10 threshold) escalates to exact rational arithmetic
    before giving up as inconclusive.
    """
    s = p.structure
    a, b = _feasibility_system(p)
    bnorm = float(np.linalg.norm(b))
    if s.k.dim:
        z, *_ = np.linalg.lstsq(a, b, rcond=None)
        res = float(np.linalg.norm(a @ z - b))
    else:
        z = np.zeros(0)
        res = bnorm
    relres = res / (1.0 + bnorm)
    witness = s.dH(p.coords) + (s.k_basis_float @ z if s.k.dim else 0.0)
    if relres < threshold:
        return HomogeneityCertificate(HOMOGENEOUS, witness, relres, threshold)
    if relres < 10.0 * threshold:
        # Borderline band: escalate to exact arithmetic on the (rational)
        # float coordinates instead of guessing.
        try:
            z_exact = _exact_feasible(p)
        except (ValueError, OverflowError):
            return HomogeneityCertificate(INCONCLUSIVE, None, relres, threshold)
        if z_exact is not None:
            zf = np.array([float(v) for v in z_exact])
            witness = s.dH(p.coords) + (s.k_basis_float @ zf if s.k.dim else 0.0)
            return HomogeneityCertificate(HOMOGENEOUS, witness, 0.0, threshold)
        return HomogeneityCertificate(NOT_HOMOGENEOUS, None, relres, threshold)
    return HomogeneityCertificate(NOT_HOMOGENEOUS, None, relres, threshold)


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
    if samples <= 0:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    momenta = sample_momenta(structure, samples, rng)
    summary = ScanSummary(samples, 0, 0, 0, seed)
    for row in momenta:
        cert = check_homogeneous(Momentum(row, structure), threshold)
        if cert.verdict == HOMOGENEOUS:
            summary.n_homogeneous += 1
        elif cert.verdict == NOT_HOMOGENEOUS:
            summary.n_not += 1
            if len(summary.counterexamples) < 10:
                summary.counterexamples.append(row.copy())
        else:
            summary.n_inconclusive += 1
    return summary
