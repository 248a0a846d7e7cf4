"""Normal Hamiltonian of the geodesic problem and the Lie-Poisson bracket.

H(p) = (1/2) B(p|_delta, p|_delta) on the annihilator of the isotropy
algebra; the vertical field is the coadjoint action of dH on p. H exists
both as a fast closure (through the structure's precomputed matrix) and as
an exact quadratic polynomial; the two are cross-checked in the tests.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernels import field_rows
from .poly import Polynomial

MOMENTUM_TOL = 1e-12


@dataclass(frozen=True)
class Momentum:
    """Covector on g in the dual basis, annihilating the isotropy algebra."""

    coords: np.ndarray
    structure: "HomogeneousSRStructure"  # noqa: F821

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.shape != (self.structure.dim,):
            raise ValueError("momentum has wrong dimension")
        if not np.all(np.isfinite(coords)):
            raise ValueError("momentum coordinates must be finite")
        scale = 1.0 + float(np.max(np.abs(coords)))
        if self.structure.k.dim:
            pairing = self.structure.k_basis_float.T @ coords
            if np.max(np.abs(pairing)) > 1e-9 * scale:
                raise ValueError("momentum does not annihilate the isotropy algebra")

    def __iter__(self):
        return iter(self.coords)


def hamiltonian_value(p: Momentum) -> float:
    return p.structure.hamiltonian_value(p.coords)


def dH(p: Momentum) -> np.ndarray:
    return p.structure.dH(p.coords)


def vertical_field(p: Momentum) -> np.ndarray:
    """Momentum equation right-hand side: the covector p([dH(p), .])."""
    return field_rows(p.structure.vertical_terms, p.coords[None])[0]


def hamiltonian_polynomial(structure) -> Polynomial:
    """H as an exact quadratic polynomial on g*."""
    n = structure.dim
    d = structure.dmat_exact
    terms = {}
    for i in range(n):
        for j in range(i, n):
            c = d[i, j] if i == j else d[i, j] + d[j, i]
            c = Fraction(c) / 2
            if c:
                mono = [0] * n
                mono[i] += 1
                mono[j] += 1
                terms[tuple(mono)] = c
    return Polynomial(n, terms)


def lie_poisson_bracket(F: Polynomial, G: Polynomial, algebra) -> Polynomial:
    """{F, G}(p) = sum c[i][j][k] p_k dF/dp_i dG/dp_j, exact."""
    if F.nvars != G.nvars:
        raise ValueError("variable-count mismatch")
    if F.nvars != algebra.dim:
        raise ValueError("polynomial variables must match the algebra dimension")
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


def casimir_check(F: Polynomial, algebra) -> bool:
    """True iff {p_i, F} = 0 exactly for every coordinate function."""
    n = algebra.dim
    for i in range(n):
        pi = Polynomial.coordinate(n, i)
        if not lie_poisson_bracket(pi, F, algebra).is_zero():
            return False
    return True
