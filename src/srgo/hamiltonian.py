"""Normal Hamiltonian of the geodesic problem.

H(p) = (1/2) B(p|_delta, p|_delta) on the annihilator of the isotropy
algebra; the vertical field is the coadjoint action of dH on p. Both are
read off the structure's precomputed forms: H and dH through its matrix
Dmat, the field through its ``vertical_terms``.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import field_rows


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
        if not self.structure.annihilates_k(coords):
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
