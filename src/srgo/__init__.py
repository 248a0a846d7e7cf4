"""Left-invariant sub-Riemannian structures on homogeneous spaces.

Structure constants in, geometry out: vertical Pontryagin dynamics,
homogeneity certificates for geodesics, geodesic-orbit analysis, and
constructive existence of homogeneous geodesics.
"""

from .algebra import (
    HomogeneousSRStructure,
    LieAlgebra,
    Subspace,
    ValidationReport,
    lie_closure,
    subspace_sum,
)
from .existence import (
    ExistenceResult,
    Factorization,
    construct_homogeneous_geodesic,
    factorize_by_ideal,
    is_solvable,
    radical,
    verify_eigenconstruction,
)
from .go import (
    BracketReport,
    GoVerdict,
    InvariantBasis,
    SkewReport,
    carnot_skew_test,
    go_test_bracket,
    go_verdict,
    invariant_polynomials,
)
from .hamiltonian import (
    Momentum,
    dH,
    hamiltonian_value,
    vertical_field,
)
from .homogeneity import (
    HOMOGENEOUS,
    INCONCLUSIVE,
    NOT_HOMOGENEOUS,
    HomogeneityCertificate,
    ScanSummary,
    TangencyReport,
    check_homogeneous,
    orbit_tangency_check,
    scan_homogeneous,
)
from .integrate import (
    Trajectory,
    closed_form_axisymmetric,
    find_fixed_points,
    integrate_horizontal,
    integrate_vertical,
    integrate_vertical_batch,
    sample_momenta,
)
from .models import (
    ModelSpec,
    generate_free_step2,
    list_models,
    load_model,
    load_model_file,
)
from .poly import Polynomial, poly_from_string

__version__ = "1.0.0"

__all__ = [
    "BracketReport",
    "ExistenceResult",
    "Factorization",
    "GoVerdict",
    "HOMOGENEOUS",
    "HomogeneityCertificate",
    "HomogeneousSRStructure",
    "INCONCLUSIVE",
    "InvariantBasis",
    "LieAlgebra",
    "ModelSpec",
    "Momentum",
    "NOT_HOMOGENEOUS",
    "Polynomial",
    "ScanSummary",
    "SkewReport",
    "Subspace",
    "TangencyReport",
    "Trajectory",
    "ValidationReport",
    "carnot_skew_test",
    "check_homogeneous",
    "closed_form_axisymmetric",
    "construct_homogeneous_geodesic",
    "dH",
    "factorize_by_ideal",
    "find_fixed_points",
    "generate_free_step2",
    "go_test_bracket",
    "go_verdict",
    "hamiltonian_value",
    "integrate_horizontal",
    "integrate_vertical",
    "integrate_vertical_batch",
    "invariant_polynomials",
    "is_solvable",
    "lie_closure",
    "list_models",
    "load_model",
    "load_model_file",
    "orbit_tangency_check",
    "poly_from_string",
    "radical",
    "sample_momenta",
    "scan_homogeneous",
    "subspace_sum",
    "verify_eigenconstruction",
    "vertical_field",
]
