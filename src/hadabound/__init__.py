"""Certified eigenvalue floors for Hadamard (entrywise) matrix products.

The package bounds the smallest eigenvalue of A o B for positive
semidefinite factors, certifies positivity of products with one
indefinite factor, and applies the same floor to spatially smoothed
source covariances and factor-model moment matrices.
"""

from .apps import (
    CpBoundReport,
    CpM1,
    CpScenario,
    DoaBoundReport,
    DoaScenario,
    build_steering,
    cp_bound,
    cp_m1,
    doa_bound,
    rank_identity_check,
    smoothed_cov_direct,
    smoothed_cov_hadamard,
)
from .certify import (
    BoundReport,
    IndefiniteCertificate,
    NonsingularityCheck,
    ProjectionCertificate,
    ProjectionParts,
    classical_bound,
    decompose_projection,
    indefinite_certificate,
    loewner_check,
    nonsingularity_predicate,
    projection_certificate,
    quantitative_bound,
    shift_construction,
)
from .matcore import (
    HermitianMatrix,
    PsdClassification,
    PsdKind,
    SpectralDecomposition,
    classify_psd,
    eig_hermitian,
    eigvals_hermitian,
    hadamard,
    is_orthogonal_projection,
    rank_numeric,
)
from .submatrix import (
    MinSubmatrixResult,
    effective_condition_number,
    kruskal_rank,
    min_submatrix_eigenvalue,
    min_subset_singular_value,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CpBoundReport",
    "CpM1",
    "CpScenario",
    "DoaBoundReport",
    "DoaScenario",
    "HermitianMatrix",
    "IndefiniteCertificate",
    "MinSubmatrixResult",
    "NonsingularityCheck",
    "ProjectionCertificate",
    "ProjectionParts",
    "PsdClassification",
    "PsdKind",
    "SpectralDecomposition",
    "build_steering",
    "classical_bound",
    "classify_psd",
    "cp_bound",
    "cp_m1",
    "decompose_projection",
    "doa_bound",
    "effective_condition_number",
    "eig_hermitian",
    "eigvals_hermitian",
    "hadamard",
    "indefinite_certificate",
    "is_orthogonal_projection",
    "kruskal_rank",
    "loewner_check",
    "min_submatrix_eigenvalue",
    "min_subset_singular_value",
    "nonsingularity_predicate",
    "projection_certificate",
    "quantitative_bound",
    "rank_identity_check",
    "rank_numeric",
    "shift_construction",
    "smoothed_cov_direct",
    "smoothed_cov_hadamard",
]
