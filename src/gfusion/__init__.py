"""Numerical toolkit for finite g-fusion frames.

Construction and validation of weighted (subspace, block-operator) systems,
optimal frame bounds, canonical duals and reconstruction, gf-Riesz and
gf-orthonormal basis tests, the induced ordinary-frame correspondence, and
certified perturbation analysis.
"""

from .bases import (
    BasisVerdict,
    CrossOperatorReport,
    cross_operator,
    is_gf_orthonormal,
    riesz_bounds,
)
from .errors import (
    BadBasis,
    DimensionMismatch,
    FieldMismatch,
    GFusionError,
    NonFiniteInput,
    NotAFrameError,
    PreconditionFailed,
    SystemFileError,
    SystemMismatch,
)
from .generate import generate, generate_like, perturbed_copy
from .induced import CorrespondenceReport, InducedFamily, induce_vectors, verify_correspondence
from .io import load_system, save_system, system_from_dict, system_to_dict
from .linalg import (
    SpectralBounds,
    Subspace,
    adjoint,
    operator_norm,
    orthonormalize,
)
from .perturb import (
    LemmaReport,
    PerturbationReport,
    PerturbParams,
    certify_R_condition,
    certify_analysis_perturbation,
    certify_frame_operator_perturbation,
    certify_invertibility_lemma,
    certify_synthesis_perturbation,
    check_invertibility_lemma,
)
from .system import (
    DirectSumVector,
    FrameBounds,
    GFusionSystem,
    ReconstructionResult,
    Subsystem,
    analysis,
    analysis_matrix,
    canonical_dual,
    frame_bounds,
    frame_operator,
    inverse_frame_operator,
    is_gf_complete,
    make_system,
    reconstruct,
    spectral_extremes,
    synthesis,
    synthesis_matrix,
)

__version__ = "0.1.0"
