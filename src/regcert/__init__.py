"""Per-voxel registration uncertainty from source-image perturbations.

Perturb the source with small known transforms, re-register each copy,
map every result back through its own perturbation, and read uncertainty
off the per-voxel spread.  Closed-form covariance identities for the
analytic error model make the estimator checkable end to end.
"""

from .geometry import (
    AffineTransform,
    BSplineTransform,
    ConvergenceError,
    DenseTransform,
    Transform,
    TranslationTransform,
    compose,
    dense,
    grid_points,
    invert,
)
from .metrics import (
    ErrorMap,
    MseDecompositionReport,
    RiskCoverageCurve,
    error_map,
    mse_decomposition_check,
    pearson,
    risk_coverage,
    spearman,
)
from .perturb import GtSpec, PerturbSpec, sample_perturbation, simulate_gt_with_info
from .register import (
    AffineSsdBackend,
    DemonsBackend,
    ErrorModel,
    OracleBackend,
    Registration,
    RegistrationBackend,
    affine_ssd_register,
    demons_register,
)
from .uncertainty import (
    CovDecomposition,
    LemmaCheckReport,
    SampleError,
    decompose_cov,
    estimate_uncertainty,
    verify_lemma,
)
from .volume import (
    RoiMask,
    Volume3,
    VolumeFormatError,
    make_phantom,
    read_nifti,
    read_volume,
    warp,
    write_volume,
)

__version__ = "0.1.0"
