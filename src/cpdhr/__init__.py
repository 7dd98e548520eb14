"""cpdhr: canonical polyadic decomposition for multichannel harmonic retrieval.

Complex tensor algebra, ALS and Gauss-Newton CPD solvers with incomplete-data
support, factor-matching metrics, a rectangular-array DOA scene simulator,
and a deterministic file-based pipeline with a CLI front end.
"""

from .core import (
    CpdModel,
    IncompleteTensor,
    fold,
    khatri_rao,
    mttkrp,
    reconstruct,
    unfold,
)
from .metrics import CorrelationReport, CpdErrReport, align_sources, correlate_sources, cpderr, pearson
from .scene import (
    DoaEstimate,
    DoaScene,
    MaskPattern,
    SourceSet,
    SourceSpec,
    add_noise,
    apply_mask,
    build_scene_tensor,
    doa_from_generators,
    estimate_doa,
    estimate_generator,
    steering_vector,
    synthetic_sources,
)
from .solvers import CpdDiagnostics, CpdOptions, cpd, cpd_als, cpd_gradient, cpd_nls, init_model, normalize_model

__version__ = "0.1.0"

__all__ = [
    "CpdModel", "IncompleteTensor", "unfold", "fold", "khatri_rao",
    "reconstruct", "mttkrp",
    "CpdOptions", "CpdDiagnostics", "cpd", "cpd_als", "cpd_nls",
    "cpd_gradient", "init_model", "normalize_model",
    "CpdErrReport", "CorrelationReport", "cpderr", "align_sources",
    "pearson", "correlate_sources",
    "DoaScene", "SourceSpec", "SourceSet", "MaskPattern", "DoaEstimate",
    "steering_vector", "build_scene_tensor", "add_noise", "synthetic_sources",
    "estimate_generator", "doa_from_generators", "estimate_doa", "apply_mask",
    "__version__",
]
