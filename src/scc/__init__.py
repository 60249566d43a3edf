"""Spectral curvature clustering of affine subspace mixtures.

Segments points drawn from a mixture of low-dimensional affine subspaces by
scoring sampled point tuples with polar curvature, spectrally clustering the
induced pairwise weights, and iteratively resampling within clusters; ships
with synthetic generators and the motion-segmentation benchmark protocol.
"""

from .geometry import (
    AffineSubspace,
    Partition,
    fit_affine_ols,
    project_pca,
    total_ols_error,
)
from .curvature import polar_curvature_sq
from .spectral import kmeans, spectral_cluster_factored
from .engine import SccConfig, SccResult, resample_within, sample_initial, scc_run, sigma_candidates, sweep_and_cluster
from .evaluation import EvalRecord, aggregate, error_histogram, misclassification_rate
from .dataio import (
    SequenceParseError,
    SequenceRecord,
    SynthSpec,
    load_sequence,
    save_sequence,
    synth_affine_motion,
    synth_subspace_mixture,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace",
    "Partition",
    "SccConfig",
    "SccResult",
    "SequenceParseError",
    "SequenceRecord",
    "SynthSpec",
    "EvalRecord",
    "aggregate",
    "error_histogram",
    "fit_affine_ols",
    "kmeans",
    "load_sequence",
    "misclassification_rate",
    "polar_curvature_sq",
    "project_pca",
    "resample_within",
    "sample_initial",
    "save_sequence",
    "scc_run",
    "sigma_candidates",
    "spectral_cluster_factored",
    "sweep_and_cluster",
    "synth_affine_motion",
    "synth_subspace_mixture",
    "total_ols_error",
    "__version__",
]
