"""kernelcast: classification by kernel feature mapping.

Samples become vectors of kernel responses to a small set of reference
points; standard classifiers then operate in that space.  The package covers
the full pipeline: dataset handling, reference sampling, kernel transforms,
internal classifiers, cross-validated configuration search, majority-vote
ensembles, and a benchmark CLI.
"""

from .classify import KnnParams
from .data import (Dataset, ScalerSpec, apply_scaler, fit_scaler, load_csv,
                   make_folds, split_fold, stratified_split)
from .ensemble import (ConsensusCurve, Ensemble, build_ensemble,
                       consensus_curve, ensemble_predict)
from .geometry import TrainingGeometry, pairwise
from .kernelmap import map_dataset
from .modelsel import (Configuration, KmsModel, SearchReport,
                       balanced_error_rate, enumerate_grid, evaluate_config,
                       fit_pipeline, grid_search, kms_fit, kms_predict,
                       prepare_fold, prepare_folds, random_search,
                       sample_references, stage_references)
from .sampling import (ReferenceSet, finalize_references, make_reference_set,
                       sample_density, sample_fft, sample_kmeans,
                       sample_random)

__version__ = "0.1.0"

__all__ = [
    "Configuration", "ConsensusCurve", "Dataset", "Ensemble", "KmsModel",
    "KnnParams", "ReferenceSet", "ScalerSpec", "SearchReport", "TrainingGeometry",
    "apply_scaler", "balanced_error_rate", "build_ensemble", "consensus_curve",
    "ensemble_predict", "enumerate_grid", "evaluate_config",
    "finalize_references", "fit_pipeline", "fit_scaler", "grid_search",
    "kms_fit", "kms_predict", "load_csv", "make_folds", "make_reference_set",
    "map_dataset", "pairwise", "prepare_fold", "prepare_folds",
    "random_search", "sample_density", "sample_fft", "sample_kmeans",
    "sample_random", "sample_references", "split_fold", "stage_references",
    "stratified_split", "__version__",
]
