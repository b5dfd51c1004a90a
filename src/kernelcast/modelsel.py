"""Configuration space, balanced error rate, and hyperparameter search.

A Configuration names one full pipeline: reference count, sampling distance,
sampler, kernel, reference type, and internal classifier.  Search evaluates
configurations by stratified cross-validation on the balanced error rate and
returns a report listing everything it tried.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import parallel, rand
from .classify import (GnbModel, KnnModel, KnnParams, gnb_fit, gnb_predict,
                       knn_fit, knn_predict)
from .data import (SCALER_KINDS, Dataset, ScalerSpec, apply_scaler, fit_scaler,
                   make_folds, split_fold)
from .geometry import DISTANCE_KINDS
from .kernelmap import KERNEL_KINDS, map_dataset, map_matrix
from .sampling import REF_TYPES, SAMPLER_KINDS, make_reference_set

K_REFERENCE_CHOICES = (4, 8, 16, 32, 64)
KNN_NEIGHBOR_CHOICES = (1, 5, 11, 21)
CLASSIFIER_KINDS = ("gnb", "knn")

DEFAULT_SAMPLE_SIZE = 128
DEFAULT_FOLD_COUNT = 3


class SearchError(ValueError):
    """Invalid search parameters."""


@dataclass(frozen=True)
class Configuration:
    """One point of the pipeline configuration space."""

    k_references: int
    sampling_distance: str
    sampler: str
    kernel: str
    ref_type: str
    classifier: str
    knn: KnnParams | None = None
    scaler: str = "none"

    def __post_init__(self):
        if self.k_references < 1:
            raise SearchError("k_references must be at least 1")
        if self.sampling_distance not in DISTANCE_KINDS:
            raise SearchError(f"unknown sampling distance {self.sampling_distance!r}")
        if self.sampler not in SAMPLER_KINDS:
            raise SearchError(f"unknown sampler {self.sampler!r}")
        if self.kernel not in KERNEL_KINDS:
            raise SearchError(f"unknown kernel {self.kernel!r}")
        if self.ref_type not in REF_TYPES:
            raise SearchError(f"unknown reference type {self.ref_type!r}")
        if self.classifier not in CLASSIFIER_KINDS:
            raise SearchError(f"unknown classifier {self.classifier!r}")
        if self.scaler not in SCALER_KINDS:
            raise SearchError(f"unknown scaler {self.scaler!r}")
        if self.sampler == "kmeans" and (self.sampling_distance != "euclidean"
                                         or self.ref_type != "centroids"):
            raise SearchError("kmeans configurations require euclidean distance and centroids")
        if (self.classifier == "knn") != (self.knn is not None):
            raise SearchError("knn parameters are required exactly when the classifier is knn")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "Configuration":
        knn = None
        if doc.get("knn") is not None:
            knn = KnnParams(int(doc["knn"]["neighbors"]), doc["knn"]["weighting"],
                            doc["knn"]["distance"])
        return Configuration(
            k_references=int(doc["k_references"]),
            sampling_distance=doc["sampling_distance"],
            sampler=doc["sampler"],
            kernel=doc["kernel"],
            ref_type=doc["ref_type"],
            classifier=doc["classifier"],
            knn=knn,
            scaler=doc.get("scaler", "none"),
        )


def config_digest(cfg: Configuration) -> int:
    """Stable 64-bit fingerprint of a configuration (process-independent)."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def balanced_error_rate(truth, predicted, n_classes: int,
                        include_false_positives: bool = True) -> float:
    """Mean over classes of (false positives + false negatives) / class size.

    With ``include_false_positives`` off, only misses count, giving the usual
    mean per-class error rate.  A class with no truth samples contributes its
    false positives over a divisor of 1 and raises a RuntimeWarning.
    """
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if truth.shape != predicted.shape or truth.ndim != 1:
        raise SearchError("truth and predictions must be 1-d arrays of equal length")
    if n_classes < 1:
        raise SearchError("n_classes must be at least 1")
    if truth.size == 0:
        raise SearchError("cannot score an empty sample")
    if min(truth.min(), predicted.min()) < 0 or max(truth.max(), predicted.max()) >= n_classes:
        raise SearchError("label id out of range")
    terms = np.empty(n_classes)
    for c in range(n_classes):
        count = int(np.count_nonzero(truth == c))
        fn = int(np.count_nonzero((truth == c) & (predicted != c)))
        fp = int(np.count_nonzero((predicted == c) & (truth != c)))
        if count == 0:
            warnings.warn(f"class {c} has no truth samples; scoring only its false positives",
                          RuntimeWarning, stacklevel=2)
            count = 1
        errors = fp + fn if include_false_positives else fn
        terms[c] = errors / count
    return float(terms.mean())


def enumerate_grid(scaler: str = "none") -> list[Configuration]:
    """Deterministic enumeration of the full configuration grid.

    kmeans rows are restricted to euclidean distance with centroid
    references; every other sampler spans both distances and both reference
    types.  Each base row expands into one GNB and sixteen kNN variants.
    """
    configs: list[Configuration] = []
    for k in K_REFERENCE_CHOICES:
        for sampler in SAMPLER_KINDS:
            distances = ("euclidean",) if sampler == "kmeans" else DISTANCE_KINDS
            ref_types = ("centroids",) if sampler == "kmeans" else REF_TYPES
            for dist in distances:
                for kernel in KERNEL_KINDS:
                    for ref_type in ref_types:
                        configs.append(Configuration(k, dist, sampler, kernel, ref_type,
                                                     "gnb", None, scaler))
                        for neighbors in KNN_NEIGHBOR_CHOICES:
                            for weighting in ("uniform", "distance"):
                                for knn_dist in DISTANCE_KINDS:
                                    configs.append(Configuration(
                                        k, dist, sampler, kernel, ref_type, "knn",
                                        KnnParams(neighbors, weighting, knn_dist), scaler))
    return configs


@dataclass
class KmsModel:
    """A fitted kernel-mapping classifier ready for prediction."""

    config: Configuration
    scaler: ScalerSpec
    refs: object
    inner: KnnModel | GnbModel
    label_names: list[str]
    cv_ber: float | None = None


def fit_pipeline(cfg: Configuration, train: Dataset, seed: int) -> KmsModel:
    """Fit scaler, references, and internal classifier on one training set."""
    spec = fit_scaler(cfg.scaler, train)
    scaled = apply_scaler(spec, train)
    refs = make_reference_set(scaled, cfg.sampler, cfg.k_references,
                              cfg.sampling_distance, cfg.ref_type, seed)
    mapped = map_dataset(scaled, refs, cfg.kernel)
    inner = knn_fit(mapped, cfg.knn) if cfg.classifier == "knn" else gnb_fit(mapped)
    return KmsModel(cfg, spec, refs, inner, list(train.label_names))


def pipeline_predict(model: KmsModel, features: np.ndarray) -> np.ndarray:
    """Scale, map, and classify raw query rows."""
    scaled = model.scaler.transform(np.asarray(features, dtype=np.float64))
    mapped = map_matrix(scaled, model.refs, model.config.kernel)
    if model.config.classifier == "knn":
        return knn_predict(model.inner, mapped)
    return gnb_predict(model.inner, mapped)


def evaluate_config(cfg: Configuration, ds: Dataset, fold_of: np.ndarray, seed: int) -> float:
    """Mean cross-validated balanced error rate of one configuration.

    ``fold_of`` is a ``make_folds`` array.  Each fold fits on the remaining
    folds only and scores on the held-out rows; the per-fold RNG derives from
    (seed, configuration, fold) so results do not depend on evaluation order.
    Fit errors propagate.
    """
    digest = config_digest(cfg)
    bers = []
    for fold in range(int(fold_of.max()) + 1):
        train, held_out = split_fold(ds, fold_of, fold)
        fitted = fit_pipeline(cfg, train, rand.seed_from(seed, rand.FOLD_EVAL, digest, fold))
        predicted = pipeline_predict(fitted, held_out.features)
        bers.append(balanced_error_rate(held_out.labels, predicted, ds.n_classes))
    return float(np.mean(bers))


@dataclass
class EvalOutcome:
    """One evaluated configuration inside a SearchReport."""

    config: Configuration
    cv_ber: float
    seed: int
    wall_time: float
    error: str | None = None


@dataclass
class SearchReport:
    """Everything a search evaluated, in evaluation order."""

    entries: list[EvalOutcome]
    best_index: int
    master_seed: int
    scaler: str
    mode: str
    sampler_filter: str | None
    data_shape: tuple[int, int, int]
    fold_of: np.ndarray

    @property
    def fold_count(self) -> int:
        return int(self.fold_of.max()) + 1

    @property
    def best(self) -> EvalOutcome:
        entry = self.entries[self.best_index]
        if not math.isfinite(entry.cv_ber):
            raise SearchError("search produced no viable configuration")
        return entry


def best_entry_index(entries: list[EvalOutcome]) -> int:
    """Index of the lowest cv_ber, the first in evaluation order on ties."""
    return min(range(len(entries)), key=lambda i: (entries[i].cv_ber, i))


def _run_search(ds: Dataset, configs: list[Configuration], fold_count: int, seed: int,
                scaler: str, mode: str, sampler_filter: str | None,
                threads: int | None) -> SearchReport:
    fold_of = make_folds(ds, fold_count, seed)

    def evaluate(cfg: Configuration) -> EvalOutcome:
        started = time.perf_counter()
        try:
            ber = evaluate_config(cfg, ds, fold_of, seed)
            error = None
        except ValueError as exc:  # domain errors only; anything else is a bug and propagates
            ber = math.inf
            error = str(exc)
        return EvalOutcome(cfg, ber, config_digest(cfg), time.perf_counter() - started, error)

    entries = parallel.map_indexed(evaluate, configs, threads)
    best = best_entry_index(entries)
    return SearchReport(entries, best, seed, scaler, mode, sampler_filter,
                        (ds.n, ds.dim, ds.n_classes), fold_of)


def _candidate_grid(scaler: str, sampler_filter: str | None) -> list[Configuration]:
    grid = enumerate_grid(scaler)
    if sampler_filter is not None:
        if sampler_filter not in SAMPLER_KINDS:
            raise SearchError(f"unknown sampler filter {sampler_filter!r}")
        grid = [cfg for cfg in grid if cfg.sampler == sampler_filter]
    if not grid:
        raise SearchError("sampler filter admits no configurations")
    return grid


def random_search(ds: Dataset, sample_size: int = DEFAULT_SAMPLE_SIZE,
                  fold_count: int = DEFAULT_FOLD_COUNT, seed: int = 0,
                  sampler_filter: str | None = None, scaler: str = "none",
                  threads: int | None = None) -> SearchReport:
    """Evaluate a uniform without-replacement sample of the grid.

    A sample size at or above the grid size evaluates the full grid in
    enumeration order, making the run identical to grid_search.
    """
    if sample_size < 1:
        raise SearchError("sample_size must be at least 1")
    grid = _candidate_grid(scaler, sampler_filter)
    if sample_size >= len(grid):
        chosen = grid
    else:
        rng = rand.derive(seed, rand.SEARCH)
        picked = rng.choice(len(grid), size=sample_size, replace=False)
        chosen = [grid[int(i)] for i in picked]
    return _run_search(ds, chosen, fold_count, seed, scaler, "random", sampler_filter, threads)


def grid_search(ds: Dataset, fold_count: int = DEFAULT_FOLD_COUNT, seed: int = 0,
                sampler_filter: str | None = None, scaler: str = "none",
                threads: int | None = None) -> SearchReport:
    """Evaluate every configuration of the (possibly filtered) grid."""
    grid = _candidate_grid(scaler, sampler_filter)
    return _run_search(ds, grid, fold_count, seed, scaler, "grid", sampler_filter, threads)


def kms_fit(cfg: Configuration, ds: Dataset, seed: int,
            cv_ber: float | None = None) -> KmsModel:
    """Fit one configuration on a full training set."""
    if ds.n_classes < 2:
        raise SearchError("training requires a dataset with at least 2 classes")
    model = fit_pipeline(cfg, ds, rand.seed_from(seed, rand.FIT, config_digest(cfg)))
    model.cv_ber = cv_ber
    return model


# One function under two names: perfbench/tracing.py wraps modelsel's
# pipeline_predict (the search) apart from cli's and ensemble's kms_predict.
kms_predict = pipeline_predict
