"""Configuration space, balanced error rate, and hyperparameter search.

A Configuration names one full pipeline: reference count, sampling distance,
sampler, kernel, reference type, and internal classifier.  Search evaluates
configurations by stratified cross-validation on the balanced error rate and
returns a report listing everything it tried.  Configurations that differ only
in kernel and classifier form one reference stage and fit on the same
references, sampled once per fold.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import errors, parallel, rand
from .classify import (GnbModel, KnnModel, KnnParams, gnb_fit, gnb_predict,
                       knn_fit, knn_predict)
from .data import (SCALER_KINDS, Dataset, ScalerSpec, apply_scaler, fit_scaler,
                   make_folds, split_fold)
from .geometry import DISTANCE_KINDS, TrainingGeometry
from .kernelmap import KERNEL_KINDS, map_dataset, map_matrix
from .sampling import REF_TYPES, SAMPLER_KINDS, ReferenceSet, make_reference_set

K_REFERENCE_CHOICES = (4, 8, 16, 32, 64)
KNN_NEIGHBOR_CHOICES = (1, 5, 11, 21)
CLASSIFIER_KINDS = ("gnb", "knn")

DEFAULT_SAMPLE_SIZE = 128
DEFAULT_FOLD_COUNT = 3


class SearchError(errors.KernelcastError):
    """Invalid search parameters."""


def _digest64(doc: dict) -> int:
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; a float or a bool raises TypeError naming ``field``."""
    if type(value) is not int:
        raise TypeError(f"field {field!r} must be an integer, got {value!r}")
    return value


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
        knn = self.knn
        return {
            "k_references": self.k_references,
            "sampling_distance": self.sampling_distance,
            "sampler": self.sampler,
            "kernel": self.kernel,
            "ref_type": self.ref_type,
            "classifier": self.classifier,
            "knn": None if knn is None else {"neighbors": knn.neighbors,
                                             "weighting": knn.weighting,
                                             "distance": knn.distance},
            "scaler": self.scaler,
        }

    @functools.cached_property
    def digest(self) -> int:
        """See config_digest; computed once per configuration object."""
        return _digest64(self.to_dict())

    @staticmethod
    def from_dict(doc: dict) -> "Configuration":
        knn = None
        if doc.get("knn") is not None:
            knn = KnnParams(json_int(doc["knn"]["neighbors"], "knn.neighbors"),
                            doc["knn"]["weighting"], doc["knn"]["distance"])
        return Configuration(
            k_references=json_int(doc["k_references"], "k_references"),
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
    return cfg.digest


def stage_digest(cfg: Configuration) -> int:
    """Stable 64-bit fingerprint of a configuration's reference stage.

    Configurations that differ only in kernel and classifier share a stage,
    and with it their sampler seeds and so their reference sets.
    """
    fields = ("k_references", "sampler", "sampling_distance", "ref_type", "scaler")
    return _digest64({field: getattr(cfg, field) for field in fields})


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
    count = np.bincount(truth, minlength=n_classes)
    wrong = truth != predicted
    errors = np.bincount(truth[wrong], minlength=n_classes)  # misses
    if include_false_positives:
        errors += np.bincount(predicted[wrong], minlength=n_classes)
    for c in np.flatnonzero(count == 0):
        warnings.warn(f"class {c} has no truth samples; scoring only its false positives",
                      RuntimeWarning, stacklevel=2)
    # Integer counts convert to float exactly, so each quotient is the
    # correctly rounded one that Python's int / int gives.
    return float((errors / np.maximum(count, 1)).mean())


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


class PreparedFold(NamedTuple):
    """A training set scaled once for every configuration fitted on it.

    ``train`` holds the scaled training rows and ``geometry`` their
    distances, filled as samplers ask for them.  ``held_out`` keeps the
    fold's unscaled held-out rows, if any.
    """

    scaler: ScalerSpec
    train: Dataset
    geometry: TrainingGeometry
    held_out: Dataset | None = None


def prepare_fold(scaler: str, train: Dataset, held_out: Dataset | None = None) -> PreparedFold:
    """Fit and apply one scaler kind to a training set."""
    spec = fit_scaler(scaler, train)
    scaled = apply_scaler(spec, train)
    return PreparedFold(spec, scaled, TrainingGeometry(scaled.features), held_out)


def prepare_folds(ds: Dataset, fold_of: np.ndarray, scaler: str) -> list[PreparedFold]:
    """Split and scale every fold of a ``make_folds`` array once."""
    return [prepare_fold(scaler, *split_fold(ds, fold_of, fold))
            for fold in range(int(fold_of.max()) + 1)]


def fit_pipeline(cfg: Configuration, train: Dataset | PreparedFold, seed: int | None = None,
                 refs: ReferenceSet | None = None) -> KmsModel:
    """Fit scaler, references, and internal classifier on one training set.

    A Dataset is scaled here; a PreparedFold, scaled by the configuration's
    scaler kind, brings its scaled rows and their geometry.  References are
    sampled with ``seed`` unless the stage's ``refs`` on this set are given.
    """
    fold = train if isinstance(train, PreparedFold) else prepare_fold(cfg.scaler, train)
    if refs is None:
        refs = make_reference_set(fold.train, cfg.sampler, cfg.k_references,
                                  cfg.sampling_distance, cfg.ref_type, seed, fold.geometry)
    mapped = map_dataset(fold.train, refs, cfg.kernel)
    inner = knn_fit(mapped, cfg.knn) if cfg.classifier == "knn" else gnb_fit(mapped)
    return KmsModel(cfg, fold.scaler, refs, inner, list(fold.train.label_names))


def pipeline_predict(model: KmsModel, features: np.ndarray) -> np.ndarray:
    """Scale, map, and classify raw query rows."""
    scaled = model.scaler.transform(np.asarray(features, dtype=np.float64))
    mapped = map_matrix(scaled, model.refs, model.config.kernel)
    if model.config.classifier == "knn":
        return knn_predict(model.inner, mapped)
    return gnb_predict(model.inner, mapped)


def stage_references(cfg: Configuration, folds: list[PreparedFold],
                     seed: int) -> list[ReferenceSet]:
    """The reference set of ``cfg``'s stage on each fold.

    The per-fold RNG derives from (seed, stage, fold), so every configuration
    of a stage fits on the same sets, whatever the evaluation order.
    """
    stage = stage_digest(cfg)
    return [make_reference_set(fold.train, cfg.sampler, cfg.k_references, cfg.sampling_distance,
                               cfg.ref_type, rand.seed_from(seed, rand.FOLD_EVAL, stage, i),
                               fold.geometry)
            for i, fold in enumerate(folds)]


def evaluate_config(cfg: Configuration, folds: list[PreparedFold], seed: int,
                    references: list[ReferenceSet] | errors.KernelcastError | None = None) -> float:
    """Mean cross-validated balanced error rate of one configuration.

    ``folds`` come from ``prepare_folds``.  Each fold fits on the remaining
    folds only and scores on the held-out rows.  ``references`` are the
    ``stage_references`` of ``cfg``, or the domain error their sampling
    raised, which fails this configuration too; without them they are
    sampled here.  Fit errors propagate.
    """
    if references is None:
        references = stage_references(cfg, folds, seed)
    elif isinstance(references, errors.KernelcastError):
        raise references.with_traceback(None)  # shared by the stage: keep its traceback short
    bers = []
    for fold, refs in zip(folds, references):
        fitted = fit_pipeline(cfg, fold, refs=refs)
        predicted = pipeline_predict(fitted, fold.held_out.features)
        bers.append(balanced_error_rate(fold.held_out.labels, predicted, fold.train.n_classes))
    return float(np.mean(bers))


@dataclass
class EvalOutcome:
    """One evaluated configuration inside a SearchReport."""

    config: Configuration
    cv_ber: float
    seed: int
    wall_time: float
    error: str | None = None
    # The failing error's class, for the search's failure census; never serialized.
    error_class: str | None = field(default=None, compare=False)


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
    # Forked workers inherit the folds and fill their geometry copy-on-write.
    folds = prepare_folds(ds, fold_of, scaler)

    def evaluate(cfg: Configuration, references) -> EvalOutcome:
        started = time.perf_counter()
        try:
            ber = evaluate_config(cfg, folds, seed, references)
            error = error_class = None
        except errors.KernelcastError as exc:  # anything else is a bug and propagates
            ber = math.inf
            error, error_class = str(exc), type(exc).__name__
        return EvalOutcome(cfg, ber, config_digest(cfg), time.perf_counter() - started, error,
                           error_class)

    def evaluate_stage(positions: list[int]) -> list[EvalOutcome]:
        # The stage's references live only as long as this call.
        try:
            references = stage_references(configs[positions[0]], folds, seed)
        except errors.KernelcastError as exc:
            references = exc
        return [evaluate(configs[i], references) for i in positions]

    stages: dict[int, list[int]] = {}
    for i, cfg in enumerate(configs):
        stages.setdefault(stage_digest(cfg), []).append(i)
    groups = list(stages.values())
    entries = [None] * len(configs)
    for positions, outcomes in zip(groups, parallel.map_indexed(evaluate_stage, groups, threads)):
        for i, outcome in zip(positions, outcomes):
            entries[i] = outcome
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
    model = fit_pipeline(cfg, ds, rand.seed_from(seed, rand.FIT, stage_digest(cfg)))
    model.cv_ber = cv_ber
    model.refs.fitted_rows = model.refs.fitted_dists = None  # mapped once; keep no n x k matrix
    return model


# One function under two names: perfbench/tracing.py wraps modelsel's
# pipeline_predict (the search) apart from cli's and ensemble's kms_predict.
kms_predict = pipeline_predict
