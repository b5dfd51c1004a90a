"""Configuration space, balanced error rate, and hyperparameter search.

A Configuration names one full pipeline: reference count, sampling distance,
sampler, kernel, reference type, and internal classifier.  Search evaluates
configurations by stratified cross-validation on the balanced error rate and
returns a report listing everything it tried.  Configurations that differ only
in kernel and classifier form one reference stage and fit on the same
references, sampled once per fold; they share held-out distances, kernel maps
and neighbour rankings too.  Each configuration of a stage predicts on every
fold, then one balanced error rate call per fold scores them all.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import errors, geometry, parallel, rand
from .classify import (GnbModel, KnnModel, KnnParams, gnb_fit, gnb_predict,
                       knn_fit, knn_predict, knn_vote)
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


def _digest64(doc) -> int:
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
    return _digest64(cfg.to_dict())


def stage_digest(cfg: Configuration) -> int:
    """Stable 64-bit fingerprint of a configuration's reference stage.

    Configurations that differ only in kernel and classifier share a stage,
    and with it their sampler seeds and so their reference sets.
    """
    fields = ("k_references", "sampler", "sampling_distance", "ref_type", "scaler")
    return _digest64({field: getattr(cfg, field) for field in fields})


def balanced_error_rate(truth, predicted, n_classes: int,
                        include_false_positives: bool = True):
    """Mean over classes of (false positives + false negatives) / class size.

    With ``include_false_positives`` off, only misses count, giving the usual
    mean per-class error rate.  A class with no truth samples contributes its
    false positives over a divisor of 1 and raises a RuntimeWarning.
    ``predicted`` of shape (G, n) scores G predictions of the same truth at
    once: it returns G scores, each equal to the 1-d call on its row.
    """
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if truth.ndim != 1 or predicted.ndim not in (1, 2) or predicted.shape[-1:] != truth.shape:
        raise SearchError("truth must be a 1-d array and predictions 1-d or 2-d rows of its length")
    if n_classes < 1:
        raise SearchError("n_classes must be at least 1")
    if predicted.size == 0:
        raise SearchError("cannot score an empty sample")
    if min(truth.min(), predicted.min()) < 0 or max(truth.max(), predicted.max()) >= n_classes:
        raise SearchError("label id out of range")
    count = np.bincount(truth, minlength=n_classes)
    for c in np.flatnonzero(count == 0):
        warnings.warn(f"class {c} has no truth samples; scoring only its false positives",
                      RuntimeWarning, stacklevel=2)
    rows = predicted.reshape(-1, truth.size)
    cells = len(rows) * n_classes
    bins = np.arange(0, cells, n_classes)[:, None]  # row r counts class c in bin r * n_classes + c
    wrong = rows != truth
    errors = np.bincount((bins + truth)[wrong], minlength=cells)  # misses
    if include_false_positives:
        errors += np.bincount((bins + rows)[wrong], minlength=cells)
    # Integer counts convert to float exactly, so each quotient is the
    # correctly rounded one that Python's int / int gives.
    ber = (errors.reshape(-1, n_classes) / np.maximum(count, 1)).mean(axis=1)
    return float(ber[0]) if predicted.ndim == 1 else ber


def _grid_fields(scaler: str) -> list[tuple]:
    """The grid as Configuration field tuples, in enumeration order.

    kmeans rows are restricted to euclidean distance with centroid
    references; every other sampler spans both distances and both reference
    types.  Each base row expands into one GNB and sixteen kNN variants;
    every row shares the one KnnParams of its kNN variant.
    """
    knns = [KnnParams(neighbors, weighting, knn_dist) for neighbors in KNN_NEIGHBOR_CHOICES
            for weighting in ("uniform", "distance") for knn_dist in DISTANCE_KINDS]
    return [(k, dist, sampler, kernel, ref_type, "gnb" if knn is None else "knn", knn, scaler)
            for k in K_REFERENCE_CHOICES for sampler in SAMPLER_KINDS
            for dist in (("euclidean",) if sampler == "kmeans" else DISTANCE_KINDS)
            for kernel in KERNEL_KINDS
            for ref_type in (("centroids",) if sampler == "kmeans" else REF_TYPES)
            for knn in [None] + knns]


def enumerate_grid(scaler: str = "none") -> list[Configuration]:
    """Deterministic enumeration of the full configuration grid."""
    return [Configuration(*fields) for fields in _grid_fields(scaler)]


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


def sample_references(cfg: Configuration, fold: PreparedFold, seed: int) -> ReferenceSet:
    """The references of ``cfg``'s stage on one prepared fold, sampled with ``seed``."""
    return make_reference_set(fold.geometry, cfg.sampler, cfg.k_references, cfg.sampling_distance,
                              cfg.ref_type, seed)


def fit_pipeline(cfg: Configuration, fold: PreparedFold, refs: ReferenceSet,
                 mapped: Dataset | None = None) -> KmsModel:
    """Fit the kernel map and internal classifier on one prepared fold.

    ``fold`` is scaled by the configuration's scaler kind, and ``refs`` are
    its stage's references sampled on the fold's rows; ``mapped`` holds the
    fold's training rows already mapped by ``cfg.kernel``, if at hand.
    """
    if mapped is None:
        mapped = map_dataset(fold.train, refs, cfg.kernel)
    inner = knn_fit(mapped, cfg.knn) if cfg.classifier == "knn" else gnb_fit(mapped)
    return KmsModel(cfg, fold.scaler, refs, inner, list(fold.train.label_names))


def pipeline_predict(model: KmsModel, features: np.ndarray, mapped: bool = False) -> np.ndarray:
    """Scale, map, and classify raw query rows, or classify rows already ``mapped``."""
    if not mapped:
        features = map_matrix(model.scaler.transform(np.asarray(features, dtype=np.float64)),
                              model.refs, model.config.kernel)
    if model.config.classifier == "knn":
        return knn_predict(model.inner, features)
    return gnb_predict(model.inner, features)


def stage_references(cfg: Configuration, folds: list[PreparedFold],
                     seed: int) -> list[ReferenceSet]:
    """The reference set of ``cfg``'s stage on each fold.

    The per-fold RNG derives from (seed, stage, fold), so every configuration
    of a stage fits on the same sets, whatever the evaluation order.
    """
    stage = stage_digest(cfg)
    return [sample_references(cfg, fold, rand.seed_from(seed, rand.FOLD_EVAL, stage, i))
            for i, fold in enumerate(folds)]


class Stage:
    """The configurations of one reference stage and the products they share.

    ``references`` are the stage's ``stage_references``, or the domain error
    their sampling raised: its first product.  A product is made when the
    first configuration reaches it.  A domain error raised making it is kept,
    without a traceback, and a copy is raised to each configuration reaching it.
    kNN configurations vote from prefixes of one ranking per fold and (kernel,
    kNN distance) group, at its largest k, unordered for a lone uniform vote.
    """

    def __init__(self, configs: list[Configuration],
                 references: list[ReferenceSet] | errors.KernelcastError):
        self.configs = configs
        groups: dict[tuple[str, str], list[KnnParams]] = {}
        for cfg in configs:
            if cfg.knn is not None:
                groups.setdefault((cfg.kernel, cfg.knn.distance), []).append(cfg.knn)
        self.ranks = {key: (max(p.neighbors for p in g), len(g) > 1 or g[0].weighting != "uniform")
                      for key, g in groups.items()}  # nearest's k and ordered, by group
        self._made = {"references": references}
        self.results = None  # Configuration -> cv_ber, or the domain error that failed it

    def product(self, key: tuple, make, *args):
        if key not in self._made:
            try:
                self._made[key] = make(*args)
            except errors.KernelcastError as exc:
                self._made[key] = exc.with_traceback(None)  # kept: its traceback holds this stage
        return _unkept(self._made[key])

    def _predict(self, cfg: Configuration, i: int, fold: PreparedFold,
                 refs: ReferenceSet) -> np.ndarray:
        """``cfg``'s labels for fold ``i``'s held-out rows, meeting the products in its order."""
        train = self.product(("train", i, cfg.kernel), map_dataset, fold.train, refs, cfg.kernel)
        fitted = None if cfg.knn else fit_pipeline(cfg, fold, refs, train)  # GNB only
        # The held-out rows, scaled and mapped as pipeline_predict does it.
        scaled = self.product(("scaled", i), fold.scaler.transform, fold.held_out.features)
        dists = self.product(("dists", i), geometry.pairwise, refs.distance_used, scaled, refs.refs)
        held_out = self.product(("held-out", i, cfg.kernel), map_matrix, scaled, refs,
                                cfg.kernel, dists)
        if fitted is not None:
            return pipeline_predict(fitted, held_out, mapped=True)
        order, near = self.product(("nearest", i, cfg.kernel, cfg.knn.distance), geometry.nearest,
                                   cfg.knn.distance, held_out, train.features,
                                   *self.ranks[cfg.kernel, cfg.knn.distance])
        k = cfg.knn.neighbors
        return knn_vote(train.labels, order[:, :k],
                        None if cfg.knn.weighting == "uniform" else near[:, :k], train.n_classes)

    def evaluate(self, folds: list[PreparedFold]) -> None:
        """Fill ``results``.  Each configuration predicts fold by fold, or fails with
        the first domain error it meets; then one balanced error rate call per fold
        scores every configuration that did not fail."""
        self.results, predicted = {}, {}
        for cfg in self.configs:
            try:
                references = _unkept(self._made["references"])
                predicted[cfg] = [self._predict(cfg, i, fold, refs)
                                  for i, (fold, refs) in enumerate(zip(folds, references))]
            except errors.KernelcastError as exc:
                self.results[cfg] = exc.with_traceback(None)  # kept: its traceback holds this stage
        if predicted:
            scores = [balanced_error_rate(fold.held_out.labels, [p[i] for p in predicted.values()],
                                          fold.train.n_classes) for i, fold in enumerate(folds)]
            # Each row of the (configurations, folds) matrix adds as np.mean adds a fold list.
            self.results.update(zip(predicted, np.stack(scores, axis=1).mean(axis=1).tolist()))


def _unkept(made):
    """``made``, or a copy raised if it is a kept domain error: the kept one gets no traceback."""
    if isinstance(made, errors.KernelcastError):
        raise copy.copy(made)
    return made


def evaluate_config(cfg: Configuration, folds: list[PreparedFold],
                    references: list[ReferenceSet] | errors.KernelcastError | Stage) -> float:
    """Mean cross-validated balanced error rate of one configuration.

    ``folds`` come from ``prepare_folds``.  Each fold fits on the remaining
    folds only and scores on the held-out rows.  ``references`` are the
    ``stage_references`` of ``cfg``, the domain error their sampling raised,
    which fails this configuration too, or a ``Stage`` holding ``cfg`` and
    either.  The first call on a ``Stage`` evaluates all of its
    configurations; later calls read their kept results.  The first domain
    error ``cfg`` meets is raised.
    """
    stage = references if isinstance(references, Stage) else Stage([cfg], references)
    if stage.results is None:
        stage.evaluate(folds)
    return _unkept(stage.results[cfg])


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
                scaler: str, mode: str, sampler_filter: str | None) -> SearchReport:
    fold_of = make_folds(ds, fold_count, seed)
    # Forked workers inherit the folds and fill their geometry copy-on-write.
    folds = prepare_folds(ds, fold_of, scaler)

    def evaluate(cfg: Configuration, stage: Stage) -> tuple[float, str | None, str | None]:
        try:
            return evaluate_config(cfg, folds, stage), None, None
        except errors.KernelcastError as exc:  # anything else is a bug and propagates
            return math.inf, str(exc), type(exc).__name__

    def evaluate_stage(positions: list[int]) -> list[EvalOutcome]:
        # The stage's references and products live only as long as this call.
        started = time.perf_counter()
        group = [configs[i] for i in positions]
        try:
            references = stage_references(group[0], folds, seed)
        except errors.KernelcastError as exc:
            references = exc.with_traceback(None)  # kept by the stage: its traceback holds it
        stage = Stage(group, references)
        scores = [evaluate(cfg, stage) for cfg in group]
        share = (time.perf_counter() - started) / len(group)  # the stage's time, spread evenly
        return [EvalOutcome(cfg, ber, config_digest(cfg), share, error, error_class)
                for cfg, (ber, error, error_class) in zip(group, scores)]

    stages: dict[int, list[int]] = {}
    for i, cfg in enumerate(configs):
        stages.setdefault(stage_digest(cfg), []).append(i)
    groups = list(stages.values())
    entries = [None] * len(configs)
    for positions, outcomes in zip(groups, parallel.map_indexed(evaluate_stage, groups)):
        for i, outcome in zip(positions, outcomes):
            entries[i] = outcome
    best = best_entry_index(entries)
    return SearchReport(entries, best, seed, scaler, mode, sampler_filter,
                        (ds.n, ds.dim, ds.n_classes), fold_of)


def _candidate_grid(scaler: str, sampler_filter: str | None) -> list[tuple]:
    """The field tuples of the (possibly filtered) grid; nothing is constructed yet."""
    if scaler not in SCALER_KINDS:
        raise SearchError(f"unknown scaler {scaler!r}")
    grid = _grid_fields(scaler)
    if sampler_filter is not None:
        if sampler_filter not in SAMPLER_KINDS:
            raise SearchError(f"unknown sampler filter {sampler_filter!r}")
        grid = [fields for fields in grid if fields[2] == sampler_filter]  # [2]: sampler
    return grid


def random_search(ds: Dataset, sample_size: int = DEFAULT_SAMPLE_SIZE,
                  fold_count: int = DEFAULT_FOLD_COUNT, seed: int = 0,
                  sampler_filter: str | None = None, scaler: str = "none") -> SearchReport:
    """Evaluate a uniform without-replacement sample of the grid.

    A sample size at or above the grid size evaluates the full grid in
    enumeration order, making the run identical to grid_search.  Only the
    sampled configurations are constructed.
    """
    if sample_size < 1:
        raise SearchError("sample_size must be at least 1")
    grid = _candidate_grid(scaler, sampler_filter)
    if sample_size < len(grid):
        rng = rand.derive(seed, rand.SEARCH)
        grid = [grid[int(i)] for i in rng.choice(len(grid), size=sample_size, replace=False)]
    chosen = [Configuration(*fields) for fields in grid]
    return _run_search(ds, chosen, fold_count, seed, scaler, "random", sampler_filter)


def grid_search(ds: Dataset, fold_count: int = DEFAULT_FOLD_COUNT, seed: int = 0,
                sampler_filter: str | None = None, scaler: str = "none") -> SearchReport:
    """Evaluate every configuration of the (possibly filtered) grid."""
    grid = [Configuration(*fields) for fields in _candidate_grid(scaler, sampler_filter)]
    return _run_search(ds, grid, fold_count, seed, scaler, "grid", sampler_filter)


def kms_fit(cfg: Configuration, ds: Dataset, seed: int,
            cv_ber: float | None = None) -> KmsModel:
    """Fit one configuration on a full training set."""
    if ds.n_classes < 2:
        raise SearchError("training requires a dataset with at least 2 classes")
    fold = prepare_fold(cfg.scaler, ds)
    refs = sample_references(cfg, fold, rand.seed_from(seed, rand.FIT, stage_digest(cfg)))
    model = fit_pipeline(cfg, fold, refs)
    model.cv_ber = cv_ber
    refs.fitted_rows = refs.fitted_dists = None  # mapped once; keep no n x k matrix
    return model


# One function under two names: perfbench/tracing.py wraps modelsel's
# pipeline_predict (the search) apart from cli's and ensemble's kms_predict.
kms_predict = pipeline_predict
