"""Internal classifiers operating on kernel-mapped features.

Two small, fully deterministic classifiers: k-nearest neighbors with uniform
or inverse-distance vote weighting, and Gaussian naive Bayes.  All ties break
toward the lowest label id so repeated runs agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, geometry
from .data import Dataset

KNN_WEIGHTINGS = ("uniform", "distance")

# Inverse-distance vote weight is 1 / (eps + d); eps guards exact hits.
_WEIGHT_EPS = 1e-9

# Per-feature variance floor factor for naive Bayes, relative to the mean
# feature variance of the training matrix.
_VAR_FLOOR_FACTOR = 1e-9


class ClassifierError(errors.KernelcastError):
    """Invalid classifier parameters or inputs."""


@dataclass(frozen=True)
class KnnParams:
    """kNN hyperparameters: neighbor count, vote weighting, distance kind."""

    neighbors: int
    weighting: str
    distance: str

    def __post_init__(self):
        if self.neighbors < 1:
            raise ClassifierError("neighbors must be at least 1")
        if self.weighting not in KNN_WEIGHTINGS:
            raise ClassifierError(f"unknown weighting {self.weighting!r}")
        if self.distance not in geometry.DISTANCE_KINDS:
            raise ClassifierError(f"unknown distance {self.distance!r}")


@dataclass
class KnnModel:
    """Stored training matrix in mapped space plus its labels."""

    features: np.ndarray
    labels: np.ndarray
    params: KnnParams
    n_classes: int


@dataclass
class GnbModel:
    """Per-class priors and per-feature Gaussian moments.

    class_ids lists the label ids seen in training, ascending; priors, means
    and variances are aligned with it.
    """

    class_ids: np.ndarray
    priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    n_classes: int


def _require_nonempty(ds: Dataset) -> None:
    if ds.n < 1:
        raise ClassifierError("training data must not be empty")


def knn_fit(ds: Dataset, params: KnnParams) -> KnnModel:
    """Store the mapped training matrix; kNN does all work at predict time."""
    _require_nonempty(ds)
    return KnnModel(ds.features.copy(), ds.labels.copy(), params, ds.n_classes)


def knn_predict(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Predict label ids for mapped query rows.

    Neighbor rank ties break toward the lower training-row index; vote ties
    break toward the lower label id.  A uniform vote counts the labels of
    each row's k nearest as a set, in whatever order ``geometry.nearest``
    finds them; an inverse-distance vote sums over them nearest first.
    A search calls neither this nor ``knn_fit``: its stages vote through
    ``knn_vote`` from one ``nearest`` ranking per kernel and kNN distance.
    """
    uniform = model.params.weighting == "uniform"
    order, dists = geometry.nearest(model.params.distance, np.asarray(queries, dtype=np.float64),
                                    model.features, model.params.neighbors, ordered=not uniform)
    return knn_vote(model.labels, order, dists, model.n_classes)


def knn_vote(labels: np.ndarray, order: np.ndarray, dists: np.ndarray | None,
             n_classes: int) -> np.ndarray:
    """Labels voted by each row's neighbours ``order``, by inverse ``dists`` unless None."""
    n, c = order.shape[0], n_classes
    weights = None if dists is None else 1.0 / (_WEIGHT_EPS + dists.ravel())
    # Sums in row-major neighbour order, as a scatter-add would; integer
    # counts do not depend on the order.
    scores = np.bincount((np.arange(n)[:, None] * c + labels[order]).ravel(), weights, n * c)
    return np.argmax(scores.reshape(n, c), axis=1).astype(np.int64)


def gnb_fit(ds: Dataset) -> GnbModel:
    """Fit per-class priors and per-feature Gaussian moments.

    Variances are floored at 1e-9 times the mean feature variance of the full
    training matrix so constant mapped columns cannot produce singular
    likelihoods.
    """
    _require_nonempty(ds)
    feats, labels = ds.features, ds.labels
    base = float(feats.var(axis=0).mean())
    floor = _VAR_FLOOR_FACTOR * base if base > 0.0 else _VAR_FLOOR_FACTOR
    class_ids = np.unique(labels)
    priors = np.empty(class_ids.size)
    means = np.empty((class_ids.size, feats.shape[1]))
    variances = np.empty_like(means)
    for i, c in enumerate(class_ids):
        rows = feats[labels == c]
        priors[i] = rows.shape[0] / feats.shape[0]
        means[i] = rows.mean(axis=0)
        variances[i] = np.maximum(rows.var(axis=0), floor)
    return GnbModel(class_ids, priors, means, variances, ds.n_classes)


def gnb_predict(model: GnbModel, queries: np.ndarray) -> np.ndarray:
    """Argmax of log prior plus summed per-feature Gaussian log densities.

    Ties break toward the lowest label id (class_ids is ascending).
    """
    feats = np.asarray(queries, dtype=np.float64)
    if feats.shape[1] != model.means.shape[1]:
        raise ClassifierError("query width does not match the fitted model")
    scores = np.empty((feats.shape[0], model.class_ids.size))
    terms = np.empty_like(feats)  # one buffer for every class's per-feature terms
    for i in range(model.class_ids.size):
        np.subtract(feats, model.means[i], out=terms)
        terms *= terms
        terms /= model.variances[i]
        terms += np.log(2.0 * np.pi * model.variances[i])
        scores[:, i] = np.log(model.priors[i]) - 0.5 * terms.sum(axis=1)
    return model.class_ids[np.argmax(scores, axis=1)].astype(np.int64)
