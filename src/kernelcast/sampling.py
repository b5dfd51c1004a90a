"""Prototype (reference point) samplers.

Four strategies pick k reference points from a training set: uniform random
rows, k-means centroids, density-net removal, and farthest-first traversal.
Each reference also gets a scale sigma_c used later by the kernel transforms.
Functions that measure distances among training rows take an optional
``geo``, a geometry.TrainingGeometry of those rows, so that samplers fitted
on the same rows share them; one is built when not given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, rand

SAMPLER_KINDS = ("density", "fft", "kmeans", "random")
REF_TYPES = ("centers", "centroids")

# Lloyd iterations stop at a fixpoint or after this many assignment steps.
_LLOYD_MAX_ITERS = 100


class SamplingError(ValueError):
    """Invalid sampler parameters for the given dataset."""


@dataclass
class ReferenceSet:
    """Reference points plus their per-reference scales.

    refs : (k, d) reference vectors (training rows or centroids).
    sigmas : (k,) strictly positive scales; degenerate regions were repaired.
    kind_used / distance_used / ref_type : how the set was produced.
    fitted_rows / fitted_dists : the rows a sampler fitted the set on and
        their C-ordered distances to refs, reused by kernel mapping; not saved.
    """

    refs: np.ndarray
    sigmas: np.ndarray
    kind_used: str
    distance_used: str
    ref_type: str
    fitted_rows: np.ndarray | None = field(default=None, compare=False, repr=False)
    fitted_dists: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.refs = np.asarray(self.refs, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if self.refs.ndim != 2 or self.refs.shape[0] < 1:
            raise SamplingError("reference set must hold at least one row vector")
        if self.sigmas.shape != (self.refs.shape[0],):
            raise SamplingError("need exactly one sigma per reference")
        if not np.isfinite(self.refs).all():
            raise SamplingError("refs must be finite")
        if not np.isfinite(self.sigmas).all() or (self.sigmas <= 0).any():
            raise SamplingError("sigmas must be finite and strictly positive")
        if self.kind_used not in SAMPLER_KINDS:
            raise SamplingError(f"unknown sampler kind {self.kind_used!r}")
        if self.distance_used not in geometry.DISTANCE_KINDS:
            raise SamplingError(f"unknown distance {self.distance_used!r}")
        if self.ref_type not in REF_TYPES:
            raise SamplingError(f"unknown reference type {self.ref_type!r}")

    @property
    def k(self) -> int:
        return self.refs.shape[0]

    @property
    def dim(self) -> int:
        return self.refs.shape[1]


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise SamplingError("k must be at least 1")
    if k > n:
        raise SamplingError(f"cannot pick {k} references from {n} rows")


def sample_random(ds, k: int, seed: int) -> list[int]:
    """Pick k distinct row indices uniformly at random."""
    _check_k(k, ds.n)
    rng = rand.derive(seed, rand.SAMPLER)
    return [int(i) for i in rng.choice(ds.n, size=k, replace=False)]


def _kmeanspp_seed(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = features.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.square(features - features[chosen[0]]).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total > 0.0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            # All remaining mass sits on already-chosen positions (duplicate
            # rows); fall back to a uniform pick among unchosen indices.
            remaining = np.setdiff1d(np.arange(n), np.asarray(chosen))
            nxt = int(remaining[rng.integers(remaining.size)])
        chosen.append(nxt)
        d2 = np.minimum(d2, np.square(features - features[nxt]).sum(axis=1))
    return features[chosen]


def lloyd(features: np.ndarray, k: int,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """k-means++ seeding followed by Lloyd iterations to a fixpoint.

    Returns (centroids, assignments, inertia_history) where the history holds
    the sum of squared distances to the assigned centroid after every
    assignment step.  Stops when assignments stop changing or after
    ``_LLOYD_MAX_ITERS`` iterations.  An empty cluster is reseeded at the point
    farthest from its current (stale) centroid.
    """
    features = np.asarray(features, dtype=np.float64)
    centroids = _kmeanspp_seed(features, k, rng)
    prev = None
    history: list[float] = []
    for _ in range(_LLOYD_MAX_ITERS):
        dists = geometry.pairwise("euclidean", features, centroids)
        assign = np.argmin(dists, axis=1)
        history.append(float(np.square(dists[np.arange(len(features)), assign]).sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        new = _region_means(features, assign, centroids)
        used_far: list[int] = []
        for j in np.flatnonzero(np.bincount(assign, minlength=k) == 0):
            column = dists[:, j].copy()
            if used_far:
                column[used_far] = -1.0
            far = int(np.argmax(column))
            used_far.append(far)
            new[j] = features[far]
        centroids = new
        prev = assign
    return centroids, assign, history


def sample_kmeans(ds, k: int, seed: int) -> ReferenceSet:
    """References are the centroids of a k-means run (euclidean only)."""
    _check_k(k, ds.n)
    rng = rand.derive(seed, rand.SAMPLER)
    centroids, _, _ = lloyd(ds.features, k, rng)
    dists = geometry.pairwise("euclidean", ds.features, centroids)
    return ReferenceSet(centroids, _sigmas(dists), "kmeans", "euclidean", "centroids",
                        ds.features, dists)


def _geometry(features, geo):
    return geometry.TrainingGeometry(features) if geo is None else geo


def sample_density(ds, k: int, dist: str, seed: int,
                   geo=None) -> tuple[list[int], np.ndarray]:
    """Density-net sampling by batch removal.

    With region size l = ceil(n / k), repeatedly pick a random remaining row,
    record it as a center, and remove it together with its l-1 nearest
    remaining neighbors.  Yields ceil(n / l) centers, which can be fewer
    than k; each removal batch is that center's region.  Returns the centers
    and each row's center ordinal.
    """
    _check_k(k, ds.n)
    n = ds.n
    geo = _geometry(ds.features, geo)
    region_size = math.ceil(n / k)
    rng = rand.derive(seed, rand.SAMPLER)
    alive = np.ones(n, dtype=bool)
    remaining = np.arange(n)
    centers: list[int] = []
    region_of = np.full(n, -1, dtype=np.int64)
    while remaining.size:
        c = int(remaining[rng.integers(remaining.size)])
        others = remaining[remaining != c]
        take = others[:0]
        if others.size and region_size > 1:
            dvec = geo.distances(dist, [c], others)[0]
            # Stable sort: equal distances resolve to the lowest row index
            # because `remaining` is kept in ascending order.
            take = others[np.argsort(dvec, kind="stable")[:region_size - 1]]
        region_of[c] = region_of[take] = len(centers)
        centers.append(c)
        alive[c] = alive[take] = False
        remaining = np.flatnonzero(alive)
    return centers, region_of


def fft_traverse(features: np.ndarray, k: int, dist: str, first: int,
                 geo=None) -> tuple[list[int], list[float]]:
    """Farthest-first traversal from a given start row.

    Returns the picked row indices and the selection radii: radii[i] is the
    min-distance-to-chosen of the (i+2)-th pick at the moment it was chosen.
    The radii sequence is non-increasing.
    """
    geo = _geometry(features, geo)
    n = geo.features.shape[0]
    centers = [int(first)]
    picked = np.zeros(n, dtype=bool)
    picked[first] = True
    dmin = geo.distances(dist, None, [first])[:, 0]
    radii: list[float] = []
    while len(centers) < k:
        masked = np.where(picked, -np.inf, dmin)
        w = int(np.argmax(masked))
        radii.append(float(dmin[w]))
        picked[w] = True
        centers.append(w)
        dmin = np.minimum(dmin, geo.distances(dist, None, [w])[:, 0])
    return centers, radii


def sample_fft(ds, k: int, dist: str, seed: int,
               geo=None) -> tuple[list[int], float | None]:
    """Farthest-first traversal from a random start.

    Returns the picked indices and the last selection radius r (None when
    k = 1).  The picked set is r-separated and covers the dataset within r.
    """
    _check_k(k, ds.n)
    rng = rand.derive(seed, rand.SAMPLER)
    first = int(rng.integers(ds.n))
    centers, radii = fft_traverse(ds.features, k, dist, first, geo)
    return centers, (radii[-1] if radii else None)


def _region_means(features: np.ndarray, assign: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Mean of the rows assigned to each reference; an empty region keeps its row of refs."""
    # One mean() per region, not np.add.at: on one-column data mean() sums
    # pairwise, so a scatter-add would change the last bits.
    means = refs.copy()
    for j in range(refs.shape[0]):
        members = features[assign == j]
        if members.shape[0]:
            means[j] = members.mean(axis=0)
    return means


def _sigmas(dists: np.ndarray) -> np.ndarray:
    """Max distance from each reference to the training rows nearest to it.

    ``dists`` holds the distances from every training row (rows) to every
    reference (columns).  A degenerate scale (an empty region, or one whose
    rows all sit on the reference) becomes the mean of the positive scales,
    or 1 if none is positive.
    """
    assign = np.argmin(dists, axis=1)
    sigmas = np.zeros(dists.shape[1])
    np.maximum.at(sigmas, assign, dists[np.arange(assign.size), assign])
    positive = sigmas[sigmas > 0.0]
    fill = float(positive.mean()) if positive.size else 1.0
    return np.where(sigmas > 0.0, sigmas, fill)


def finalize_references(ds, picked: list[int], ref_type: str, dist: str,
                        sampler: str, geo=None) -> ReferenceSet:
    """Turn picked row indices into a ReferenceSet with per-reference scales.

    With ref_type "centroids" each picked row is replaced by the centroid of
    its Voronoi region over the full training set (empty regions keep the
    original row).  sigma_c is the maximum distance from reference c to the
    training rows whose nearest reference is c.  Centroids are not rows, so
    distances to them come from ``pairwise``.
    """
    if ref_type not in REF_TYPES:
        raise SamplingError(f"unknown reference type {ref_type!r}")
    picked = np.asarray(picked, dtype=np.int64)
    refs = ds.features[picked]
    dists = _geometry(ds.features, geo).distances(dist, None, picked)
    if ref_type == "centroids":
        refs = _region_means(ds.features, np.argmin(dists, axis=1), refs)
        dists = geometry.pairwise(dist, ds.features, refs)
    # Euclidean centers come as a transposed view; layout orders later sums.
    return ReferenceSet(refs, _sigmas(dists), sampler, dist, ref_type, ds.features,
                        np.ascontiguousarray(dists))


def make_reference_set(ds, sampler: str, k: int, dist: str, ref_type: str,
                       seed: int, geo=None) -> ReferenceSet:
    """Run one sampler end to end and return its ReferenceSet.

    k-means only supports euclidean distance and centroid references.
    """
    if sampler not in SAMPLER_KINDS:
        raise SamplingError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_KINDS}")
    if dist not in geometry.DISTANCE_KINDS:
        raise SamplingError(f"unknown distance {dist!r}")
    if sampler == "kmeans":
        if dist != "euclidean" or ref_type != "centroids":
            raise SamplingError("kmeans sampling requires euclidean distance and centroid references")
        return sample_kmeans(ds, k, seed)
    geo = _geometry(ds.features, geo)
    if sampler == "random":
        picked = sample_random(ds, k, seed)
    elif sampler == "density":
        picked, _ = sample_density(ds, k, dist, seed, geo)
    else:
        picked, _ = sample_fft(ds, k, dist, seed, geo)
    return finalize_references(ds, picked, ref_type, dist, sampler, geo)
