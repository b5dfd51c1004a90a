"""Seeded input generators for the benchmark workloads.

The banana and gland constructions follow the synthetic stand-ins used by
the test suite (two noisy crescents in 2-d; two 5-d Gaussians whose
separation puts the optimal error near 5%).  They are written out here so
that the benchmark depends on nothing but the package's command line.  The
bulk set is two 10-d Gaussian classes, large enough that CSV parsing
dominates a single-model predict.
"""

from __future__ import annotations

import numpy as np

BANANA_NOISE = 2.0
BANANA_RADIUS = 5.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def banana_pool(n: int, rng: np.random.Generator):
    r = BANANA_RADIUS
    n_a = n // 2
    n_b = n - n_a
    t_a = 0.125 * np.pi + rng.random(n_a) * 1.25 * np.pi
    pts_a = np.c_[r * np.sin(t_a), r * np.cos(t_a)] + rng.normal(0.0, BANANA_NOISE, (n_a, 2))
    t_b = 0.375 * np.pi - rng.random(n_b) * 1.25 * np.pi
    pts_b = (np.c_[r * np.sin(t_b), r * np.cos(t_b)] + rng.normal(0.0, BANANA_NOISE, (n_b, 2))
             - 0.75 * r)
    features = np.vstack([pts_a, pts_b])
    labels = np.array([0] * n_a + [1] * n_b)
    perm = rng.permutation(n)
    return features[perm], labels[perm], ["pos", "neg"]


def gland_pool(rng: np.random.Generator):
    n_normal, n_sick, dim = 150, 65, 5
    shift = 3.2 / np.sqrt(dim)
    features = np.vstack([rng.normal(0.0, 1.0, (n_normal, dim)),
                          rng.normal(shift, 1.0, (n_sick, dim))])
    labels = np.array([0] * n_normal + [1] * n_sick)
    perm = rng.permutation(len(labels))
    return features[perm], labels[perm], ["normal", "sick"]


def bulk_pool(n: int, dim: int, rng: np.random.Generator):
    n_a = (n * 3) // 5
    shift = 2.0 / np.sqrt(dim)
    features = np.vstack([rng.normal(0.0, 1.0, (n_a, dim)),
                          rng.normal(shift, 1.5, (n - n_a, dim))])
    labels = np.array([0] * n_a + [1] * (n - n_a))
    perm = rng.permutation(n)
    return features[perm], labels[perm], ["a", "b"]


def stratified_split(labels: np.ndarray, n_train: int, rng: np.random.Generator):
    """Row indices (train, test) with each class split in proportion."""
    train = []
    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        take = int(round(members.size * n_train / labels.size))
        train.append(members[:take])
    train = np.sort(np.concatenate(train))
    test = np.setdiff1d(np.arange(labels.size), train)
    return train, test


def write_csv(path, features: np.ndarray, labels: np.ndarray, names: list[str]) -> None:
    """Write rows as ``f1,...,fd,label`` with round-trip float text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + f",{names[label]}\n"
                      for row, label in zip(features.tolist(), labels.tolist()))


def banana_train(seed: int):
    """400 training rows of a 5300-row banana pool: (features, labels, names)."""
    features, labels, names = banana_pool(5300, _rng(seed, 1))
    train, _ = stratified_split(labels, 400, _rng(seed, 2))
    return features[train], labels[train], names


def banana_queries(seed: int):
    """4900 fresh labelled banana rows, drawn apart from any training pool."""
    return banana_pool(4900, _rng(seed, 7))


def gland_train(seed: int):
    """140 training rows of the 215-row gland pool."""
    features, labels, names = gland_pool(_rng(seed, 3))
    train, _ = stratified_split(labels, 140, _rng(seed, 4))
    return features[train], labels[train], names


def bulk(seed: int):
    """2000 training and 50000 query rows of one 10-d bulk distribution."""
    features, labels, names = bulk_pool(52_000, 10, _rng(seed, 5))
    train, test = stratified_split(labels, 2000, _rng(seed, 6))
    return ((features[train], labels[train], names),
            (features[test], labels[test], names))
