"""Seeded edge-case property tests for the configuration search.

Each case is a small dataset built to hit one awkward input: duplicate rows,
constant columns, a class of exactly ``fold_count`` rows, more neighbours and
references than a fold holds, and zero vectors under the angle distance.  A
random search on each, under every scaler, must raise nothing but the
package's ``ValueError`` domain errors, must not depend on the thread count,
and must survive a serialize round trip byte for byte.
"""

import json

import numpy as np
import pytest

from kernelcast import parallel
from kernelcast.data import SCALER_KINDS, Dataset
from kernelcast.modelsel import random_search
from kernelcast.serialize import from_json, to_json

FOLDS = 3
BUDGET = 24


def two_blobs(n_a, n_b, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    features = np.vstack([rng.normal(0.0, 1.0, (n_a, dim)),
                          rng.normal(2.5, 1.0, (n_b, dim))])
    return features, np.array([0] * n_a + [1] * n_b)


def duplicate_rows():
    features, labels = two_blobs(6, 6, seed=1)
    return np.vstack([features, features]), np.concatenate([labels, labels])


def constant_columns():
    features, labels = two_blobs(9, 9, seed=2)
    return np.c_[features, np.full(18, 5.0), np.zeros(18)], labels


def class_of_fold_count():
    return two_blobs(12, FOLDS, seed=3)


def k_above_fold_size():
    # 10 rows leave at most 7 per training fold: below most reference
    # counts (4..64) and most neighbour counts (1..21)
    return two_blobs(5, 5, seed=4)


def zero_vectors_under_angle():
    features, labels = two_blobs(8, 8, seed=5)
    features[[0, 1, 8, 9]] = 0.0
    return features, labels


CASES = [duplicate_rows, constant_columns, class_of_fold_count,
         k_above_fold_size, zero_vectors_under_angle]


def search(ds, scaler, seed):
    """(report, its JSON with wall_time scrubbed), or (None, the domain error)."""
    try:
        report = random_search(ds, sample_size=BUDGET, fold_count=FOLDS,
                               seed=seed, scaler=scaler)
    except ValueError as exc:  # anything else fails the test
        return None, f"{type(exc).__name__}: {exc}"
    text = to_json(report)
    assert to_json(from_json(text)) == text
    doc = json.loads(text)
    for entry in doc["evaluated"]:
        entry["wall_time"] = None
    return report, doc


def uses_angle(cfg):
    return "angle" in (cfg.sampling_distance, cfg.knn and cfg.knn.distance)


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_search_edge_case(case, monkeypatch):
    features, labels = case()
    ds = Dataset(features, labels, ["a", "b"])
    for seed, scaler in enumerate(SCALER_KINDS):
        monkeypatch.setenv(parallel.ENV_VAR, "1")
        report, sequential = search(ds, scaler, seed)
        monkeypatch.setenv(parallel.ENV_VAR, "2")
        assert search(ds, scaler, seed)[1] == sequential
        if case is zero_vectors_under_angle:
            assert any(np.isfinite(e.cv_ber) and uses_angle(e.config)
                       for e in report.entries)
