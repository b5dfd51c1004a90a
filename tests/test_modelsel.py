import multiprocessing
import os
import warnings

import numpy as np
import pytest

from kernelcast import modelsel, rand
from kernelcast.data import Dataset, make_folds
from kernelcast.modelsel import (Configuration, SearchError,
                                 balanced_error_rate, config_digest,
                                 enumerate_grid, evaluate_config,
                                 fit_pipeline, grid_search, kms_fit,
                                 kms_predict, pipeline_predict, random_search)
from kernelcast.serialize import from_json, to_json
from synthdata import make_blobs, random_dataset


def knn_config(**overrides):
    base = dict(k_references=4, sampling_distance="euclidean",
                sampler="random", kernel="gaussian", ref_type="centers",
                classifier="knn",
                knn=dict(neighbors=1, weighting="uniform",
                         distance="euclidean"))
    base.update(overrides)
    return Configuration.from_dict(base)


# ------------------------------------------------------------------ ber

def test_ber_perfect_prediction_is_zero():
    truth = np.array([0, 1, 0, 1])
    assert balanced_error_rate(truth, truth, 2) == 0.0


def test_ber_counts_misses_and_false_alarms_per_class():
    # 10 per class; 2 of class 0 predicted as 1, 1 of class 1 predicted as 0.
    # class 0: 2 misses + 1 false alarm = 3/10; class 1: 1 + 2 = 3/10.
    truth = np.array([0] * 10 + [1] * 10)
    predicted = truth.copy()
    predicted[:2] = 1
    predicted[10] = 0
    assert balanced_error_rate(truth, predicted, 2) == pytest.approx(0.3)
    assert balanced_error_rate(
        truth, predicted, 2, include_false_positives=False
    ) == pytest.approx(0.15)


def test_ber_everything_one_class():
    truth = np.array([0] * 5 + [1] * 5)
    predicted = np.zeros(10, dtype=int)
    assert balanced_error_rate(truth, predicted, 2) == pytest.approx(1.0)
    assert balanced_error_rate(
        truth, predicted, 2, include_false_positives=False
    ) == pytest.approx(0.5)


def test_ber_class_absent_from_truth_warns():
    truth = np.array([0, 0, 0, 1])
    predicted = np.array([0, 2, 0, 1])
    with pytest.warns(RuntimeWarning):
        value = balanced_error_rate(truth, predicted, 3)
    # class 0: 1 miss / 3; class 1: 0; class 2: 1 false alarm / 1
    assert value == pytest.approx((1 / 3 + 0.0 + 1.0) / 3)


def test_ber_matches_confusion_matrix_oracle():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        n_classes = int(rng.integers(2, 5))
        n = int(rng.integers(n_classes, 40))
        truth = rng.integers(0, n_classes, size=n)
        truth[:n_classes] = np.arange(n_classes)  # every class present
        predicted = rng.integers(0, n_classes, size=n)
        cm = np.zeros((n_classes, n_classes))
        for t, p in zip(truth, predicted):
            cm[t, p] += 1
        rates = []
        for c in range(n_classes):
            fn = cm[c].sum() - cm[c, c]
            fp = cm[:, c].sum() - cm[c, c]
            rates.append((fp + fn) / cm[c].sum())
        assert balanced_error_rate(truth, predicted, n_classes) == (
            pytest.approx(np.mean(rates)))
        fn_rates = [(cm[c].sum() - cm[c, c]) / cm[c].sum()
                    for c in range(n_classes)]
        assert balanced_error_rate(
            truth, predicted, n_classes, include_false_positives=False
        ) == pytest.approx(np.mean(fn_rates))


def test_ber_rejects_length_mismatch():
    with pytest.raises(SearchError):
        balanced_error_rate(np.array([0, 1]), np.array([0]), 2)


# ----------------------------------------------------------------- grid

def test_grid_size_is_4420():
    assert len(enumerate_grid()) == 4420


def test_grid_has_no_duplicates():
    grid = enumerate_grid()
    assert len({config_digest(c) for c in grid}) == 4420


def test_grid_respects_structural_invariants():
    grid = enumerate_grid()
    for cfg in grid:
        if cfg.sampler == "kmeans":
            assert cfg.sampling_distance == "euclidean"
            assert cfg.ref_type == "centroids"
        if cfg.classifier == "knn":
            assert cfg.knn is not None
        else:
            assert cfg.knn is None
    kmeans = [c for c in grid if c.sampler == "kmeans"]
    assert len(kmeans) == 340


def test_grid_census_by_axis():
    grid = enumerate_grid()
    by_k = {k: sum(c.k_references == k for c in grid)
            for k in (4, 8, 16, 32, 64)}
    assert set(by_k.values()) == {884}
    gnb = sum(c.classifier == "gnb" for c in grid)
    assert gnb == 4420 // 17
    per_sampler = {s: sum(c.sampler == s for c in grid)
                   for s in ("random", "density", "fft", "kmeans")}
    assert per_sampler == {"random": 1360, "density": 1360,
                           "fft": 1360, "kmeans": 340}


def test_grid_scaler_is_stamped():
    grid = enumerate_grid(scaler="standardize")
    assert all(c.scaler == "standardize" for c in grid)


def test_config_digest_stable_and_sensitive():
    cfg = knn_config()
    assert config_digest(cfg) == config_digest(knn_config())
    assert config_digest(cfg) != config_digest(knn_config(k_references=8))


def test_config_roundtrips_through_dict():
    for cfg in enumerate_grid()[::173]:
        assert Configuration.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_invalid_combinations():
    with pytest.raises(SearchError):
        knn_config(sampler="kmeans")  # kmeans requires centroids
    with pytest.raises(SearchError):
        Configuration.from_dict(dict(
            k_references=4, sampling_distance="euclidean", sampler="random",
            kernel="gaussian", ref_type="centers", classifier="gnb",
            knn=dict(neighbors=1, weighting="uniform",
                     distance="euclidean")))
    with pytest.raises(SearchError):
        knn_config(kernel="polynomial")


# --------------------------------------------------------------- search

def test_search_solves_separable_blobs():
    ds = make_blobs(n_per_class=30, spread=0.2, gap=6.0, seed=0)
    report = random_search(ds, sample_size=16, fold_count=3, seed=1)
    assert report.best.cv_ber <= 0.05


def test_search_on_shuffled_labels_is_chance():
    ds = make_blobs(n_per_class=30, spread=0.2, gap=6.0, seed=1)
    shuffled = np.array(ds.labels)
    rand.derive(99).shuffle(shuffled)
    noise = Dataset(ds.features, shuffled, ds.label_names)
    report = random_search(noise, sample_size=12, fold_count=3, seed=2)
    # the doubled error metric sits around 1.0 for coin-flip prediction
    assert 0.7 <= report.best.cv_ber <= 1.3


def test_search_is_deterministic():
    ds = make_blobs(n_per_class=25, spread=0.4, seed=2)
    a = random_search(ds, sample_size=10, seed=5)
    b = random_search(ds, sample_size=10, seed=5)
    assert [e.config for e in a.entries] == [e.config for e in b.entries]
    assert [e.cv_ber for e in a.entries] == [e.cv_ber for e in b.entries]


def test_search_threads_do_not_change_results():
    ds = make_blobs(n_per_class=25, spread=0.4, seed=3)
    seq = random_search(ds, sample_size=10, seed=7, threads=1)
    par = random_search(ds, sample_size=10, seed=7, threads=4)
    assert [e.cv_ber for e in seq.entries] == [e.cv_ber for e in par.entries]
    assert seq.best_index == par.best_index


def test_search_budget_saturates_to_full_grid_order():
    ds = make_blobs(n_per_class=40, spread=0.3, seed=4)
    capped = random_search(ds, sample_size=10 ** 6, fold_count=3, seed=3)
    assert len(capped.entries) == 4420
    grid = enumerate_grid()
    assert [e.config for e in capped.entries[:10]] == grid[:10]


def test_search_sampler_filter():
    ds = make_blobs(n_per_class=25, spread=0.3, seed=5)
    report = random_search(ds, sample_size=8, seed=4, sampler_filter="kmeans")
    assert all(e.config.sampler == "kmeans" for e in report.entries)
    assert report.sampler_filter == "kmeans"


def test_search_draws_distinct_configs():
    ds = make_blobs(n_per_class=25, spread=0.3, seed=6)
    report = random_search(ds, sample_size=40, seed=8)
    digests = {config_digest(e.config) for e in report.entries}
    assert len(digests) == 40


def test_failed_configs_get_infinite_score_and_never_win():
    # 30 rows: k=64 exceeds every fold's training size, so those entries fail
    ds = make_blobs(n_per_class=15, spread=0.3, seed=7)
    report = grid_search(ds, fold_count=3, seed=0, sampler_filter="kmeans")
    failed = [e for e in report.entries if e.error is not None]
    assert failed and all(e.cv_ber == float("inf") for e in failed)
    assert report.best.error is None
    assert np.isfinite(report.best.cv_ber)


def test_programming_errors_propagate_out_of_search(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("simulated bug")

    monkeypatch.setattr(modelsel, "map_dataset", broken)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    ds = make_blobs(n_per_class=15, spread=0.3, seed=7)
    for threads in (None, 2):
        with pytest.raises(TypeError, match="simulated bug"):
            random_search(ds, sample_size=4, seed=0, threads=threads)
    assert multiprocessing.active_children() == []


def test_grid_search_never_worse_than_random_subsample():
    ds = make_blobs(n_per_class=20, spread=1.5, seed=8)
    full = grid_search(ds, fold_count=3, seed=1, sampler_filter="kmeans")
    sub = random_search(ds, sample_size=25, fold_count=3, seed=1,
                        sampler_filter="kmeans")
    assert full.best.cv_ber <= sub.best.cv_ber


def test_tie_goes_to_first_evaluated():
    ds = make_blobs(n_per_class=30, spread=0.1, gap=9.0, seed=9)
    report = random_search(ds, sample_size=12, seed=6)
    best = report.best.cv_ber
    first = min(i for i, e in enumerate(report.entries)
                if e.cv_ber == best)
    assert report.best_index == first


# ----------------------------------------------------- pipeline / leaks

def test_fit_pipeline_ignores_rows_outside_subset():
    rng = np.random.default_rng(10)
    base = random_dataset(rng, 36, 3)
    extra = random_dataset(rng, 36, 3)
    cfg = knn_config()
    train_ids = np.arange(18)
    a = fit_pipeline(cfg, base.subset(train_ids), seed=11)
    swapped = Dataset(np.vstack([base.features[:18], extra.features[18:]]),
                      np.concatenate([base.labels[:18], extra.labels[18:]]),
                      base.label_names)
    b = fit_pipeline(cfg, swapped.subset(train_ids), seed=11)
    queries = rng.normal(size=(10, 3))
    assert np.array_equal(pipeline_predict(a, queries), pipeline_predict(b, queries))


def test_evaluate_config_mean_over_folds():
    ds = make_blobs(n_per_class=24, spread=0.3, seed=11)
    folds = make_folds(ds, 3, seed=0)
    cfg = knn_config(k_references=8)
    score = evaluate_config(cfg, ds, folds, seed=13)
    again = evaluate_config(cfg, ds, folds, seed=13)
    assert score == again
    assert 0.0 <= score <= 2.0


def test_evaluate_config_propagates_failures():
    ds = make_blobs(n_per_class=6, spread=0.3, seed=12)
    folds = make_folds(ds, 3, seed=0)
    cfg = knn_config(k_references=64)
    with pytest.raises(Exception):
        evaluate_config(cfg, ds, folds, seed=0)


# ------------------------------------------------------------ kms model

def test_kms_fit_predict_roundtrip():
    ds = make_blobs(n_per_class=30, spread=0.2, gap=6.0, seed=13)
    cfg = knn_config(k_references=8)
    model = kms_fit(cfg, ds, seed=17)
    preds = kms_predict(model, ds.features)
    assert balanced_error_rate(ds.labels, preds, ds.n_classes) <= 0.1
    assert model.label_names == ds.label_names


def test_kms_serialization_preserves_predictions():
    ds = make_blobs(n_per_class=25, spread=0.4, seed=14)
    cfg = knn_config(k_references=4, kernel="cauchy")
    model = kms_fit(cfg, ds, seed=19, cv_ber=0.125)
    clone = from_json(to_json(model))
    queries = np.random.default_rng(15).normal(size=(20, 2))
    assert np.array_equal(kms_predict(model, queries),
                          kms_predict(clone, queries))
    assert clone.cv_ber == 0.125
    assert clone.config == cfg


def test_report_serialization_roundtrip():
    ds = make_blobs(n_per_class=20, spread=0.5, seed=15)
    report = random_search(ds, sample_size=6, seed=21)
    clone = from_json(to_json(report))
    assert clone.best_index == report.best_index
    assert [e.cv_ber for e in clone.entries] == (
        [e.cv_ber for e in report.entries])
    assert [e.config for e in clone.entries] == (
        [e.config for e in report.entries])
    assert clone.master_seed == report.master_seed
    assert clone.fold_of.tolist() == report.fold_of.tolist()


def test_report_with_infinite_entries_roundtrips():
    ds = make_blobs(n_per_class=8, spread=0.5, seed=16)
    report = grid_search(ds, fold_count=2, seed=0, sampler_filter="kmeans")
    assert any(e.cv_ber == float("inf") for e in report.entries)
    clone = from_json(to_json(report))
    assert [e.cv_ber for e in clone.entries] == (
        [e.cv_ber for e in report.entries])
    assert [e.error for e in clone.entries] == (
        [e.error for e in report.entries])
