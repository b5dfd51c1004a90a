import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import types
import warnings

import numpy as np
import pytest

from kernelcast import geometry, kernelmap, modelsel, parallel, rand
from kernelcast.classify import ClassifierError, KnnParams
from kernelcast.data import SCALER_KINDS, Dataset, make_folds
from kernelcast.errors import KernelcastError
from kernelcast.geometry import DISTANCE_KINDS
from kernelcast.modelsel import (K_REFERENCE_CHOICES, KNN_NEIGHBOR_CHOICES,
                                 Configuration, SearchError, Stage,
                                 balanced_error_rate, config_digest,
                                 enumerate_grid, evaluate_config,
                                 fit_pipeline, grid_search, kms_fit,
                                 kms_predict, pipeline_predict, prepare_fold,
                                 prepare_folds, random_search,
                                 sample_references, stage_digest,
                                 stage_references)
from kernelcast.kernelmap import KERNEL_KINDS, KernelError
from kernelcast.sampling import REF_TYPES, SAMPLER_KINDS, SamplingError
from kernelcast.serialize import from_json, to_json
from synthdata import make_blobs, random_dataset
from test_edge_cases import CASES as EDGE_CASES


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


def loop_ber(truth, predicted, n_classes, include_false_positives=True):
    """balanced_error_rate as it was: one pass over the labels per class."""
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


def test_ber_equals_the_per_class_loop_bit_for_bit():
    rng = np.random.default_rng(1)
    empty_seen = 0
    for trial in range(400):
        n_classes = int(rng.integers(1, 7))
        n = int(rng.integers(1, 60))
        # A narrower truth range leaves the top classes empty.
        truth = rng.integers(0, int(rng.integers(1, n_classes + 1)), size=n)
        predicted = rng.integers(0, n_classes, size=n)
        empty = n_classes - np.unique(truth).size
        empty_seen += empty > 0
        for fp in (True, False):
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                value = balanced_error_rate(truth, predicted, n_classes, fp)
            with warnings.catch_warnings(record=True) as want:
                warnings.simplefilter("always")
                expected = loop_ber(truth, predicted, n_classes, fp)
            assert value.hex() == expected.hex()
            assert [str(w.message) for w in got] == [str(w.message) for w in want]
            assert len(got) == empty
    assert empty_seen > 50


def test_ber_of_stacked_predictions_equals_the_1d_call_on_each_row_bit_for_bit():
    rng = np.random.default_rng(2)
    seen = {"single": 0, "stacked": 0, "empty": 0}
    for trial in range(400):
        n_classes = int(rng.integers(1, 8))
        n = int(rng.integers(1, 60))
        truth = rng.integers(0, int(rng.integers(1, n_classes + 1)), size=n)
        g = 1 if trial % 4 == 0 else int(rng.integers(2, 9))
        predicted = rng.integers(0, n_classes, size=(g, n))
        empty = n_classes - np.unique(truth).size
        seen["single" if g == 1 else "stacked"] += 1
        seen["empty"] += empty > 0
        for fp in (True, False):
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                scores = balanced_error_rate(truth, predicted, n_classes, fp)
            assert len(got) == empty and all(w.category is RuntimeWarning for w in got)
            assert scores.dtype == np.float64 and scores.shape == (g,)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rows = [balanced_error_rate(truth, row, n_classes, fp) for row in predicted]
            assert [float(s).hex() for s in scores] == [r.hex() for r in rows]
    assert min(seen.values()) > 50


@pytest.mark.parametrize("truth,predicted", [
    (np.zeros(4, int), np.zeros((2, 3), int)),      # rows shorter than the truth
    (np.zeros(4, int), np.zeros((2, 2, 4), int)),   # three dimensions
    (np.zeros((1, 4), int), np.zeros((1, 4), int)),  # 2-d truth
    (np.zeros(4, int), np.zeros((0, 4), int)),      # no rows
    (np.zeros(0, int), np.zeros((2, 0), int)),      # empty rows
])
def test_ber_rejects_misshaped_stacked_predictions(truth, predicted):
    with pytest.raises(SearchError):
        balanced_error_rate(truth, predicted, 2)


def test_config_dict_and_digest_match_dataclasses_asdict():
    for cfg in enumerate_grid("standardize")[::7] + enumerate_grid()[:40]:
        old = dataclasses.asdict(cfg)
        assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(old, sort_keys=True)
        blob = json.dumps(old, sort_keys=True).encode("utf-8")
        assert config_digest(cfg) == int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def test_ber_rejects_length_mismatch():
    with pytest.raises(SearchError):
        balanced_error_rate(np.array([0, 1]), np.array([0]), 2)


@pytest.mark.parametrize("truth,predicted,n_classes,message", [
    ([0, 0], [0, 0], 0, "^n_classes must be at least 1$"),
    ([0, 0], [[0, 0]], -1, "^n_classes must be at least 1$"),
    ([0, 2], [0, 1], 2, "^label id out of range$"),
    ([0, 1], [[0, 1], [-1, 1]], 2, "^label id out of range$"),
    ([-1, 1], [0, 1], 2, "^label id out of range$"),
])
def test_ber_rejects_labels_outside_its_class_count(truth, predicted, n_classes, message):
    with pytest.raises(SearchError, match=message):
        balanced_error_rate(truth, predicted, n_classes)


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


def loop_enumerate_grid(scaler="none"):
    """enumerate_grid as nested loops, one KnnParams per kNN configuration."""
    configs = []
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


@pytest.mark.parametrize("scaler", SCALER_KINDS)
def test_grid_equals_the_nested_loops(scaler):
    assert enumerate_grid(scaler) == loop_enumerate_grid(scaler)


def test_random_search_constructs_the_old_picks_in_order(monkeypatch):
    captured = []  # the configurations each search hands to _run_search
    monkeypatch.setattr(modelsel, "_run_search",
                        lambda ds, configs, *rest: captured.append(configs))
    full = loop_enumerate_grid()
    for sampler_filter in (None,) + SAMPLER_KINDS:
        grid = [cfg for cfg in full if sampler_filter in (None, cfg.sampler)]
        for seed in (0, 7):
            for budget in (1, 128, 339, 340, 1360, 4420, 5000):
                random_search(None, sample_size=budget, seed=seed, sampler_filter=sampler_filter)
                if budget >= len(grid):
                    want = grid
                else:
                    picked = rand.derive(seed, rand.SEARCH).choice(len(grid), size=budget,
                                                                   replace=False)
                    want = [grid[int(i)] for i in picked]
                assert captured.pop() == want, (sampler_filter, seed, budget)
                grid_search(None, seed=seed, sampler_filter=sampler_filter)
                assert captured.pop() == grid


def test_an_unknown_scaler_fails_both_searches_as_a_configuration_does():
    with pytest.raises(SearchError) as built:
        Configuration(4, "euclidean", "random", "gaussian", "centers", "gnb", None, "bogus")
    ds = make_blobs(n_per_class=10, spread=0.3, seed=2)
    for sampler_filter in (None, "kmeans", "bogus"):
        for search in (random_search, grid_search):
            with pytest.raises(SearchError) as failure:
                search(ds, scaler="bogus", sampler_filter=sampler_filter)
            assert str(failure.value) == str(built.value)


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
    for field, value, message in [
            ("k_references", 0, "k_references must be at least 1"),
            ("sampling_distance", "manhattan", "unknown sampling distance 'manhattan'"),
            ("sampler", "grid", "unknown sampler 'grid'"),
            ("ref_type", "medoids", "unknown reference type 'medoids'"),
            ("classifier", "svm", "unknown classifier 'svm'")]:
        with pytest.raises(SearchError, match=f"^{message}$"):
            knn_config(**{field: value})


@pytest.mark.parametrize("classifier", ["knn", "gnb"])
def test_a_single_reference_is_a_valid_budget(classifier):
    gnb = {} if classifier == "knn" else {"classifier": "gnb", "knn": None}
    cfg = knn_config(k_references=1, **gnb)
    ds = make_blobs(n_per_class=10, spread=0.3, seed=4)
    model = fit_on(cfg, ds, seed=3)
    assert model.refs.refs.shape == (1, ds.dim)
    predicted = pipeline_predict(model, ds.features)
    assert predicted.shape == (ds.n,) and set(predicted.tolist()) <= set(range(ds.n_classes))


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


def test_search_threads_do_not_change_results(monkeypatch):
    ds = make_blobs(n_per_class=25, spread=0.4, seed=3)
    monkeypatch.setenv(parallel.ENV_VAR, "1")
    seq = random_search(ds, sample_size=10, seed=7)
    monkeypatch.setenv(parallel.ENV_VAR, "4")
    par = random_search(ds, sample_size=10, seed=7)
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


@pytest.mark.parametrize("search", [random_search, grid_search])
def test_searches_reject_an_unknown_sampler_filter(search):
    with pytest.raises(SearchError, match="^unknown sampler filter 'grid'$"):
        search(make_blobs(n_per_class=10, spread=0.3, seed=2), sampler_filter="grid")


@pytest.mark.parametrize("sample_size", [0, -1])
def test_random_search_rejects_a_sample_size_below_one(sample_size):
    with pytest.raises(SearchError, match="^sample_size must be at least 1$"):
        random_search(make_blobs(n_per_class=10, spread=0.3, seed=2), sample_size=sample_size)


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


def assert_no_child_process():
    with pytest.raises(ChildProcessError):  # every forked worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_programming_errors_propagate_out_of_search(monkeypatch):
    def raise_type_error(*args):
        raise TypeError("simulated bug")

    def add_misshapen_arrays(*args):
        return np.zeros(10) + np.zeros(11)  # numpy raises a plain ValueError

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    ds = make_blobs(n_per_class=15, spread=0.3, seed=7)
    for broken, error, message in [
            (raise_type_error, TypeError, "simulated bug"),
            (add_misshapen_arrays, ValueError, r"could not be broadcast together with shapes \(10,\) \(11,\)")]:
        monkeypatch.setattr(modelsel, "map_dataset", broken)
        for threads in ("1", "2"):
            monkeypatch.setenv(parallel.ENV_VAR, threads)
            with pytest.raises(error, match=message) as failure:
                random_search(ds, sample_size=4, seed=0)
            assert not isinstance(failure.value, KernelcastError)
    assert_no_child_process()


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

def fit_on(cfg, ds, seed):
    fold = prepare_fold(cfg.scaler, ds)
    return fit_pipeline(cfg, fold, sample_references(cfg, fold, seed))


def test_fit_pipeline_ignores_rows_outside_subset():
    rng = np.random.default_rng(10)
    base = random_dataset(rng, 36, 3)
    extra = random_dataset(rng, 36, 3)
    cfg = knn_config()
    train_ids = np.arange(18)
    a = fit_on(cfg, base.subset(train_ids), seed=11)
    swapped = Dataset(np.vstack([base.features[:18], extra.features[18:]]),
                      np.concatenate([base.labels[:18], extra.labels[18:]]),
                      base.label_names)
    b = fit_on(cfg, swapped.subset(train_ids), seed=11)
    queries = rng.normal(size=(10, 3))
    assert np.array_equal(pipeline_predict(a, queries), pipeline_predict(b, queries))


def test_evaluate_config_mean_over_folds():
    ds = make_blobs(n_per_class=24, spread=0.3, seed=11)
    folds = make_folds(ds, 3, seed=0)
    cfg = knn_config(k_references=8)
    prepared = prepare_folds(ds, folds, cfg.scaler)
    score = evaluate_config(cfg, prepared, Stage([cfg], stage_references(cfg, prepared, 13)))
    # sampled again, now with the folds' distances kept
    again = evaluate_config(cfg, prepared, Stage([cfg], stage_references(cfg, prepared, 13)))
    assert score == again
    assert 0.0 <= score <= 2.0


def test_evaluate_config_propagates_failures():
    # References of the wrong width sample fine and fail only in the fit.
    ds = make_blobs(n_per_class=12, spread=0.3, seed=12)
    folds = make_folds(ds, 3, seed=0)
    cfg = knn_config()
    wider = Dataset(np.hstack([ds.features, ds.features[:, :1]]), ds.labels, ds.label_names)
    references = stage_references(cfg, prepare_folds(wider, folds, cfg.scaler), 0)
    with pytest.raises(KernelError, match="does not match reference width"):
        evaluate_config(cfg, prepare_folds(ds, folds, cfg.scaler), Stage([cfg], references))


def test_evaluate_config_reraises_the_stage_error_without_sampling(monkeypatch):
    ds = make_blobs(n_per_class=6, spread=0.3, seed=12)
    folds = prepare_folds(ds, make_folds(ds, 3, seed=0), "none")
    cfg = knn_config(k_references=64)
    with pytest.raises(SamplingError) as stage:
        stage_references(cfg, folds, 0)
    sampled = []
    monkeypatch.setattr(modelsel, "make_reference_set", lambda *a, **kw: sampled.append(a))
    failed = Stage([cfg], stage.value)
    for _ in range(2):  # every configuration of the stage gets the same error
        with pytest.raises(SamplingError) as failure:
            evaluate_config(cfg, folds, failed)
        assert str(failure.value) == str(stage.value)
    assert sampled == []


# --------------------------------------------------------------- stages

STAGE_FIELDS = ("k_references", "sampler", "sampling_distance", "ref_type", "scaler")


def test_stage_digest_hashes_the_reference_stage_fields_only():
    for cfg in enumerate_grid("standardize")[::11]:
        fields = {name: getattr(cfg, name) for name in STAGE_FIELDS}
        blob = json.dumps(fields, sort_keys=True).encode("utf-8")
        assert stage_digest(cfg) == int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    grid = enumerate_grid()
    assert len({stage_digest(c) for c in grid}) == 65
    assert len({stage_digest(c) for c in grid + enumerate_grid("standardize")}) == 130
    cfg = knn_config()
    assert stage_digest(cfg) == stage_digest(knn_config(kernel="cauchy", classifier="gnb",
                                                        knn=None))
    for field, value in (("k_references", 8), ("sampler", "fft"), ("ref_type", "centroids"),
                         ("sampling_distance", "angle"), ("scaler", "standardize")):
        assert stage_digest(knn_config(**{field: value})) != stage_digest(cfg), field


def test_random_search_entries_equal_their_grid_search_entries(monkeypatch):
    # 30 rows: folds train on 20, so the k = 32 and 64 stages fail and the rest score.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on any machine
    ds = make_blobs(n_per_class=15, spread=0.8, gap=2.0, seed=17)
    grid = {e.config: (e.cv_ber, e.error)
            for e in grid_search(ds, fold_count=3, seed=4, sampler_filter="random").entries}
    for threads in ("1", "2"):
        monkeypatch.setenv("KERNELCAST_THREADS", threads)
        report = random_search(ds, sample_size=40, fold_count=3, seed=4,
                               sampler_filter="random")
        assert len({stage_digest(e.config) for e in report.entries}) >= 10
        assert any(e.error is None for e in report.entries)
        assert any(e.error is not None for e in report.entries)
        assert [(e.cv_ber, e.error) for e in report.entries] == (
            [grid[e.config] for e in report.entries]), threads


def test_search_samples_each_stage_once_per_fold(monkeypatch):
    calls = []
    sample = modelsel.make_reference_set

    def counted(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(modelsel, "make_reference_set", counted)
    ds = make_blobs(n_per_class=60, spread=0.3, seed=18)
    report = random_search(ds, sample_size=30, fold_count=3, seed=2)
    stages = {stage_digest(e.config) for e in report.entries}
    assert all(e.error is None for e in report.entries)
    assert len(calls) == 3 * len(stages) < 3 * len(report.entries)


def test_entry_wall_time_is_its_stage_time_over_the_stage_size(monkeypatch):
    monkeypatch.delenv(parallel.ENV_VAR, raising=False)  # stages run in turn, in this process
    ticks = itertools.count(step=12.0)  # every clock reading 12 s after the one before
    monkeypatch.setattr(modelsel, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    report = random_search(make_blobs(n_per_class=20, seed=3), sample_size=40, fold_count=3, seed=5)
    sizes = collections.Counter(stage_digest(e.config) for e in report.entries)
    assert len(set(sizes.values())) > 1
    assert [e.wall_time for e in report.entries] == [
        12.0 / sizes[stage_digest(e.config)] for e in report.entries]


def test_failing_stage_fails_every_configuration_with_one_message():
    # 30 rows, 3 folds: k-means cannot place 64 centroids on 20 training rows.
    ds = make_blobs(n_per_class=15, spread=0.3, seed=7)
    report = grid_search(ds, fold_count=3, seed=0, sampler_filter="kmeans")
    by_stage = {}
    for e in report.entries:
        by_stage.setdefault(stage_digest(e.config), []).append(e)
    failed = [entries for entries in by_stage.values()
              if any(e.error is not None for e in entries)]
    scored = [entries for entries in by_stage.values()
              if all(e.error is None and np.isfinite(e.cv_ber) for e in entries)]
    assert failed and scored and len(failed) + len(scored) == len(by_stage)
    for entries in failed:
        assert len(entries) == 68
        assert len({e.error for e in entries}) == 1
        assert all(e.cv_ber == float("inf") for e in entries)
    assert any(entries[0].config.k_references == 64 for entries in failed)


def stages_alive_after(search):
    """``Stage`` objects still alive after ``search()``, run with the cyclic collector off."""
    gc.collect()
    gc.disable()
    try:
        search()
        return sum(isinstance(o, modelsel.Stage) for o in gc.get_objects())
    finally:
        gc.enable()


def test_failing_stages_are_freed_by_reference_counting(monkeypatch):
    # A kept domain error must not hold a traceback through a frame holding its stage.
    ds = make_blobs(n_per_class=15, spread=0.6, seed=3)
    monkeypatch.setenv(parallel.ENV_VAR, "1")
    # 20 training rows: the random sampler's 32- and 64-reference stages fail to sample.
    assert stages_alive_after(lambda: grid_search(ds, sampler_filter="random")) == 0
    mapped = modelsel.map_dataset

    def linear_fails(train, refs, kernel):
        if kernel == "linear":
            raise KernelError("injected linear kernel failure")
        return mapped(train, refs, kernel)

    def search():
        return random_search(ds, sample_size=200, seed=0)

    monkeypatch.setattr(modelsel, "map_dataset", linear_fails)
    assert stages_alive_after(search) == 0
    assert "injected linear kernel failure" in {e.error for e in search().entries}


def test_kms_fit_shares_references_across_a_stage():
    ds = make_blobs(n_per_class=30, spread=0.4, seed=19)
    for sampler in ("random", "density", "fft"):
        a = kms_fit(knn_config(sampler=sampler, k_references=8), ds, seed=23)
        b = kms_fit(knn_config(sampler=sampler, k_references=8, kernel="cauchy",
                               classifier="gnb", knn=None), ds, seed=23)
        assert a.refs.refs.tobytes() == b.refs.refs.tobytes()
        assert a.refs.sigmas.tobytes() == b.refs.sigmas.tobytes()
        c = kms_fit(knn_config(sampler=sampler, k_references=8, ref_type="centroids"), ds,
                    seed=23)
        assert c.refs.refs.tobytes() != a.refs.refs.tobytes()


def test_evaluate_config_samples_the_stage_as_the_search_does():
    ds = make_blobs(n_per_class=20, spread=0.9, gap=2.0, seed=20)
    report = random_search(ds, sample_size=12, fold_count=3, seed=8)
    folds = prepare_folds(ds, report.fold_of, "none")
    assert any(e.error is None for e in report.entries)
    assert any(e.error is not None for e in report.entries)
    for e in report.entries:
        try:
            references = stage_references(e.config, folds, 8)
        except KernelcastError as exc:
            references = exc
        stage = Stage([e.config], references)
        if e.error is None:
            assert evaluate_config(e.config, folds, stage) == e.cv_ber
        else:
            with pytest.raises(KernelcastError) as failure:
                evaluate_config(e.config, folds, stage)
            assert str(failure.value) == e.error


# ------------------------------------------------------------ kms model

def test_kms_fit_rejects_one_class_data():
    ds = make_blobs(n_per_class=10, spread=0.3, n_classes=1, seed=2)
    with pytest.raises(SearchError, match="^training requires a dataset with at least 2 classes$"):
        kms_fit(knn_config(), ds, seed=0)


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


# ------------------------------------- stages against lone configurations
#
# The search evaluates a stage's configurations on shared products: held-out
# distances, kernel maps, GNB fits and neighbour rankings.  The oracle below
# evaluates one configuration alone, the way the search did before it shared
# them: its own references, then fit_pipeline, pipeline_predict and
# balanced_error_rate per fold.

def lone_outcome(cfg, folds, seed):
    """(cv_ber, error, error class) of ``cfg`` evaluated on its own."""
    try:
        bers = []
        for fold, refs in zip(folds, stage_references(cfg, folds, seed)):
            fitted = fit_pipeline(cfg, fold, refs)
            predicted = pipeline_predict(fitted, fold.held_out.features)
            bers.append(balanced_error_rate(fold.held_out.labels, predicted, fold.train.n_classes))
        return float(np.mean(bers)).hex(), None, None
    except KernelcastError as exc:
        return math.inf.hex(), str(exc), type(exc).__name__


def stage_groups(rng, scaler):
    """Random subsets of three random grid stages, in a random order.

    Two of the stages sample 4 or 8 references, which small folds can hold.
    """
    stages = {}
    for cfg in enumerate_grid(scaler):
        stages.setdefault(stage_digest(cfg), []).append(cfg)
    stages = list(stages.values())
    small = [i for i, group in enumerate(stages) if group[0].k_references <= 8]
    first = rng.choice(small, 2, replace=False)
    last = rng.choice([i for i in range(len(stages)) if i not in first])
    picked = [stages[i] for i in (*first, last)]
    configs = [cfg for group in picked
               for cfg in rng.choice(group, rng.integers(1, len(group) + 1), replace=False)]
    return [configs[i] for i in rng.permutation(len(configs))]


def fuzz_datasets():
    """Small datasets: blobs, noise, and the five edge-case families."""
    rng = np.random.default_rng(0)
    yield make_blobs(n_per_class=12, spread=1.2, gap=2.0, seed=1)
    yield random_dataset(rng, 27, 3, n_classes=3)
    for case in EDGE_CASES:
        yield Dataset(*case(), ["a", "b"])


def assert_stages_match_lone_configurations(case_seed, workers, datasets=None):
    """Search random stage groups at one and two workers; every entry must
    equal its configuration's lone evaluation, bit for bit and message for
    message."""
    rng = np.random.default_rng(case_seed)
    for d, ds in enumerate(fuzz_datasets() if datasets is None else datasets):
        scaler = SCALER_KINDS[rng.integers(len(SCALER_KINDS))]
        configs = stage_groups(rng, scaler)
        seed = int(rng.integers(1000))
        fold_of = make_folds(ds, 3, seed)
        folds = prepare_folds(ds, fold_of, scaler)
        expected = [lone_outcome(cfg, folds, seed) for cfg in configs]
        for threads in (1, 2):
            workers(threads)
            report = modelsel._run_search(ds, configs, 3, seed, scaler, "random", None)
            assert [e.config for e in report.entries] == configs
            got = [(e.cv_ber.hex(), e.error, e.error_class) for e in report.entries]
            assert got == expected, (case_seed, d, threads)


def failing(original, every, error):
    """``original`` raising ``error`` on the calls whose arrays and strings
    hash into one bucket of ``every``.

    The bucket depends on content only, not on call order, neighbour count or
    ordering, so a product shared by a stage fails exactly where the lone
    evaluation of each configuration reaching it fails.
    """
    def call(*args, **kwargs):
        digest = hashlib.sha256()
        for arg in args:
            if isinstance(arg, Dataset):
                arg = arg.features
            if isinstance(arg, str):
                digest.update(arg.encode())
            elif isinstance(arg, np.ndarray):
                digest.update(np.ascontiguousarray(arg).tobytes())
        if digest.digest()[0] % every == 0:
            raise error(f"{original.__name__} failed on {digest.hexdigest()[:12]}")
        return original(*args, **kwargs)
    return call


@pytest.fixture
def two_workers(monkeypatch):
    """Two CPUs on any machine, and a call that sets KERNELCAST_THREADS."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return lambda threads: monkeypatch.setenv(parallel.ENV_VAR, str(threads))


@pytest.mark.parametrize("case_seed", range(4))
def test_stage_evaluation_equals_lone_evaluation(case_seed, two_workers):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # empty truth classes, overflow
        assert_stages_match_lone_configurations(case_seed, two_workers)


@pytest.mark.parametrize("case_seed", range(3))
def test_stage_products_fail_only_the_configurations_that_reach_them(case_seed, monkeypatch,
                                                                      two_workers):
    monkeypatch.setattr(kernelmap, "kernel_matrix", failing(kernelmap.kernel_matrix, 17, KernelError))
    monkeypatch.setattr(modelsel, "gnb_fit", failing(modelsel.gnb_fit, 5, ClassifierError))
    monkeypatch.setattr(geometry, "nearest", failing(geometry.nearest, 11, SearchError))
    ds = make_blobs(n_per_class=15, spread=1.0, gap=2.0, seed=case_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_stages_match_lone_configurations(10 + case_seed, two_workers, [ds, ds])


def test_a_configuration_failing_between_two_survivors_leaves_their_scores(monkeypatch,
                                                                           two_workers):
    # The GNB fit fails on the second fold's training rows only, so the middle
    # configuration is scored on fold 0 and then drops out of the stacked scores.
    fit, seen = modelsel.gnb_fit, []

    def fails_on_the_second_fold(mapped):
        key = mapped.features.tobytes()
        if key not in seen:
            seen.append(key)
        if seen.index(key) == 1:
            raise ClassifierError("gnb_fit failed on the second fold")
        return fit(mapped)

    monkeypatch.setattr(modelsel, "gnb_fit", fails_on_the_second_fold)
    ds = make_blobs(n_per_class=15, spread=1.0, gap=2.0, seed=5)
    knn = knn_config(k_references=8, kernel="cauchy")
    configs = [knn, dataclasses.replace(knn, classifier="gnb", knn=None),
               dataclasses.replace(knn, knn=KnnParams(5, "distance", "euclidean"))]
    folds = prepare_folds(ds, make_folds(ds, 3, 6), "none")
    expected = [lone_outcome(cfg, folds, 6) for cfg in configs]
    assert [error for _, error, _ in expected] == [None, "gnb_fit failed on the second fold", None]
    for threads in (1, 2):
        two_workers(threads)
        report = modelsel._run_search(ds, configs, 3, 6, "none", "random", None)
        assert [(e.cv_ber.hex(), e.error, e.error_class) for e in report.entries] == expected


@pytest.mark.parametrize("target", ["kernel_matrix", "nearest"])
def test_a_programming_error_in_a_stage_product_stops_the_search(target, monkeypatch,
                                                                  two_workers):
    module = kernelmap if target == "kernel_matrix" else geometry
    monkeypatch.setattr(module, target, failing(getattr(module, target), 2, TypeError))
    ds = make_blobs(n_per_class=15, spread=1.0, gap=2.0, seed=3)
    configs = [c for c in enumerate_grid() if c.k_references == 4 and c.sampler == "random"]
    for threads in (1, 2):
        two_workers(threads)
        with pytest.raises(TypeError, match=f"^{target} failed on "):
            modelsel._run_search(ds, configs, 3, 0, "none", "grid", None)
    assert_no_child_process()
