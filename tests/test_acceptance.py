"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single PASS/FAIL line
(straight to the terminal, bypassing capture) before asserting, so a plain
``pytest -v`` run shows the scorecard.

Criterion 7 reproduces the published desk-scale benchmark numbers on the
stand-in datasets described in tests/synthdata.py; it is the slow one
(about a minute).
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from kernelcast import parallel, rand
from kernelcast.classify import gnb_fit, gnb_predict, knn_fit, knn_predict
from kernelcast.data import Dataset, load_csv
from kernelcast.ensemble import (Ensemble, build_ensemble, discordance_ratio,
                                 ensemble_predict)
from kernelcast.geometry import TrainingGeometry, pairwise
from kernelcast.modelsel import (KnnParams, balanced_error_rate,
                                 config_digest, enumerate_grid, grid_search,
                                 kms_fit, kms_predict, random_search)
from kernelcast.sampling import lloyd, sample_fft
from kernelcast.serialize import to_json
from synthdata import (benchmark_splits, make_banana_pool, make_blobs,
                       make_gland_pool, random_dataset)

IRIS = Path(__file__).parent / "data" / "iris.csv"


@pytest.fixture
def announce(capfd):
    def _announce(number, name, ok, detail=""):
        with capfd.disabled():
            suffix = f"  [{detail}]" if detail else ""
            print(f"criterion {number} ({name}): "
                  f"{'PASS' if ok else 'FAIL'}{suffix}")
        assert ok, f"criterion {number} ({name}) failed {detail}"
    return _announce


def test_criterion_1_configuration_census(announce):
    grid = enumerate_grid()
    kmeans_only = [c for c in grid if c.sampler == "kmeans"]
    unique = len({config_digest(c) for c in grid})
    ok = len(grid) == 4420 and unique == 4420 and len(kmeans_only) == 340
    announce(1, "grid census", ok,
             f"size={len(grid)} unique={unique} kmeans={len(kmeans_only)}")


def test_criterion_2_fft_delone_properties(announce):
    rng = np.random.default_rng(7)
    worst_sep, worst_cover = 0.0, 0.0
    ok = True
    for trial in range(100):
        n = int(rng.integers(10, 60))
        dim = int(rng.integers(2, 5))
        dist = "euclidean" if trial % 2 == 0 else "angle"
        ds = random_dataset(rng, n, dim)
        if dist == "angle":
            ds = type(ds)(ds.features + 3.0, ds.labels, ds.label_names)
        k = int(rng.integers(2, min(n, 15) + 1))
        centers, radius = sample_fft(TrainingGeometry(ds.features), k, dist, seed=trial)
        pts = ds.features[centers]
        sep = pairwise(dist, pts, pts)
        min_sep = sep[~np.eye(k, dtype=bool)].min()
        cover = pairwise(dist, ds.features, pts).min(axis=1).max()
        worst_sep = max(worst_sep, radius - min_sep)
        worst_cover = max(worst_cover, cover - radius)
        ok = ok and min_sep >= radius - 1e-9 and cover <= radius + 1e-9
    announce(2, "fft separation/covering", ok,
             f"100 datasets, worst slack {max(worst_sep, worst_cover):.2e}")


def test_criterion_3_kmeans_objective(announce):
    rng = np.random.default_rng(11)
    monotone = True
    for trial in range(40):
        feats = rng.normal(size=(int(rng.integers(15, 70)),
                                 int(rng.integers(1, 5))))
        k = int(rng.integers(1, 9))
        _, _, history = lloyd(feats, min(k, len(feats)), rand.derive(trial))
        scale = max(1.0, history[0])
        monotone = monotone and all(
            later <= earlier + 1e-9 * scale
            for earlier, later in zip(history, history[1:]))
    feats = rng.normal(size=(50, 3))
    centroids, _, _ = lloyd(feats, 1, rand.derive(99))
    mean_gap = float(np.abs(centroids[0] - feats.mean(axis=0)).max())
    ok = monotone and mean_gap <= 1e-9
    announce(3, "kmeans objective", ok,
             f"40 runs monotone={monotone} k=1 gap={mean_gap:.1e}")


def test_criterion_4_error_metric_oracle(announce):
    rng = np.random.default_rng(13)
    exact = 0
    doubling = True
    for trial in range(1000):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(n_classes, 60))
        truth = rng.integers(0, n_classes, size=n)
        truth[:n_classes] = np.arange(n_classes)
        predicted = rng.integers(0, n_classes, size=n)
        cm = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(cm, (truth, predicted), 1)
        terms_full = np.empty(n_classes)
        terms_fn = np.empty(n_classes)
        for c in range(n_classes):
            fn = int(cm[c].sum() - cm[c, c])
            fp = int(cm[:, c].sum() - cm[c, c])
            count = int(cm[c].sum())
            terms_full[c] = (fp + fn) / count
            terms_fn[c] = fn / count
        hit = (balanced_error_rate(truth, predicted, n_classes)
               == float(terms_full.mean()))
        hit = hit and (balanced_error_rate(
            truth, predicted, n_classes, include_false_positives=False)
            == float(terms_fn.mean()))
        exact += hit
    # on perfectly balanced binary data the full metric doubles the miss rate
    for trial in range(50):
        m = int(rng.integers(2, 40))
        truth = np.array([0] * m + [1] * m)
        predicted = rng.integers(0, 2, size=2 * m)
        full = balanced_error_rate(truth, predicted, 2)
        fn_only = balanced_error_rate(truth, predicted, 2,
                                      include_false_positives=False)
        doubling = doubling and full == pytest.approx(2 * fn_only)
    ok = exact == 1000 and doubling
    announce(4, "error metric oracle", ok,
             f"{exact}/1000 exact, balanced doubling={doubling}")


def test_criterion_5_classifier_oracles(announce):
    rng = np.random.default_rng(17)
    gnb_hits = 0
    for trial in range(200):
        n = int(rng.integers(6, 30))
        n_classes = int(rng.integers(2, 4))
        labels = rng.integers(0, n_classes, size=n)
        labels[:n_classes] = np.arange(n_classes)
        feats = rng.normal(size=(n, 3))
        model = gnb_fit(Dataset(feats, labels,
                                [str(c) for c in range(n_classes)]))
        queries = rng.normal(size=(5, 3))
        got = gnb_predict(model, queries)
        agree = True
        for qi, q in enumerate(queries):
            scores = [model.priors[ci]
                      * np.prod(np.exp(-0.5 * (q - model.means[ci]) ** 2
                                       / model.variances[ci])
                                / np.sqrt(2 * math.pi * model.variances[ci]))
                      for ci in range(len(model.class_ids))]
            agree = agree and got[qi] == model.class_ids[int(np.argmax(scores))]
        gnb_hits += agree
    knn_perfect = True
    for trial in range(50):
        ds = random_dataset(rng, int(rng.integers(5, 40)), 2)
        model = knn_fit(Dataset(ds.features, ds.labels, ds.label_names),
                        KnnParams(1, "uniform", "euclidean"))
        knn_perfect = knn_perfect and np.array_equal(
            knn_predict(model, ds.features), ds.labels)
    ok = gnb_hits == 200 and knn_perfect
    announce(5, "classifier oracles", ok,
             f"gnb {gnb_hits}/200, 1-nn memorization={knn_perfect}")


def test_criterion_6_ensemble_identities(announce):
    ds = make_blobs(n_per_class=25, spread=0.6, gap=3.0, seed=3)
    report = random_search(ds, sample_size=20, fold_count=3, seed=4)
    single = build_ensemble(report, ds, ell=1, seed=5)
    best = kms_fit(report.best.config, ds, seed=5, cv_ber=report.best.cv_ber)
    top_matches = np.array_equal(ensemble_predict(single, ds.features),
                                 kms_predict(best, ds.features))
    member = kms_fit(report.best.config, ds, seed=6)
    unanimous = Ensemble([member] * 7, vote_seed=0)
    unanimity = np.array_equal(ensemble_predict(unanimous, ds.features),
                               kms_predict(member, ds.features))
    votes = ensemble_predict(single, ds.features)
    self_zero = discordance_ratio(votes, votes) == 0.0
    ok = top_matches and unanimity and self_zero
    announce(6, "ensemble identities", ok,
             f"top1={top_matches} unanimity={unanimity} self0={self_zero}")


def _benchmark_mean(splits, seed_base, ensemble_size):
    """Mean conventional error (x100) of the searched model over splits."""
    scores = []
    for i, (train, test) in enumerate(splits):
        report = random_search(train, sample_size=128, fold_count=3,
                               seed=seed_base + i)
        if ensemble_size:
            model = build_ensemble(report, train, ell=ensemble_size,
                                   seed=seed_base + i)
            predicted = ensemble_predict(model, test.features)
        else:
            best = report.best
            single = kms_fit(best.config, train, seed_base + i,
                             cv_ber=best.cv_ber)
            predicted = kms_predict(single, test.features)
        scores.append(100.0 * balanced_error_rate(
            test.labels, predicted, train.n_classes,
            include_false_positives=False))
    return float(np.mean(scores)), scores


def test_criterion_7_desk_scale_benchmark(announce):
    banana_mean, _ = _benchmark_mean(
        benchmark_splits(make_banana_pool(), 5, train_size=400), 100, 15)
    gland_mean, _ = _benchmark_mean(
        benchmark_splits(make_gland_pool(), 5, train_size=140), 200, 15)
    iris = load_csv(IRIS, label_column=-1, has_header=True)
    iris_mean, _ = _benchmark_mean(
        benchmark_splits(iris, 5, train_size=104), 300, 0)
    banana_ok = abs(banana_mean - 11.84) <= 2.0
    gland_ok = abs(gland_mean - 5.68) <= 3.0
    iris_ok = iris_mean <= 8.0
    ok = banana_ok and gland_ok and iris_ok
    announce(7, "desk-scale benchmark", ok,
             f"banana={banana_mean:.2f} (11.84+-2.0) "
             f"gland={gland_mean:.2f} (5.68+-3.0) "
             f"iris={iris_mean:.2f} (<=8)")


def test_criterion_8_grid_dominates_random(announce):
    ds = make_blobs(n_per_class=20, spread=1.2, gap=2.0, seed=5)
    grid = grid_search(ds, fold_count=3, seed=6, sampler_filter="kmeans")
    sub = random_search(ds, sample_size=60, fold_count=3, seed=6,
                        sampler_filter="kmeans")
    ok = grid.best.cv_ber <= sub.best.cv_ber
    announce(8, "grid dominates random", ok,
             f"grid={grid.best.cv_ber:.4f} random={sub.best.cv_ber:.4f}")


def _scrubbed(report):
    doc = json.loads(to_json(report))
    for entry in doc["evaluated"]:
        entry["wall_time"] = None
    return json.dumps(doc, sort_keys=True)


def test_criterion_9_byte_identical_reruns(announce, monkeypatch):
    ds = make_blobs(n_per_class=25, spread=0.7, gap=3.0, seed=8)

    def search(threads):
        if threads is None:
            monkeypatch.delenv(parallel.ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(parallel.ENV_VAR, str(threads))
        return random_search(ds, sample_size=25, fold_count=3, seed=9)

    runs = [search(threads) for threads in (None, 1, 4, os.cpu_count())]
    reports_equal = len({_scrubbed(r) for r in runs}) == 1
    models = [to_json(build_ensemble(r, ds, ell=3, seed=10)) for r in runs[:2]]
    models_equal = models[0] == models[1]
    ok = reports_equal and models_equal
    announce(9, "byte-identical reruns", ok,
             f"4 thread settings, reports_equal={reports_equal} "
             f"models_equal={models_equal}")
