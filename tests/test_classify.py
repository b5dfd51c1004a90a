import math

import numpy as np
import pytest

from kernelcast import classify, geometry
from kernelcast.classify import (ClassifierError, GnbModel, KnnModel, KnnParams,
                                 gnb_fit, gnb_predict, knn_fit, knn_predict)
from kernelcast.data import Dataset
from spies import ArgmaxSpy
from test_geometry import NEAREST_INPUTS, traced_peak


def mapped(features, labels, n_classes=None):
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes is None:
        n_classes = labels.max() + 1
    return Dataset(np.asarray(features, dtype=float), labels,
                   [f"c{i}" for i in range(n_classes)])


def params(k=1, weighting="uniform", distance="euclidean"):
    return KnnParams(k, weighting, distance)


# ------------------------------------------------------------------ knn

def test_knn_k1_memorizes_training_set():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(40, 3))
    labels = rng.integers(0, 3, size=40)
    model = knn_fit(mapped(feats, labels), params(1))
    assert np.array_equal(knn_predict(model, feats), labels)


def test_knn_duplicate_rows_resolve_to_lowest_index():
    # two identical rows with conflicting labels: the earlier row wins
    feats = [[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]]
    model = knn_fit(mapped(feats, [1, 0, 0]), params(1))
    assert knn_predict(model, np.array([[1.0, 1.0]]))[0] == 1


def test_knn_majority_of_three():
    feats = [[0.0], [0.2], [5.0]]
    model = knn_fit(mapped(feats, [0, 0, 1]), params(3))
    assert knn_predict(model, np.array([[0.1]]))[0] == 0


def test_knn_distance_weighting_beats_count():
    # one close vote at d=1 outweighs two far votes at d=3 under 1/d weights
    feats = [[1.0], [3.0], [3.2]]
    labels = [0, 1, 1]
    near = knn_fit(mapped(feats, labels), params(3, "distance"))
    assert knn_predict(near, np.array([[0.0]]))[0] == 0
    flat = knn_fit(mapped(feats, labels), params(3, "uniform"))
    assert knn_predict(flat, np.array([[0.0]]))[0] == 1


def test_knn_uniform_tie_takes_lower_label_id():
    feats = [[0.0], [2.0]]
    model = knn_fit(mapped(feats, [1, 0]), params(2))
    assert knn_predict(model, np.array([[1.0]]))[0] == 0


def test_knn_clamps_k_to_training_size():
    feats = [[0.0], [1.0]]
    model = knn_fit(mapped(feats, [0, 1]), params(21))
    out = knn_predict(model, np.array([[0.4], [0.6]]))
    assert out.shape == (2,)


def test_knn_angle_distance_option():
    feats = [[1.0, 0.0], [0.0, 1.0]]
    model = knn_fit(mapped(feats, [0, 1]), params(1, distance="angle"))
    # (2, 0.1) is nearly parallel to (1, 0) however far away it sits
    assert knn_predict(model, np.array([[200.0, 10.0]]))[0] == 0


def test_knn_brute_force_oracle():
    rng = np.random.default_rng(1)
    for trial in range(25):
        n = int(rng.integers(5, 30))
        feats = rng.normal(size=(n, 2))
        labels = rng.integers(0, 3, size=n)
        k = int(rng.integers(1, 6))
        model = knn_fit(mapped(feats, labels), params(k))
        queries = rng.normal(size=(8, 2))
        got = knn_predict(model, queries)
        for qi, q in enumerate(queries):
            d = np.sqrt(((feats - q) ** 2).sum(axis=1))
            order = np.argsort(d, kind="stable")[: min(k, n)]
            counts = np.bincount(labels[order], minlength=3)
            assert got[qi] == int(np.argmax(counts))


def scatter_add_scores(labels, order, weights, n_classes):
    """The ``np.add.at`` vote that ``knn_predict`` replaced with a bincount."""
    scores = np.zeros((order.shape[0], n_classes))
    rows = np.broadcast_to(np.arange(order.shape[0])[:, None], order.shape)
    np.add.at(scores, (rows, labels[order]), weights)
    return scores


@pytest.mark.parametrize("distance", ["euclidean", "angle"])
def test_knn_vote_scores_equal_the_scatter_add_bit_for_bit(monkeypatch, distance):
    spy = ArgmaxSpy()
    monkeypatch.setattr(classify, "np", spy)
    rng = np.random.default_rng(17)
    for _ in range(80):
        n, m, d, c = (int(x) for x in rng.integers(1, [40, 30, 4, 5]))
        train = rng.integers(-2, 3, size=(m, d)).astype(float)  # ties and exact hits
        queries = np.vstack([train[:n // 2], rng.normal(size=(n - n // 2, d))])
        labels = rng.integers(0, c, size=m)
        k = int(rng.integers(1, m + 2))
        order, dists = geometry.nearest(distance, queries, train, k)
        for weighting in ("uniform", "distance"):
            model = knn_fit(mapped(train, labels, c), params(k, weighting, distance))
            got = knn_predict(model, queries)
            scores = spy.seen.pop()
            weights = np.ones(order.shape) if weighting == "uniform" else 1.0 / (1e-9 + dists)
            want = scatter_add_scores(labels, order, weights, c)
            assert scores.shape == want.shape
            assert np.array_equal(scores.astype(float).view(np.int64), want.view(np.int64))
            assert np.array_equal(got, np.argmax(want, axis=1))


def non_finite_rows(rng, n, m, d):
    queries, train = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    for rows in (queries, train):
        bad = np.flatnonzero(rng.random(rows.shape[0]) < 0.2)
        rows[bad, rng.integers(0, d, size=bad.size)] = rng.choice([np.inf, -np.inf, np.nan],
                                                                  size=bad.size)
    return queries, train


def brute_force_vote(distance, weighting, train, labels, queries, k, n_classes):
    full = geometry.pairwise(distance, queries, train)
    order = np.argsort(full, axis=1, kind="stable")[:, :k]
    dists = np.take_along_axis(full, order, axis=1)
    weights = np.ones(order.shape) if weighting == "uniform" else 1.0 / (1e-9 + dists)
    return np.argmax(scatter_add_scores(labels, order, weights, n_classes), axis=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("distance", ["euclidean", "angle"])
def test_knn_vote_equals_a_brute_force_vote_on_either_route(monkeypatch, distance):
    blocks, ranked = [], []  # shortlist blocks of geometry.nearest, and those it ranked
    shortlists, first_k = geometry._shortlists, geometry._first_k

    def watched_shortlists(*args):
        for block in shortlists(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(geometry, "_shortlists", watched_shortlists)
    monkeypatch.setattr(geometry, "_first_k", lambda *args: ranked.append(args) or first_k(*args))
    set_route = fallback = 0  # blocks of the uniform votes
    rng = np.random.default_rng(23)
    for make in NEAREST_INPUTS + [non_finite_rows]:
        for _ in range(15):
            n, m, d, c = (int(x) for x in rng.integers(1, [30, 25, 6, 5]))
            # one to three query rows per euclidean block
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", m * (d + 8) * int(rng.integers(1, 4)))
            queries, train = make(rng, n, m, d)
            labels = rng.integers(0, c, size=m)
            for k in {1, m // 2 + 1, m, m + 2}:
                for weighting in ("uniform", "distance"):
                    del blocks[:], ranked[:]
                    # knn_fit would refuse the non-finite rows
                    model = KnnModel(train, labels, params(k, weighting, distance), c)
                    got = knn_predict(model, queries)
                    want = brute_force_vote(distance, weighting, train, labels, queries, k, c)
                    assert np.array_equal(got, want), (make.__name__, k, weighting)
                    if weighting == "distance":
                        assert len(ranked) == len(blocks)
                        continue
                    # a block min(k, m) wide is its rows' first-k set; only the others are ranked
                    wide = [cols.shape[1] > min(k, m) for _, cols, _ in blocks]
                    assert len(ranked) == sum(wide)
                    set_route += len(blocks) - sum(wide)
                    fallback += sum(wide)
    assert set_route > 0 and fallback > 0


def test_knn_rejects_bad_params():
    with pytest.raises(ClassifierError):
        KnnParams(0, "uniform", "euclidean")
    with pytest.raises(ClassifierError):
        KnnParams(3, "nearest", "euclidean")
    with pytest.raises(ClassifierError):
        KnnParams(3, "uniform", "cosine")


# ------------------------------------------------------------------ gnb

def test_gnb_separated_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal(-1.0, 0.05, size=(30, 2))
    b = rng.normal(1.0, 0.05, size=(30, 2))
    feats = np.vstack([a, b])
    labels = np.array([0] * 30 + [1] * 30)
    model = gnb_fit(mapped(feats, labels))
    assert gnb_predict(model, np.array([[0.9, 0.9]]))[0] == 1
    assert gnb_predict(model, np.array([[-0.9, -0.9]]))[0] == 0


def test_gnb_symmetric_tie_takes_lowest_id():
    feats = [[-1.0], [-3.0], [1.0], [3.0]]
    model = gnb_fit(mapped(feats, [0, 0, 1, 1]))
    assert gnb_predict(model, np.array([[0.0]]))[0] == 0


def test_gnb_moments_match_numpy():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(50, 4))
    labels = rng.integers(0, 2, size=50)
    model = gnb_fit(mapped(feats, labels))
    assert model.priors.sum() == pytest.approx(1.0)
    for c in (0, 1):
        rows = feats[labels == c]
        assert np.allclose(model.means[c], rows.mean(axis=0))
        assert np.all(model.variances[c] >= np.var(rows, axis=0))
        assert model.priors[c] == pytest.approx(len(rows) / 50)


def test_gnb_variance_floor_on_constant_feature():
    feats = [[1.0, 0.0], [1.0, 1.0], [1.0, 4.0], [1.0, 5.0]]
    model = gnb_fit(mapped(feats, [0, 0, 1, 1]))
    assert np.all(model.variances > 0)
    out = gnb_predict(model, np.array([[1.0, 0.5], [1.0, 4.5]]))
    assert out.tolist() == [0, 1]


def test_gnb_all_constant_features_still_finite():
    feats = np.ones((6, 2))
    model = gnb_fit(mapped(feats, [0, 0, 0, 1, 1, 1]))
    out = gnb_predict(model, np.ones((2, 2)))
    assert np.all((out == 0) | (out == 1))


def test_gnb_brute_force_oracle():
    # evaluate prior * prod(pdf) in linear space with the fitted moments
    rng = np.random.default_rng(4)
    for trial in range(200):
        n = int(rng.integers(6, 25))
        n_classes = int(rng.integers(2, 4))
        labels = rng.integers(0, n_classes, size=n)
        while len(np.unique(labels)) < n_classes:
            labels = rng.integers(0, n_classes, size=n)
        feats = rng.normal(size=(n, 3)) * rng.uniform(0.5, 2.0)
        model = gnb_fit(mapped(feats, labels, n_classes))
        queries = rng.normal(size=(4, 3))
        got = gnb_predict(model, queries)
        for qi, q in enumerate(queries):
            scores = []
            for ci in range(len(model.class_ids)):
                pdf = np.exp(-0.5 * (q - model.means[ci]) ** 2
                             / model.variances[ci])
                pdf /= np.sqrt(2 * math.pi * model.variances[ci])
                scores.append(model.priors[ci] * np.prod(pdf))
            winner = model.class_ids[int(np.argmax(scores))]
            assert got[qi] == winner


def test_gnb_class_ids_ascending():
    feats = np.arange(12.0).reshape(6, 2)
    model = gnb_fit(mapped(feats, [2, 0, 2, 1, 0, 1]))
    assert model.class_ids.tolist() == [0, 1, 2]


def test_gnb_single_class_always_predicts_it():
    model = gnb_fit(mapped(np.ones((3, 1)), [1, 1, 1], 2))
    assert gnb_predict(model, np.zeros((4, 1))).tolist() == [1, 1, 1, 1]


def test_fit_rejects_empty_training_data():
    empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), ["a", "b"])
    with pytest.raises(ClassifierError):
        knn_fit(empty, params(1))
    with pytest.raises(ClassifierError):
        gnb_fit(empty)


def test_gnb_predict_rejects_queries_of_another_width():
    ds = Dataset(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]), np.array([0, 1, 1]), ["a", "b"])
    with pytest.raises(ClassifierError, match="^query width does not match the fitted model$"):
        gnb_predict(gnb_fit(ds), np.zeros((2, 3)))


def test_gnb_predict_reuses_one_buffer_across_classes():
    rng = np.random.default_rng(43)
    queries = rng.random((20_000, 40))
    model = gnb_fit(mapped(queries, np.arange(20_000) % 3))
    _, peak = traced_peak(gnb_predict, model, queries)
    assert peak < 1.3 * queries.nbytes, peak / queries.nbytes
