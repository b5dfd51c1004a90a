import math
import warnings

import numpy as np
import pytest

from kernelcast import geometry, serialize
from kernelcast.data import Dataset
from kernelcast.kernelmap import (KERNEL_KINDS, KernelError, kernel_matrix,
                                  map_dataset, map_matrix)
from kernelcast.modelsel import (Configuration, fit_pipeline, kms_fit, prepare_fold,
                                 sample_references)
from kernelcast.sampling import REF_TYPES, SAMPLER_KINDS, ReferenceSet, make_reference_set
from synthdata import random_dataset
from test_geometry import traced_peak


def refs_of(points, sigmas, dist="euclidean"):
    return ReferenceSet(np.asarray(points, dtype=float),
                        np.asarray(sigmas, dtype=float),
                        "random", dist, "centers")


def response(kind, dist, sigma):
    """Kernel response for one distance/scale pair: ``kernel_matrix`` on a 1x1 array."""
    return kernel_matrix(kind, np.array([[dist]]), np.array([sigma]))[0, 0]


def test_gaussian_zero_distance_is_one():
    assert response("gaussian", 0.0, 3.0) == 1.0


def test_gaussian_at_sigma():
    assert response("gaussian", 2.0, 2.0) == pytest.approx(math.exp(-1.0))


def test_cauchy_at_sigma_is_half():
    assert response("cauchy", 7.0, 7.0) == pytest.approx(0.5)


def test_sigmoid_at_sigma_is_half():
    assert response("sigmoid", 1.5, 1.5) == pytest.approx(0.5)


def test_sigmoid_increases_with_distance():
    # this kernel grows as the point moves away from the reference
    lo = response("sigmoid", 0.0, 1.0)
    hi = response("sigmoid", 5.0, 1.0)
    assert lo < 0.5 < hi


def test_linear_passes_distance_through():
    assert response("linear", 4.25, 99.0) == 4.25


def test_cauchy_worked_example():
    feats = np.array([[0.0, 0.0]])
    refs = refs_of([[3.0, 4.0], [0.0, 1.0]], [5.0, 1.0])
    mapped = map_matrix(feats, refs, "cauchy")
    # distances (5, 1) with sigmas (5, 1) -> 1/(1+1) each
    assert np.allclose(mapped, [[0.5, 0.5]])


def test_mapped_shape_is_n_by_k():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(17, 3))
    refs = refs_of(rng.normal(size=(5, 3)), np.ones(5))
    for kernel in KERNEL_KINDS:
        assert map_matrix(feats, refs, kernel).shape == (17, 5)


def test_map_dataset_keeps_labels():
    feats = np.array([[0.0], [1.0], [2.0]])
    ds = Dataset(feats, np.array([0, 1, 0]), ["a", "b"])
    refs = refs_of([[0.0]], [1.0])
    mds = map_dataset(ds, refs, "gaussian")
    assert np.array_equal(mds.labels, ds.labels)
    assert mds.label_names == ds.label_names
    assert mds.features.shape == (3, 1)


@pytest.mark.parametrize("kernel,decreasing", [
    ("gaussian", True), ("cauchy", True), ("sigmoid", False),
])
def test_monotone_in_distance(kernel, decreasing):
    dists = np.linspace(0.0, 20.0, 50).reshape(-1, 1)
    values = kernel_matrix(kernel, dists, np.array([2.0])).ravel()
    diffs = np.diff(values)
    assert np.all(diffs < 0) if decreasing else np.all(diffs > 0)


@pytest.mark.parametrize("kernel", ["gaussian", "sigmoid", "cauchy"])
def test_bounded_kernels_stay_in_unit_interval(kernel):
    rng = np.random.default_rng(1)
    dists = rng.uniform(0.0, 1e6, size=(40, 3))
    sigmas = rng.uniform(1e-3, 1e3, size=3)
    values = kernel_matrix(kernel, dists, sigmas)
    assert np.all(values >= 0.0) and np.all(values <= 1.0)


def test_no_overflow_at_extreme_arguments():
    # ratios reach 1e300; without the exponent clamp the sigmoid/gaussian
    # paths would trip numpy overflow warnings
    dists = np.array([[0.0, 1e150], [1e150, 0.0]])
    sigmas = np.array([1e-150, 1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in KERNEL_KINDS:
            values = kernel_matrix(kernel, dists, sigmas)
            assert np.all(np.isfinite(values))


def test_single_row_matches_batch_row():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(6, 2))
    refs = refs_of(rng.normal(size=(3, 2)), rng.uniform(0.5, 2.0, size=3))
    for kernel in KERNEL_KINDS:
        batch = map_matrix(feats, refs, kernel)
        for i in range(6):
            one = map_matrix(feats[i:i + 1], refs, kernel)
            assert np.array_equal(one[0], batch[i])


def test_angle_distance_respected():
    feats = np.array([[1.0, 0.0]])
    refs = refs_of([[0.0, 1.0]], [math.pi / 2], dist="angle")
    mapped = map_matrix(feats, refs, "cauchy")
    # angle pi/2 equals sigma -> 0.5
    assert mapped[0, 0] == pytest.approx(0.5)


def test_rejects_nonpositive_sigma():
    with pytest.raises(KernelError):
        response("gaussian", 1.0, 0.0)
    with pytest.raises(KernelError):
        kernel_matrix("cauchy", np.ones((2, 2)), np.array([1.0, -3.0]))


def test_rejects_unknown_kernel():
    with pytest.raises(KernelError):
        response("rbf", 1.0, 1.0)


SAMPLER_CASES = [(sampler, dist, ref_type)
                 for sampler in SAMPLER_KINDS
                 for dist in (("euclidean",) if sampler == "kmeans" else geometry.DISTANCE_KINDS)
                 for ref_type in (("centroids",) if sampler == "kmeans" else REF_TYPES)]


@pytest.mark.parametrize("sampler,dist,ref_type", SAMPLER_CASES)
def test_fitted_rows_map_with_the_samplers_distances(monkeypatch, sampler, dist, ref_type):
    ds = random_dataset(np.random.default_rng(4), 60, 3)
    refs = make_reference_set(geometry.TrainingGeometry(ds.features), sampler, 7, dist,
                              ref_type, 2)
    fresh = geometry.pairwise(dist, ds.features, refs.refs)
    calls = []
    pairwise = geometry.pairwise
    monkeypatch.setattr(geometry, "pairwise", lambda *a: calls.append(a) or pairwise(*a))
    for kernel in KERNEL_KINDS:
        want = kernel_matrix(kernel, fresh, refs.sigmas)
        mapped = map_matrix(ds.features, refs, kernel)
        assert mapped.flags.c_contiguous and mapped.tobytes() == want.tobytes()
        assert not calls
        # an equal copy of the rows is not the rows the sampler saw
        assert map_matrix(ds.features.copy(), refs, kernel).tobytes() == want.tobytes()
        assert len(calls) == 1
        calls.clear()
    linear = map_matrix(ds.features, refs, "linear")
    linear[:] = -1.0
    assert map_matrix(ds.features, refs, "linear").tobytes() == fresh.tobytes()


@pytest.mark.parametrize("classifier", ["gnb", "knn"])
def test_a_reloaded_model_carries_no_sampler_distances(classifier):
    ds = random_dataset(np.random.default_rng(5), 40, 2)
    cfg = Configuration.from_dict(dict(
        k_references=5, sampling_distance="euclidean", sampler="fft", kernel="linear",
        ref_type="centers", classifier=classifier,
        knn=dict(neighbors=3, weighting="uniform", distance="euclidean")
        if classifier == "knn" else None))
    fold = prepare_fold(cfg.scaler, ds)
    model = fit_pipeline(cfg, fold, sample_references(cfg, fold, 3))
    assert model.refs.fitted_dists is not None
    loaded = serialize.kms_from_doc(serialize.kms_to_doc(model))
    assert loaded.refs.fitted_rows is None and loaded.refs.fitted_dists is None
    assert serialize.to_json(loaded) == serialize.to_json(model)
    assert "fitted" not in serialize.to_json(model)
    # a refit model for training or an ensemble keeps no training-row matrix
    assert kms_fit(cfg, ds, 3).refs.fitted_dists is None


@pytest.mark.parametrize("kernel", KERNEL_KINDS)
def test_kernel_matrix_makes_one_array(kernel):
    # One fresh array per call, transformed in place.
    rng = np.random.default_rng(41)
    dists, sigmas = rng.random((20_000, 40)), rng.random(40) + 0.1
    _, peak = traced_peak(kernel_matrix, kernel, dists, sigmas)
    assert peak < 1.1 * dists.nbytes, peak / dists.nbytes
