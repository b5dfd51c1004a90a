import numpy as np
import pytest

from kernelcast import geometry
from kernelcast.data import Dataset
from kernelcast.sampling import finalize_references


def pair_distance(kind, x, c):
    """Distance between two vectors: ``pairwise`` on one-row matrices."""
    return geometry.pairwise(kind, np.reshape(x, (1, -1)), np.reshape(c, (1, -1)))[0, 0]


def test_euclidean_345_triangle():
    assert pair_distance("euclidean", [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_euclidean_identity_is_exactly_zero():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.normal(size=rng.integers(1, 8))
        assert pair_distance("euclidean", x, x) == 0.0


def test_angle_orthogonal_vectors():
    assert pair_distance("angle", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)


def test_angle_identity_near_zero():
    # arccos amplifies rounding near cos=1: one ulp off gives ~2.1e-8
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.normal(size=rng.integers(1, 8))
        assert pair_distance("angle", x, x) <= 1e-7


def test_angle_opposite_vectors():
    assert pair_distance("angle", [1.0, 2.0], [-1.0, -2.0]) == pytest.approx(np.pi)


def test_angle_zero_vector_convention():
    assert pair_distance("angle", [0.0, 0.0], [1.0, 1.0]) == pytest.approx(np.pi / 2)
    assert pair_distance("angle", [0.0, 0.0], [0.0, 0.0]) == pytest.approx(np.pi / 2)


def test_angle_scale_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, c = rng.normal(size=4), rng.normal(size=4)
        assert pair_distance("angle", x, c) == pytest.approx(
            pair_distance("angle", 7.5 * x, 0.2 * c), abs=1e-12)


@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_symmetry(kind):
    rng = np.random.default_rng(4)
    for _ in range(50):
        x, c = rng.normal(size=5), rng.normal(size=5)
        assert pair_distance(kind, x, c) == pytest.approx(
            pair_distance(kind, c, x), abs=1e-12)


@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_triangle_inequality(kind):
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, c = rng.normal(size=(3, 4))
        ab = pair_distance(kind, a, b)
        bc = pair_distance(kind, b, c)
        ac = pair_distance(kind, a, c)
        assert ac <= ab + bc + 1e-9


def test_angle_range():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(40, 3))
    d = geometry.pairwise("angle", pts, pts)
    assert d.min() >= 0.0 and d.max() <= np.pi


def test_pairwise_matches_scalar_loop():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
    for kind in geometry.DISTANCE_KINDS:
        mat = geometry.pairwise(kind, a, b)
        assert mat.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert mat[i, j] == pytest.approx(pair_distance(kind, a[i], b[j]), abs=1e-12)


def test_euclidean_brute_force_agreement():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(30, 5)), rng.normal(size=(20, 5))
    direct = np.array([[np.linalg.norm(x - y) for y in b] for x in a])
    assert np.allclose(geometry.pairwise("euclidean", a, b), direct, atol=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        geometry.pairwise("euclidean", np.ones((2, 3)), np.ones((2, 4)))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        pair_distance("manhattan", [0.0], [1.0])


def voronoi_centroids(points, picked):
    """Centroid references: each picked row becomes the mean of its Voronoi region."""
    ds = Dataset(np.asarray(points, dtype=float), np.zeros(len(points), dtype=int), ["a"])
    return finalize_references(ds, picked, "centroids", "euclidean", "random").refs


def test_nearest_reference_basic():
    # [9, 0] is nearest to reference 1 and moves its centroid
    refs = voronoi_centroids([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0], [9.0, 0.0]], [0, 1, 2])
    assert np.array_equal(refs, [[0.0, 0.0], [9.5, 0.0], [5.0, 5.0]])


def test_nearest_reference_tie_lowest_index():
    # [0, 0] is equidistant from both references and joins the first
    refs = voronoi_centroids([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], [0, 1])
    assert np.array_equal(refs, [[0.5, 0.0], [-1.0, 0.0]])
