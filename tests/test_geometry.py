import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kernelcast import geometry
from kernelcast.errors import KernelcastError
from kernelcast.sampling import finalize_references
from spies import CallSpy


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
    geo = geometry.TrainingGeometry(np.asarray(points, dtype=float))
    return finalize_references(geo, picked, "centroids", "euclidean", "random").refs


def test_nearest_reference_basic():
    # [9, 0] is nearest to reference 1 and moves its centroid
    refs = voronoi_centroids([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0], [9.0, 0.0]], [0, 1, 2])
    assert np.array_equal(refs, [[0.0, 0.0], [9.5, 0.0], [5.0, 5.0]])


def test_nearest_reference_tie_lowest_index():
    # [0, 0] is equidistant from both references and joins the first
    refs = voronoi_centroids([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]], [0, 1])
    assert np.array_equal(refs, [[0.5, 0.0], [-1.0, 0.0]])


# ------------------------------------------------------ training geometry

def training_rows(rng, n, d):
    """Gaussian rows with duplicate rows and, for the angle distance, zero rows."""
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 50.0)
    x[rng.integers(0, n, size=n // 5)] = x[rng.integers(0, n, size=n // 5)]
    x[rng.random(n) < 0.1] = 0.0
    return x


def random_subset(rng, n):
    """None (every row), or a random ordered subset of row ids, possibly repeating."""
    size = int(rng.integers(1, n + 1))
    return None if size == n else rng.choice(n, size=size, replace=bool(rng.random() < 0.2))


@pytest.mark.parametrize("d", [2, 5, 10, 34])
@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_training_geometry_equals_pairwise_bit_for_bit(kind, d):
    rng = np.random.default_rng(d)
    x = training_rows(rng, 60, d)
    geo = geometry.TrainingGeometry(x)
    every = np.arange(len(x))
    for _ in range(40):
        rows, cols = random_subset(rng, len(x)), random_subset(rng, len(x))
        if rng.random() < 0.3:
            rows = [int(rng.integers(len(x)))]  # the samplers' one-row and one-column calls
        elif rng.random() < 0.3:
            cols = [int(rng.integers(len(x)))]
        want = geometry.pairwise(kind, x[every if rows is None else rows],
                                 x[every if cols is None else cols])
        got = geo.distances(kind, rows, cols)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_training_geometry_euclidean_self_matrix_is_exactly_symmetric():
    x = training_rows(np.random.default_rng(3), 80, 7)
    full = geometry.TrainingGeometry(x).distances("euclidean")
    assert np.array_equal(full, full.T)
    assert full.tobytes() == geometry.pairwise("euclidean", x, x).tobytes()


def record_pairwise_rows(monkeypatch):
    """Patch geometry.pairwise to record its first operand; return the list."""
    calls = []
    pairwise = geometry.pairwise
    monkeypatch.setattr(geometry, "pairwise", lambda *a: calls.append(a[1]) or pairwise(*a))
    return calls


def test_training_geometry_past_its_cell_budget_gives_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(4)
    x = training_rows(rng, 40, 5)
    monkeypatch.setattr(geometry, "_KEPT_CELLS", len(x) ** 2 - 1)  # one cell short: keep nothing
    pairwise = geometry.pairwise
    calls = record_pairwise_rows(monkeypatch)
    geo = geometry.TrainingGeometry(x)
    served = []  # the rows each request computes: the column rows when there are fewer
    for _ in range(3):
        for rows in ([0, 1], [5], None, [7, 2, 9], [0]):
            want = pairwise("euclidean", x[np.arange(40) if rows is None else rows], x[:20])
            assert geo.distances("euclidean", rows, np.arange(20)).tobytes() == want.tobytes()
            served.append(np.arange(20) if rows is None else rows)
    # Each request is one pairwise call on the rows it asks for, every time.
    assert len(calls) == len(served) == 15
    for a, rows in zip(calls, served):
        assert a.tobytes() == x[rows].tobytes()


def test_training_geometry_within_its_cell_budget_computes_each_row_once(monkeypatch):
    rng = np.random.default_rng(4)
    x = training_rows(rng, 40, 5)
    monkeypatch.setattr(geometry, "_KEPT_CELLS", len(x) ** 2)  # the whole matrix, exactly
    pairwise = geometry.pairwise
    calls = record_pairwise_rows(monkeypatch)
    geo = geometry.TrainingGeometry(x)
    for _ in range(3):
        for rows in ([0, 1], [5], None, [7, 2, 9], [0]):
            want = pairwise("euclidean", x[np.arange(40) if rows is None else rows], x[:20])
            assert geo.distances("euclidean", rows, np.arange(20)).tobytes() == want.tobytes()
    # Rows 0, 1 and 5 come first; the all-rows request computes the 17 other
    # column rows; every later request is served from the kept rows.
    assert [len(a) for a in calls] == [2, 1, 17]
    assert geo.distances("euclidean").tobytes() == pairwise("euclidean", x, x).tobytes()
    assert [len(a) for a in calls] == [2, 1, 17, 20]


# ------------------------------------------------------------------ nearest

def assert_nearest_is_stable_argsort_prefix(kind, queries, train, k):
    order, dists = geometry.nearest(kind, queries, train, k)
    full = geometry.pairwise(kind, queries, train)
    want = np.argsort(full, axis=1, kind="stable")[:, :k]
    assert order.shape == want.shape and np.array_equal(order, want)
    want_dists = np.take_along_axis(full, want, axis=1)
    assert np.array_equal(dists.view(np.int64), want_dists.view(np.int64))
    # unordered: the same first-k set per row, in any order
    order, dists = geometry.nearest(kind, queries, train, k, ordered=False)
    assert dists is None and np.array_equal(np.sort(order, axis=1), np.sort(want, axis=1))


def gaussian_rows(rng, n, m, d):
    return rng.normal(size=(n, d)), rng.normal(size=(m, d))


def duplicate_rows(rng, n, m, d):
    train = rng.normal(size=(m, d))
    train = train[rng.integers(0, m, size=m)]
    return np.vstack([train[:n], rng.normal(size=(n, d))])[:n], train


def lattice_rows(rng, n, m, d):
    # small integer coordinates: many exact ties, also at the k-th distance
    return (rng.integers(-2, 3, size=(n, d)).astype(float),
            rng.integers(-2, 3, size=(m, d)).astype(float))


def zero_rows(rng, n, m, d):
    queries, train = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    queries[rng.random(n) < 0.4] = 0.0
    train[rng.random(m) < 0.4] = 0.0
    return queries, train


def offset_rows(rng, n, m, d):
    # |a|^2 + |b|^2 - 2ab cancels almost every digit here
    return 1e6 + 1e-3 * rng.normal(size=(n, d)), 1e6 + 1e-3 * rng.normal(size=(m, d))


def huge_rows(rng, n, m, d):
    # squared norms overflow to inf
    return 1e160 * rng.normal(size=(n, d)), 1e160 * rng.normal(size=(m, d))


def near_overflow_rows(rng, n, m, d):
    # squared norms stay finite, (|a| + |b|)^2 does not
    queries, train = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    unit = lambda x: x / np.linalg.norm(x, axis=1, keepdims=True)
    return 1.2e154 * unit(queries), 1.2e154 * unit(train)


NEAREST_INPUTS = [gaussian_rows, duplicate_rows, lattice_rows, zero_rows, offset_rows,
                  huge_rows, near_overflow_rows]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("make", NEAREST_INPUTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_nearest_equals_stable_argsort_prefix(monkeypatch, kind, make):
    rng, blocks = np.random.default_rng(9), np.random.default_rng(19)
    default = geometry._BLOCK_ELEMENTS
    for _ in range(25):
        n, m, d = (int(x) for x in rng.integers(1, [20, 40, 10]))
        queries, train = make(rng, n, m, d)
        # one to three query rows per euclidean block, or the default block size
        small = m * (d + 8) * int(blocks.integers(1, 4))
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", small if blocks.random() < 0.5 else default)
        for k in {1, m // 2 + 1, m, m + 3}:
            assert_nearest_is_stable_argsort_prefix(kind, queries, train, k)


@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_nearest_single_training_row_and_single_query(kind):
    rng = np.random.default_rng(10)
    assert_nearest_is_stable_argsort_prefix(kind, rng.normal(size=(7, 3)),
                                            rng.normal(size=(1, 3)), 5)
    assert_nearest_is_stable_argsort_prefix(kind, rng.normal(size=(1, 3)),
                                            rng.normal(size=(30, 3)), 4)


def test_nearest_breaks_ties_at_kth_distance_by_index():
    train = np.array([[3.0], [1.0], [-1.0], [0.0], [1.0], [-1.0]])
    order, dists = geometry.nearest("euclidean", np.array([[0.0]]), train, 3)
    assert order.tolist() == [[3, 1, 2]] and dists.tolist() == [[0.0, 1.0, 1.0]]


@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_nearest_over_several_query_blocks(kind):
    # more query rows than one euclidean block holds at this width
    rng = np.random.default_rng(11)
    train = rng.random((400, 16))
    queries = np.vstack([rng.random((1200, 16)), train[:50]])
    for k in (1, 21):
        assert_nearest_is_stable_argsort_prefix(kind, queries, train, k)


def test_nearest_rejects_bad_arguments():
    with pytest.raises(ValueError):
        geometry.nearest("euclidean", np.ones((2, 3)), np.ones((2, 3)), 0)
    with pytest.raises(ValueError):
        geometry.nearest("euclidean", np.ones((2, 3)), np.ones((2, 4)), 1)
    with pytest.raises(ValueError):
        geometry.nearest("manhattan", np.ones((2, 3)), np.ones((2, 3)), 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_nearest_over_small_blocks_of_mixed_kept_widths(monkeypatch, kind):
    kept = []  # per packed block: distinct kept counts, and whether a row keeps more than k
    pack = geometry._pack
    monkeypatch.setattr(geometry, "_pack", lambda keep, k, *rest: kept.append(
        (np.unique(keep.sum(axis=1)).size, keep.sum(axis=1).max() > k)) or pack(keep, k, *rest))
    rng = np.random.default_rng(13)
    for _ in range(80):
        n, m, d = (int(x) for x in rng.integers(1, [30, 25, 5]))
        # one to three query rows per euclidean block
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", m * (d + 8) * int(rng.integers(1, 4)))
        # lattice rows tie at the k-th distance, duplicate training rows tie everywhere
        queries = rng.integers(-1, 2, size=(n, d)).astype(float)
        noisy = rng.random(n) < 0.5
        queries[noisy] += rng.normal(size=(noisy.sum(), d))
        train = rng.integers(-1, 2, size=(m, d)).astype(float)[rng.integers(0, m, size=m)]
        for rows in (queries, train):
            bad = np.flatnonzero(rng.random(rows.shape[0]) < 0.1)
            rows[bad, rng.integers(0, d, size=bad.size)] = rng.choice([np.inf, -np.inf, np.nan],
                                                                      size=bad.size)
        for k in {1, m // 2 + 1, m}:
            assert_nearest_is_stable_argsort_prefix(kind, queries, train, k)
    # both the padded and the uniform-width packing ran, on blocks exactly k wide and wider
    widths, wide = zip(*kept)
    assert 1 in widths and max(widths) > 1 and any(wide) and not all(wide)


def test_nearest_copies_the_training_rows_only_for_an_exact_rerank(monkeypatch):
    # Only an exact euclidean re-rank reads the NaN-padded copy of the training
    # rows: angle calls, and unordered blocks exactly k wide, never make it.
    rng = np.random.default_rng(31)
    queries, train = rng.normal(size=(40, 5)), rng.normal(size=(30, 5))
    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 30 * (5 + 8) * 4)  # ten blocks a call
    for kind, ordered, copies in [("angle", True, 0), ("angle", False, 0),
                                  ("euclidean", False, 0), ("euclidean", True, 1)]:
        spy = CallSpy("concatenate")
        monkeypatch.setattr(geometry, "np", spy)
        order, _ = geometry.nearest(kind, queries, train, 3, ordered)
        assert spy.calls == copies, (kind, ordered)  # one copy per call, kept for every block
        want = np.argsort(geometry.pairwise(kind, queries, train), axis=1, kind="stable")[:, :3]
        assert np.array_equal(order if ordered else np.sort(order, axis=1),
                              want if ordered else np.sort(want, axis=1))


# ------------------------------------------------------ block boundaries

def block_boundary_rows(rng, n, m, d):
    """Ties at the k-th value in rows of several blocks, zero and NaN rows."""
    train = rng.normal(size=(m, d))[rng.integers(0, m, size=m)]  # duplicates tie
    train[rng.random(m) < 0.1] = 0.0
    queries = rng.normal(size=(n, d))
    queries[rng.integers(0, n, size=n // 4)] = train[0]  # the same ties, block after block
    queries[rng.random(n) < 0.1] = 0.0
    queries[rng.random(n) < 0.1] = np.nan
    return queries, train


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", geometry.DISTANCE_KINDS)
def test_nearest_keeps_the_full_product_bytes_across_row_blocks(monkeypatch, kind):
    # Angle blocks read rows of one full product: a product of each row block
    # differs from those rows of the full product in the last bits here.
    calls = []  # per _shortlists call: its query rows and the row span of each block
    shortlists = geometry._shortlists

    def spy(kind, q, t, k):
        calls.append((q.shape[0], []))
        for part in shortlists(kind, q, t, k):
            calls[-1][1].append(part[0])
            yield part

    monkeypatch.setattr(geometry, "_shortlists", spy)
    monkeypatch.setattr(geometry, "_DIFF_ELEMENTS", 1)
    rng = np.random.default_rng(23)
    for _ in range(40):
        n, m, d = (int(x) for x in rng.integers([20, 2, 1], [60, 40, 30]))
        queries, train = block_boundary_rows(rng, n, m, d)
        rows = int(rng.integers(2, 8))  # rows per block
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", m * (d + 8) * rows)
        for k in {1, m // 2 + 1, m, m + 3}:
            assert_nearest_is_stable_argsort_prefix(kind, queries, train, k)
    # every call spans three blocks or more, and some end on a ragged block
    assert all(len(spans) >= 3 for _, spans in calls)
    assert any(spans[-1].stop > n for n, spans in calls)


def test_euclidean_pairwise_gives_the_same_bytes_at_every_block_size(monkeypatch):
    rng = np.random.default_rng(29)
    for _ in range(20):
        n, m, d = (int(x) for x in rng.integers(1, [40, 30, 12]))
        a, b = rng.normal(size=(n, d)), 1e3 * rng.normal(size=(m, d))
        want = geometry.pairwise("euclidean", a, b).tobytes()
        for rows in range(1, n + 1):
            monkeypatch.setattr(geometry, "_DIFF_ELEMENTS", m * d * rows)
            assert geometry.pairwise("euclidean", a, b).tobytes() == want


# ------------------------------------------- the shortlist's error bound

def exact_ranking(queries, train):
    """Per query row, every training row by exact squared distance, ties by column."""
    exact = [[Fraction(x) for x in row] for row in train]
    ranking = []
    for a in queries:
        a = [Fraction(x) for x in a]
        sq = [sum((x - y) ** 2 for x, y in zip(a, b)) for b in exact]
        ranking.append(sorted(range(len(train)), key=lambda j: (sq[j], j)))
    return ranking


def tiny_rows(rng, n, m, d, k):
    # Squares of 1e-161 underflow: Gram values are subnormal or zero, a few
    # hundred subnormal units apart, so rounding to those units reorders them.
    scale = rng.choice([1e-160, 1e-161])
    return scale * rng.normal(size=(n, d)), scale * rng.normal(size=(m, d))


def large_rows(rng, n, m, d, k):
    # squares near 1e301, (|a| + |b|)^2 still finite
    return 1e150 * rng.normal(size=(n, d)), 1e150 * rng.normal(size=(m, d))


def subnormal_rows(rng, n, m, d, k):
    rows = []
    for count in (n, m):
        x = rng.normal(size=(count, d))
        subnormal = rng.random((count, d)) < 0.5
        subnormal[rng.random(count) < 0.3] = True  # whole rows of subnormal coordinates
        x[subnormal] = rng.integers(-60, 61, size=subnormal.sum()) * np.finfo(float).smallest_subnormal
        rows.append(x)
    return tuple(rows)


def duplicated_rows(rng, n, m, d, k):
    train = rng.normal(size=(m, d))[rng.integers(0, m, size=m)]
    queries = rng.normal(size=(n, d))
    copies = rng.random(n) < 0.5
    queries[copies] = train[rng.integers(0, m, size=copies.sum())]
    return queries, train


def ulp_ladder_rows(rng, n, m, d, k):
    """Training rows one ulp apart in distance from query row 0, from the k-th place on.

    Each training row differs from query row 0 in one of a few coordinates, by
    an offset that stays on those coordinates' grid (multiples of 2^-42 below
    2^11 in magnitude), so its exact distance is the offset: k - 1 rows lie
    nearer, the ladder 1024, 1024 + ulp, 1024 + ulp (a tie by column),
    1024 + 2 ulp, ... starts at the k-th place, and the rest lie farther.  The
    query's other coordinates are large, so the Gram values' rounding is far
    larger than the ladder's steps.
    """
    grid = 2.0 ** -42  # the ulp of 1024
    queries = 1e5 * rng.normal(size=(n, d))
    axes = rng.choice(d, size=int(rng.integers(1, min(d, 3) + 1)), replace=False)
    queries[:, axes] = np.round(rng.uniform(-1000.0, 1000.0, size=(n, axes.size)) / grid) * grid
    ladder = 1024.0 + grid * np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    offsets = np.concatenate([rng.integers(100, 1000, size=k - 1), ladder,
                              rng.integers(1025, 1048, size=m)])[:m]
    train = np.repeat(queries[:1], m, axis=0)
    signs = rng.choice([-1.0, 1.0], size=m)
    train[np.arange(m), rng.choice(axes, size=m)] += signs * offsets[rng.permutation(m)]
    return queries, train


BOUND_INPUTS = [tiny_rows, large_rows, subnormal_rows, duplicated_rows, ulp_ladder_rows]


@pytest.mark.parametrize("make", BOUND_INPUTS, ids=lambda f: f.__name__)
def test_shortlists_hold_the_exact_first_k(monkeypatch, make):
    # Every training row among the first k by exact squared distance, ties by
    # column, is a candidate of its query row: at the default block size and
    # at three query rows per block, whose last block is often partial.
    rng = np.random.default_rng(41)
    default, partial = geometry._BLOCK_ELEMENTS, 0
    for _ in range(12):
        n, m, d = (int(x) for x in rng.integers(1, [21, 21, 13]))
        for k in sorted({1, int(rng.integers(1, m + 1)), m}):
            queries, train = make(rng, n, m, d, k)
            ranking = exact_ranking(queries, train)
            for elements in (default, m * (d + 8) * 3):
                monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
                seen = 0
                for rows, cols, _ in geometry._shortlists("euclidean", queries, train, k):
                    for i, kept in zip(range(n)[rows], cols):
                        assert set(ranking[i][:k]) <= set(kept.tolist()), (i, k)
                        seen += 1
                    partial += rows.start > 0 and rows.stop > n  # a partial block after a full one
                assert seen == n
    assert partial > 0


# ------------------------------------------- the angle shortlist's margin

def scaled_copy_rows(rng, n, m, d):
    """Copies of one direction at many scales, among random rows: cosines of
    the copies differ in the last bits, and some round above 1."""
    v = rng.normal(size=d)
    rows = [rng.normal(size=(c, d)) for c in (n, m)]
    for x in rows:
        copies = rng.random(x.shape[0]) < 0.7
        x[copies] = v * rng.uniform(0.01, 100.0, size=(copies.sum(), 1))
    return tuple(rows)


def antiparallel_rows(rng, n, m, d):
    """Copies of one direction and of its opposite: cosines a few ulps from -1 and 1."""
    v = rng.normal(size=d)
    return tuple(v * rng.choice([-1.0, 1.0], size=(c, 1)) * rng.uniform(0.01, 100.0, size=(c, 1))
                 for c in (n, m))


def orthogonal_zero_rows(rng, n, m, d):
    """Zero rows among rows nearly orthogonal to the queries: cosines of order
    1e-17 round to the zero rows' angle pi/2, a tie by column."""
    queries = np.zeros((n, d))
    queries[:, 0] = rng.uniform(0.5, 2.0, size=n)
    train = rng.normal(size=(m, d))
    train[:, 0] = 1e-17 * rng.normal(size=m)
    queries[rng.random(n) < 0.2] = 0.0
    train[rng.random(m) < 0.3] = 0.0
    return queries, train


def non_finite_angle_rows(rng, n, m, d):
    rows = scaled_copy_rows(rng, n, m, d)
    for x in rows:
        bad = np.flatnonzero(rng.random(x.shape[0]) < 0.2)
        x[bad, rng.integers(0, d, size=bad.size)] = rng.choice([np.inf, -np.inf, np.nan],
                                                               size=bad.size)
    return rows


def underflowing_norm_rows(rng, n, m, d):
    """Copies of one direction and its opposite whose squared norms underflow
    into subnormals: their unit rows' norms, and the cosines, miss 1 by ~1e-4."""
    queries, train = antiparallel_rows(rng, n, m, d)
    return 1e-160 * queries, 1e-160 * train


ANGLE_INPUTS = [scaled_copy_rows, antiparallel_rows, orthogonal_zero_rows,
                non_finite_angle_rows, underflowing_norm_rows]


def angle_cases(rng, make, default):
    """Seeded angle inputs from ``make``, each with a block size and the ks to try."""
    for _ in range(15):
        n, m, d = (int(x) for x in rng.integers([1, 2, 2], [25, 30, 8]))
        queries, train = make(rng, n, m, d)
        # one and three query rows per block, and the default block size
        for elements in (m * (d + 8), m * (d + 8) * 3, default):
            yield queries, train, elements, {1, m // 2 + 1, m - 1, m, m + 2}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("make", ANGLE_INPUTS, ids=lambda f: f.__name__)
def test_angle_shortlist_keeps_every_cell_that_can_rank(monkeypatch, make):
    # Angles of the shortlisted cosines only, ranked, equal a stable sort of
    # pairwise's angles, bit for bit, both orders and k from 1 past m.
    rng = np.random.default_rng(43)
    for queries, train, elements, ks in angle_cases(rng, make, geometry._BLOCK_ELEMENTS):
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
        for k in ks:
            assert_nearest_is_stable_argsort_prefix("angle", queries, train, k)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_angle_inputs_need_the_margin(monkeypatch):
    # The inputs above are sharp: cosines above 1, and distinct cosines whose
    # angles tie, so a shortlist without the margin misses a cell that ranks.
    rng = np.random.default_rng(43)
    default, above_one, missed = geometry._BLOCK_ELEMENTS, 0, 0
    monkeypatch.setattr(geometry, "_COS_MARGIN", 0.0)
    for make in ANGLE_INPUTS:
        for queries, train, elements, ks in angle_cases(rng, make, default):
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
            with np.errstate(invalid="ignore"):
                above_one += (geometry._cosines(queries, train) > 1).any()
                full = geometry.pairwise("angle", queries, train)
                for k in ks:
                    want = np.argsort(full, axis=1, kind="stable")[:, :k]
                    for rows, cols, _ in geometry._shortlists("angle", queries, train, min(k, len(train))):
                        missed += sum(not set(w) <= set(c) for w, c in zip(want[rows].tolist(), cols.tolist()))
    assert above_one > 0 and missed > 0


def test_arccos_separates_cosines_one_margin_apart():
    # The angle shortlist's one assumption about numpy's arccos: a cosine one
    # margin below another gets a strictly larger angle, checked densely where
    # arccos is steepest (near -1 and 1) and flattest (near 0).
    margin = geometry._COS_MARGIN
    steps = np.arange(-300_000, 300_001)
    for centre in (-1.0 + margin, 0.0, 1.0):
        for spacing in (np.spacing(centre) if centre else 2.0 ** -80, margin / 7):
            c = centre + spacing * steps
            c = c[(c - margin >= -1.0) & (c <= 1.0)]
            assert c.size > 300_000
            assert (np.arccos(c - margin) > np.arccos(c)).all(), centre


# ------------------------------------------------------ transient memory

def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("kind,bound", [("angle", 1.8), ("euclidean", 0.6)],
                         ids=["angle", "euclidean"])
def test_nearest_peak_memory_stays_near_one_distance_matrix(kind, bound):
    # Angle keeps one full product; partition, mask and pack run by row block.
    rng = np.random.default_rng(31)
    queries, train = rng.random((4900, 16)), rng.random((400, 16))
    cells = 8 * queries.shape[0] * train.shape[0]
    for ordered in (True, False):
        _, peak = traced_peak(geometry.nearest, kind, queries, train, 21, ordered)
        assert peak < bound * cells, peak / cells


@pytest.mark.parametrize("kind,shape,d,bound", [("angle", (4900, 400), 16, 1.5),
                                                ("euclidean", (50_000, 16), 10, 3.0)],
                         ids=["angle", "euclidean"])
def test_pairwise_peak_memory_stays_near_its_result(kind, shape, d, bound):
    # Angles clip in place; euclidean subtraction blocks stay cache-sized.
    rng = np.random.default_rng(37)
    result, peak = traced_peak(geometry.pairwise, kind, rng.random((shape[0], d)),
                               rng.random((shape[1], d)))
    assert peak < bound * result.nbytes, peak / result.nbytes


@pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
def test_row_vectors_must_form_a_matrix(shape):
    with pytest.raises(KernelcastError, match="^expected a 2-d array of row vectors$"):
        geometry.pairwise("euclidean", np.zeros(shape), np.zeros((2, 3)))
    with pytest.raises(KernelcastError, match="^expected a 2-d array of row vectors$"):
        geometry.TrainingGeometry(np.zeros(shape))
