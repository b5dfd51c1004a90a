import math

import numpy as np
import pytest

from kernelcast import geometry, rand
from kernelcast.data import Dataset
from kernelcast.sampling import (_LLOYD_MAX_ITERS, SamplingError,
                                 _kmeanspp_seed, _region_means, _sigmas,
                                 finalize_references, fft_traverse, lloyd,
                                 make_reference_set, sample_density,
                                 sample_fft, sample_kmeans, sample_random)
from synthdata import random_dataset


def flat(features, labels=None):
    features = np.asarray(features, dtype=float)
    if labels is None:
        labels = np.zeros(len(features), dtype=int)
    return Dataset(features, labels, ["a", "b"])


def geo_of(ds):
    """A fresh TrainingGeometry of a dataset's rows: what every sampler takes."""
    return geometry.TrainingGeometry(ds.features)


# ---------------------------------------------------------------- random

def test_random_exhaustive_when_k_equals_n():
    ds = flat(np.arange(10.0).reshape(5, 2))
    picked = sample_random(geo_of(ds), 5, seed=3)
    assert sorted(picked) == [0, 1, 2, 3, 4]


def test_random_deterministic_per_seed():
    ds = flat(np.random.default_rng(0).normal(size=(30, 2)))
    assert sample_random(geo_of(ds), 7, seed=5) == sample_random(geo_of(ds), 7, seed=5)
    assert sample_random(geo_of(ds), 7, seed=5) != sample_random(geo_of(ds), 7, seed=6)


def test_random_uniform_frequency():
    # 10^4 one-draw trials over 10 rows: every index within 3 sigma of p=0.1
    ds = flat(np.arange(20.0).reshape(10, 2))
    trials = 10_000
    counts = np.zeros(10)
    for t in range(trials):
        counts[sample_random(geo_of(ds), 1, seed=t)[0]] += 1
    freqs = counts / trials
    sigma = math.sqrt(0.1 * 0.9 / trials)
    assert np.all(np.abs(freqs - 0.1) <= 3 * sigma)


def test_random_rejects_bad_k():
    ds = flat(np.ones((4, 2)))
    with pytest.raises(SamplingError):
        sample_random(geo_of(ds), 5, seed=0)
    with pytest.raises(SamplingError):
        sample_random(geo_of(ds), 0, seed=0)


# ---------------------------------------------------------------- kmeans

def test_kmeans_k1_centroid_is_mean():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(40, 3))
    centroids, _, history = lloyd(feats, 1, rand.derive(1))
    assert np.allclose(centroids[0], feats.mean(axis=0), atol=1e-9)
    assert len(history) >= 1


def test_kmeans_k_distinct_points_zero_inertia():
    feats = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [9.0, 9.0]])
    centroids, _, history = lloyd(feats, 4, rand.derive(2))
    assert history[-1] == 0.0
    assert {tuple(c) for c in centroids} == {tuple(p) for p in feats}


def test_kmeans_two_separated_pairs():
    feats = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    centroids, _, _ = lloyd(feats, 2, rand.derive(3))
    got = sorted(centroids.tolist())
    assert np.allclose(got, [[0.0, 0.5], [10.0, 10.5]])


def test_kmeans_inertia_monotone():
    rng = np.random.default_rng(4)
    for trial in range(20):
        feats = rng.normal(size=(rng.integers(20, 80), rng.integers(1, 5)))
        k = int(rng.integers(1, min(8, len(feats))))
        _, _, history = lloyd(feats, k, rand.derive(trial))
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9 * max(1.0, history[0])


def test_kmeans_duplicate_heavy_data_survives():
    # more clusters than distinct positions exercises the reseeding path
    feats = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0)
    ds = flat(feats)
    refs = sample_kmeans(geo_of(ds), 5, seed=9)
    assert refs.k == 5
    assert np.all(refs.sigmas > 0)


def test_sample_kmeans_tags_and_determinism():
    ds = flat(np.random.default_rng(5).normal(size=(50, 3)))
    a = sample_kmeans(geo_of(ds), 6, seed=11)
    b = sample_kmeans(geo_of(ds), 6, seed=11)
    assert a.kind_used == "kmeans" and a.distance_used == "euclidean"
    assert a.ref_type == "centroids"
    assert np.array_equal(a.refs, b.refs) and np.array_equal(a.sigmas, b.sigmas)


# ---------------------------------------------------------------- density

def test_density_even_partition():
    ds = flat(np.random.default_rng(6).normal(size=(9, 2)))
    centers, regions = sample_density(geo_of(ds), 3, "euclidean", seed=1)
    assert len(centers) == 3
    sizes = np.bincount(regions)
    assert sizes.tolist() == [3, 3, 3]


def test_density_remainder_partition():
    # n=10, k=3 -> region size 4 -> batches of 4, 4, 2 and ceil(10/4)=3 centers
    ds = flat(np.random.default_rng(7).normal(size=(10, 2)))
    centers, regions = sample_density(geo_of(ds), 3, "euclidean", seed=2)
    assert len(centers) == 3
    assert sorted(np.bincount(regions).tolist()) == [2, 4, 4]


def test_density_k_equals_n_every_point_its_own_center():
    ds = flat(np.random.default_rng(8).normal(size=(6, 2)))
    centers, regions = sample_density(geo_of(ds), 6, "euclidean", seed=3)
    assert sorted(centers) == list(range(6))
    assert np.bincount(regions).tolist() == [1] * 6


@pytest.mark.parametrize("dist", ["euclidean", "angle"])
def test_density_partition_invariants(dist):
    rng = np.random.default_rng(9)
    for trial in range(15):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, n + 1))
        ds = flat(rng.normal(size=(n, 3)) + 1.0)
        centers, regions = sample_density(geo_of(ds), k, dist, seed=trial)
        size_cap = math.ceil(n / k)
        sizes = np.bincount(regions, minlength=len(centers))
        assert sizes.sum() == n
        assert sizes.max() <= size_cap
        assert len(centers) == math.ceil(n / size_cap)
        # every center belongs to its own region
        for ordinal, center in enumerate(centers):
            assert regions[center] == ordinal


def test_density_deterministic():
    ds = flat(np.random.default_rng(10).normal(size=(25, 2)))
    a = sample_density(geo_of(ds), 4, "euclidean", seed=7)
    b = sample_density(geo_of(ds), 4, "euclidean", seed=7)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def loop_density(ds, k, dist, seed):
    """sample_density as it was with setdiff1d and one pairwise call per center."""
    n = ds.n
    region_size = math.ceil(n / k)
    rng = rand.derive(seed, rand.SAMPLER)
    remaining = np.arange(n)
    centers = []
    region_of = np.full(n, -1, dtype=np.int64)
    while remaining.size:
        c = int(remaining[rng.integers(remaining.size)])
        others = remaining[remaining != c]
        take = others[:0]
        if others.size and region_size > 1:
            dvec = geometry.pairwise(dist, ds.features[[c]], ds.features[others])[0]
            take = others[np.argsort(dvec, kind="stable")[:region_size - 1]]
        batch = np.concatenate(([c], take))
        region_of[batch] = len(centers)
        centers.append(c)
        remaining = np.setdiff1d(remaining, batch, assume_unique=True)
    return centers, region_of


@pytest.mark.parametrize("dist", ["euclidean", "angle"])
def test_density_equals_the_setdiff_loop(dist):
    rng = np.random.default_rng(12)
    for trial in range(12):
        n, d = int(rng.integers(2, 70)), int(rng.integers(1, 6))
        features = rng.integers(-2, 3, size=(n, d)).astype(float)  # ties and zero rows
        if trial % 2:
            features += rng.normal(size=(n, d))
        ds = flat(features)
        geo = geometry.TrainingGeometry(ds.features)  # shared across k and seeds
        for k in sorted({1, 2, n // 3 + 1, n}):
            for seed in range(3):
                want = loop_density(ds, k, dist, seed)
                for shared in (geo_of(ds), geo):
                    centers, regions = sample_density(shared, k, dist, seed)
                    assert centers == want[0] and regions.tolist() == want[1].tolist()


@pytest.mark.parametrize("sampler", ["density", "fft", "random"])
def test_shared_geometry_gives_each_reference_set_its_own_bytes(sampler):
    rng = np.random.default_rng(13)
    ds = flat(rng.normal(size=(45, 4)))
    geo = geometry.TrainingGeometry(ds.features)
    for k, dist, ref_type, seed in [(4, "euclidean", "centers", 0), (9, "angle", "centroids", 1),
                                    (16, "euclidean", "centroids", 2), (5, "angle", "centers", 3)]:
        alone = make_reference_set(geo_of(ds), sampler, k, dist, ref_type, seed)
        shared = make_reference_set(geo, sampler, k, dist, ref_type, seed)
        assert alone.refs.tobytes() == shared.refs.tobytes()
        assert alone.sigmas.tobytes() == shared.sigmas.tobytes()


# ---------------------------------------------------------------- fft

def test_fft_hand_trace():
    feats = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 5.0], [0.0, 1.0]])
    centers, radii = fft_traverse(geometry.TrainingGeometry(feats), 3, "euclidean", first=0)
    assert centers == [0, 1, 2]
    assert radii[0] == pytest.approx(10.0)
    assert radii[1] == pytest.approx(math.sqrt(50.0))


def test_fft_radii_non_increasing():
    rng = np.random.default_rng(11)
    for trial in range(10):
        geo = geometry.TrainingGeometry(rng.normal(size=(50, 3)))
        _, radii = fft_traverse(geo, 12, "euclidean", first=int(rng.integers(50)))
        for earlier, later in zip(radii, radii[1:]):
            assert later <= earlier + 1e-12


@pytest.mark.parametrize("dist", ["euclidean", "angle"])
def test_fft_delone_properties(dist):
    rng = np.random.default_rng(12)
    for trial in range(10):
        n = int(rng.integers(15, 80))
        ds = flat(rng.normal(size=(n, 3)) + 2.0)
        k = int(rng.integers(2, min(n, 20)))
        centers, radius = sample_fft(geo_of(ds), k, dist, seed=trial)
        pts = ds.features[centers]
        sep = geometry.pairwise(dist, pts, pts)
        off_diag = sep[~np.eye(k, dtype=bool)]
        assert off_diag.min() >= radius - 1e-9
        cover = geometry.pairwise(dist, ds.features, pts).min(axis=1)
        assert cover.max() <= radius + 1e-9


def test_fft_k_equals_n_last_radius_is_min_pairwise():
    rng = np.random.default_rng(13)
    ds = flat(rng.normal(size=(12, 2)))
    centers, radius = sample_fft(geo_of(ds), 12, "euclidean", seed=4)
    assert sorted(centers) == list(range(12))
    d = geometry.pairwise("euclidean", ds.features, ds.features)
    assert radius == pytest.approx(d[~np.eye(12, dtype=bool)].min())


def test_fft_k1_no_radius():
    ds = flat(np.random.default_rng(14).normal(size=(5, 2)))
    centers, radius = sample_fft(geo_of(ds), 1, "euclidean", seed=0)
    assert len(centers) == 1 and radius is None


# ------------------------------------------------------- finalize / sigma

def test_sigma_is_max_region_distance():
    ds = flat([[0.0, 0.0], [3.0, 4.0]])
    refs = finalize_references(geo_of(ds), [0], "centers", "euclidean", "random")
    assert refs.sigmas[0] == pytest.approx(5.0)
    assert np.array_equal(refs.refs, [[0.0, 0.0]])


def test_sigma_fallback_all_singleton_regions():
    # every point its own reference -> all sigmas degenerate -> fallback 1.0
    ds = flat(np.arange(8.0).reshape(4, 2))
    refs = finalize_references(geo_of(ds), [0, 1, 2, 3], "centers", "euclidean", "random")
    assert refs.sigmas.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_sigma_fallback_mean_of_positive():
    # ref 0 owns a spread-out region, ref 1 is an isolated duplicate-free point
    ds = flat([[0.0, 0.0], [6.0, 8.0], [100.0, 100.0]])
    refs = finalize_references(geo_of(ds), [0, 2], "centers", "euclidean", "random")
    assert refs.sigmas[0] == pytest.approx(10.0)
    assert refs.sigmas[1] == pytest.approx(10.0)  # degenerate -> mean of positives


def test_centroid_conversion_uses_full_training_set():
    ds = flat([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
    refs = finalize_references(geo_of(ds), [0, 2], "centroids", "euclidean", "random")
    assert np.allclose(sorted(refs.refs.tolist()), [[1.0, 0.0], [11.0, 0.0]])


def test_region_assignment_matches_per_row_recompute():
    rng = np.random.default_rng(15)
    ds = flat(rng.normal(size=(30, 3)))
    picked = [0, 5, 9]
    refs = finalize_references(geo_of(ds), picked, "centroids", "euclidean", "random")
    region = np.array([np.argmin(geometry.pairwise("euclidean", row[None], ds.features[picked]))
                       for row in ds.features])
    for j in range(len(picked)):
        assert np.array_equal(refs.refs[j], ds.features[region == j].mean(axis=0))


# ------------------------- region helpers against the per-region loops they replaced

def loop_region_means(features, assign, refs):
    converted = refs.copy()
    for j in range(refs.shape[0]):
        members = features[assign == j]
        if members.shape[0]:
            converted[j] = members.mean(axis=0)
    return converted


def loop_sigmas(features, refs, dist):
    dists = geometry.pairwise(dist, features, refs)
    assign = np.argmin(dists, axis=1)
    sigmas = np.zeros(refs.shape[0])
    for j in range(refs.shape[0]):
        mask = assign == j
        if mask.any():
            sigmas[j] = float(dists[mask, j].max())
    positive = sigmas[sigmas > 0.0]
    fill = float(positive.mean()) if positive.size else 1.0
    return np.where(sigmas > 0.0, sigmas, fill)


def loop_lloyd(features, k, rng):
    """lloyd with its old update: means and empty-cluster reseeds in one loop over j."""
    features = np.asarray(features, dtype=np.float64)
    centroids = _kmeanspp_seed(features, k, rng)
    prev, history, reseeds = None, [], 0
    for _ in range(_LLOYD_MAX_ITERS):
        dists = geometry.pairwise("euclidean", features, centroids)
        assign = np.argmin(dists, axis=1)
        history.append(float(np.square(dists[np.arange(len(features)), assign]).sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        new = centroids.copy()
        used_far = []
        for j in range(k):
            members = features[assign == j]
            if members.shape[0]:
                new[j] = members.mean(axis=0)
            else:
                column = dists[:, j].copy()
                if used_far:
                    column[used_far] = -1.0
                far = int(np.argmax(column))
                used_far.append(far)
                new[j] = features[far]
                reseeds += 1
        centroids = new
        prev = assign
    return centroids, assign, history, reseeds


def one_column_regions(rng, sizes=(1, 7, 8, 129)):
    """One shuffled column whose regions around 0, 1000, 2000, ... hold ``sizes`` rows.

    numpy sums a single column pairwise (eight partial sums from 8 rows on,
    halving above 128), so these sizes tell its sum from a row-order one.
    """
    rows = [1000.0 * j + rng.normal(size=size) * 10.0 ** rng.uniform(-3, 1, size=size)
            for j, size in enumerate(sizes)]
    return rng.permutation(np.concatenate(rows))[:, None], 1000.0 * np.arange(len(sizes))[:, None]


def region_cases():
    """(name, features, refs): seeded data, duplicates, k = n, empty regions, one column,
    wide rows, -0.0 entries with an all -0.0 region, F-ordered and reversed views."""
    rng = np.random.default_rng(21)
    normal = rng.normal(size=(40, 3))
    dup = np.repeat(rng.normal(size=(5, 2)), 6, axis=0)
    one = rng.normal(size=(50, 1))
    far = np.array([[50.0, 50.0, 50.0], [-50.0, 0.0, 0.0]])  # no row is nearest to these
    wide = rng.normal(size=(90, 64)) * 10.0 ** rng.uniform(-4, 4, size=64)
    signed = rng.normal(size=(60, 4)) + [0.0, 0.0, 0.0, 100.0]
    signed[:, :3][rng.random((60, 3)) < 0.3] = -0.0
    signed[::10] = -0.0  # six all -0.0 rows: the region of the -0.0 reference
    skewed = np.vstack([rng.normal(size=(50, 5)) * 0.01, rng.normal(size=(3, 5)) + 40.0])
    column, centers = one_column_regions(np.random.default_rng(1))
    return [
        ("seeded", normal, normal[[3, 11, 17, 29]]),
        ("duplicates", dup, dup[[0, 1, 6, 12]]),  # rows 0 and 1 coincide: region 1 is empty
        ("k_equals_n", normal[:12], normal[:12]),
        ("empty_regions", normal, np.vstack([normal[[2, 8]], far])),
        ("one_column", one, one[[0, 5, 9, 30, 44]]),
        ("one_column_1_7_8_129", column, centers),
        ("zero_row", np.vstack([np.zeros((1, 3)), normal[:20]]), normal[[1, 4]]),
        ("wide_64", wide, wide[[0, 7, 21, 33, 58, 80]]),
        ("negative_zero", signed, np.vstack([signed[[1, 2, 3, 4, 5, 6, 7, 8]], signed[:1]])),
        ("fortran_order", np.asfortranarray(normal), normal[[3, 11, 17, 29]]),
        ("reversed_columns", wide[:, ::-1], wide[[0, 7, 21, 33, 58, 80], ::-1]),
        ("skewed_assignment", skewed, np.vstack([skewed[[0, 50, 51]], np.full((2, 5), 50.0)])),
    ]


@pytest.mark.parametrize("dist", ["euclidean", "angle"])
@pytest.mark.parametrize("name,features,refs", region_cases(),
                         ids=[case[0] for case in region_cases()])
def test_region_helpers_bit_equal_to_loops(name, features, refs, dist):
    assign = np.argmin(geometry.pairwise(dist, features, refs), axis=1)
    means, counts = _region_means(features, assign, refs)
    assert means.tobytes() == loop_region_means(features, assign, refs).tobytes()
    assert counts.tolist() == np.bincount(assign, minlength=len(refs)).tolist()
    for r in (refs, means):
        sigmas = _sigmas(geometry.pairwise(dist, features, r))
        assert sigmas.tobytes() == loop_sigmas(features, r, dist).tobytes()


def test_region_cases_hold_empty_regions():
    cases = {name: (features, refs) for name, features, refs in region_cases()}
    for name in ("duplicates", "empty_regions"):
        features, refs = cases[name]
        assign = np.argmin(geometry.pairwise("euclidean", features, refs), axis=1)
        assert np.bincount(assign, minlength=len(refs)).min() == 0, name


def test_region_cases_hold_the_layouts_they_name():
    cases = {name: (features, refs) for name, features, refs in region_cases()}
    features, refs = cases["negative_zero"]
    assign = np.argmin(geometry.pairwise("euclidean", features, refs), axis=1)
    region = features[assign == len(refs) - 1]
    assert region.shape[0] == 6 and np.signbit(region).all()
    assert np.signbit(loop_region_means(features, assign, refs)[-1]).tolist() == [False] * 4
    assert cases["fortran_order"][0].flags.f_contiguous
    assert not cases["reversed_columns"][0].flags.c_contiguous
    features, refs = cases["skewed_assignment"]
    sizes = np.bincount(np.argmin(geometry.pairwise("euclidean", features, refs), axis=1),
                        minlength=len(refs))
    assert sizes.max() >= 40 and sizes.min() == 0
    features, refs = cases["one_column_1_7_8_129"]
    assign = np.argmin(geometry.pairwise("euclidean", features, refs), axis=1)
    assert np.bincount(assign).tolist() == [1, 7, 8, 129]
    for j in (2, 3):  # a row-order sum misses mean()'s bits on 8 and on 129 rows
        members, total = features[assign == j, 0], 0.0
        for value in members:
            total += value
        assert total / members.size != members.mean()


def test_region_means_fuzz_bit_equal_to_loop():
    rng = np.random.default_rng(20)
    for case in range(600):
        d = int(rng.choice([1, 2, 3, 5, 8, 17, 64])) if case % 2 else int(rng.integers(1, 65))
        n, k = int(rng.integers(1, 200)), int(rng.integers(1, 65))
        features = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=d)
        weights = rng.random(k) ** 4  # skewed: many regions empty or small
        assign = rng.choice(k, size=n, p=weights / weights.sum())
        if case % 3 == 0:
            features[rng.random(features.shape) < 0.4] = -0.0
        if case % 4 == 0:
            features[assign == assign[0]] = -0.0  # one all -0.0 region
        if case % 5 == 1:
            features = np.asfortranarray(features)
        elif case % 5 == 2:
            features = features[:, ::-1]
        if case % 25 == 0:
            column, centers = one_column_regions(rng)
            features, refs = column, centers
            assign = np.argmin(np.abs(column - centers.T), axis=1)
        else:
            refs = rng.normal(size=(k, d))
        got, counts = _region_means(features, assign, refs)
        assert got.tobytes() == loop_region_means(features, assign, refs).tobytes(), case
        assert counts.tolist() == np.bincount(assign, minlength=len(refs)).tolist(), case


@pytest.mark.parametrize("k,seed", [(5, 9), (7, 3), (12, 0)])
def test_lloyd_bit_equal_to_loop_with_empty_clusters(k, seed):
    # three distinct positions, each repeated: more clusters than positions
    feats = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0)
    centroids, assign, history = lloyd(feats, k, rand.derive(seed))
    want, want_assign, want_history, reseeds = loop_lloyd(feats, k, rand.derive(seed))
    assert reseeds > 0
    assert centroids.tobytes() == want.tobytes()
    assert np.array_equal(assign, want_assign) and history == want_history


def test_lloyd_bit_equal_to_loop_on_seeded_data():
    feats = np.random.default_rng(8).normal(size=(120, 4))
    for k in (1, 4, 16):
        got = lloyd(feats, k, rand.derive(k))
        want = loop_lloyd(feats, k, rand.derive(k))
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]


@pytest.mark.parametrize("sampler", ["random", "density", "fft", "kmeans"])
def test_make_reference_set_deterministic(sampler):
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, 40, 3)
    dist = "euclidean"
    ref_type = "centroids" if sampler == "kmeans" else "centers"
    a = make_reference_set(geo_of(ds), sampler, 6, dist, ref_type, seed=21)
    b = make_reference_set(geo_of(ds), sampler, 6, dist, ref_type, seed=21)
    assert np.array_equal(a.refs, b.refs)
    assert np.array_equal(a.sigmas, b.sigmas)
    assert a.kind_used == sampler


def test_make_reference_set_centers_are_training_rows():
    rng = np.random.default_rng(18)
    ds = random_dataset(rng, 25, 4)
    for sampler in ("random", "density", "fft"):
        refs = make_reference_set(geo_of(ds), sampler, 5, "euclidean", "centers", seed=3)
        rows = {tuple(r) for r in ds.features}
        assert all(tuple(r) in rows for r in refs.refs)


def test_make_reference_set_rejects_kmeans_variants():
    ds = flat(np.random.default_rng(19).normal(size=(10, 2)))
    message = "^kmeans sampling requires euclidean distance and centroid references$"
    with pytest.raises(SamplingError, match=message):
        make_reference_set(geo_of(ds), "kmeans", 3, "angle", "centroids", seed=0)
    with pytest.raises(SamplingError, match=message):
        make_reference_set(geo_of(ds), "kmeans", 3, "euclidean", "centers", seed=0)
    with pytest.raises(SamplingError):
        make_reference_set(geo_of(ds), "voronoi", 3, "euclidean", "centers", seed=0)


def test_make_reference_set_rejects_oversized_k():
    ds = flat(np.ones((4, 2)))
    with pytest.raises(SamplingError):
        make_reference_set(geo_of(ds), "random", 9, "euclidean", "centers", seed=0)


def test_make_reference_set_rejects_an_unknown_distance():
    ds = flat(np.random.default_rng(19).normal(size=(10, 2)))
    for sampler in ("random", "kmeans"):
        with pytest.raises(SamplingError, match="^unknown distance 'manhattan'$"):
            make_reference_set(geo_of(ds), sampler, 3, "manhattan", "centroids", seed=0)


def test_finalize_references_rejects_an_unknown_reference_type():
    ds = flat(np.random.default_rng(19).normal(size=(10, 2)))
    with pytest.raises(SamplingError, match="^unknown reference type 'medoids'$"):
        finalize_references(geo_of(ds), [0, 1], "medoids", "euclidean", "random")
