import numpy as np
import pytest

from kernelcast import ensemble, rand
from kernelcast.data import Dataset
from kernelcast.ensemble import (Ensemble, EnsembleError, _tally, build_ensemble,
                                 consensus_curve, discordance_ratio,
                                 ensemble_predict, member_votes)
from kernelcast.modelsel import (Configuration, kms_fit, kms_predict,
                                 random_search)
from spies import ArgmaxSpy
from synthdata import make_blobs


def knn_config(**overrides):
    base = dict(k_references=8, sampling_distance="euclidean",
                sampler="random", kernel="gaussian", ref_type="centers",
                classifier="knn",
                knn=dict(neighbors=1, weighting="uniform",
                         distance="euclidean"))
    base.update(overrides)
    return Configuration.from_dict(base)


def flipped(ds):
    return Dataset(ds.features, 1 - ds.labels, ds.label_names)


@pytest.fixture(scope="module")
def blob_search():
    ds = make_blobs(n_per_class=30, spread=0.6, gap=3.0, seed=0)
    report = random_search(ds, sample_size=24, fold_count=3, seed=1)
    return ds, report


def test_single_member_ensemble_equals_best_model(blob_search):
    ds, report = blob_search
    ens = build_ensemble(report, ds, ell=1, seed=5)
    solo = kms_fit(report.best.config, ds, seed=5, cv_ber=report.best.cv_ber)
    assert np.array_equal(ensemble_predict(ens, ds.features),
                          kms_predict(solo, ds.features))
    assert ens.members[0].cv_ber == report.best.cv_ber


def test_members_ordered_by_cv_score(blob_search):
    ds, report = blob_search
    ens = build_ensemble(report, ds, ell=7, seed=2)
    scores = [m.cv_ber for m in ens.members]
    assert scores == sorted(scores)
    assert scores[-1] <= max(e.cv_ber for e in report.entries
                             if np.isfinite(e.cv_ber))


def test_unanimous_members_win_every_query(blob_search):
    ds, _ = blob_search
    member = kms_fit(knn_config(), ds, seed=3)
    ens = Ensemble([member] * 5, vote_seed=0)
    assert np.array_equal(ensemble_predict(ens, ds.features),
                          kms_predict(member, ds.features))


def test_majority_two_against_one():
    ds = make_blobs(n_per_class=20, spread=0.2, gap=6.0, seed=1)
    straight = kms_fit(knn_config(), ds, seed=4)
    contrary = kms_fit(knn_config(), flipped(ds), seed=4)
    queries = ds.features
    want = kms_predict(straight, queries)
    two_one = Ensemble([straight, straight, contrary], vote_seed=0)
    assert np.array_equal(ensemble_predict(two_one, queries), want)
    one_two = Ensemble([contrary, contrary, straight], vote_seed=0)
    assert np.array_equal(ensemble_predict(one_two, queries), 1 - want)


def test_tied_votes_break_deterministically():
    ds = make_blobs(n_per_class=20, spread=0.2, gap=6.0, seed=2)
    straight = kms_fit(knn_config(), ds, seed=6)
    contrary = kms_fit(knn_config(), flipped(ds), seed=6)
    ens = Ensemble([straight, contrary], vote_seed=9)
    first = ensemble_predict(ens, ds.features)
    assert np.array_equal(first, ensemble_predict(ens, ds.features))
    # the tie-break keys on the query position, not the member order
    swapped = Ensemble([contrary, straight], vote_seed=9)
    assert np.array_equal(first, ensemble_predict(swapped, ds.features))
    # across 40 tied queries both outcomes occur
    assert 0 < first.sum() < first.size
    other = ensemble_predict(Ensemble([straight, contrary], vote_seed=10),
                             ds.features)
    assert not np.array_equal(first, other)


def test_odd_ensemble_matches_hand_count(blob_search):
    ds, report = blob_search
    ens = build_ensemble(report, ds, ell=5, seed=7)
    votes = member_votes(ens, ds.features)
    got = ensemble_predict(ens, ds.features)
    for q in range(ds.n):
        counts = np.bincount(votes[:, q], minlength=ds.n_classes)
        order = np.argsort(-counts, kind="stable")
        if counts[order[0]] > counts[order[1]]:
            assert got[q] == order[0]


def test_build_rejects_thin_reports(blob_search):
    ds, report = blob_search
    with pytest.raises(EnsembleError):
        build_ensemble(report, ds, ell=len(report.entries) + 1)
    with pytest.raises(EnsembleError):
        build_ensemble(report, ds, ell=0)


def test_discordance_hand_values():
    assert discordance_ratio([0, 0, 1, 1], [0, 0, 0, 0]) == 0.5
    assert discordance_ratio([1, 2, 3], [1, 2, 3]) == 0.0
    assert discordance_ratio([0, 1], [1, 0]) == 1.0
    with pytest.raises(EnsembleError):
        discordance_ratio([0, 1], [0, 1, 2])
    with pytest.raises(EnsembleError):
        discordance_ratio([], [])


def test_consensus_curve_shape_and_bounds(blob_search):
    ds, report = blob_search
    curve = consensus_curve(report, ds, ell_start=3, step=2, ell_max=9,
                            seed=3)
    assert curve.ells == [3, 5, 7, 9]
    assert all(0.0 <= r <= 1.0 for r in curve.raw)
    if max(curve.raw) > 0:
        assert max(curve.normalized) == 1.0
    else:
        assert curve.normalized == curve.raw


def test_consensus_prefix_matches_directly_built_ensemble(blob_search):
    ds, report = blob_search
    curve = consensus_curve(report, ds, ell_start=3, step=2, ell_max=5,
                            seed=11)
    small = build_ensemble(report, ds, ell=3, seed=11)
    grown = build_ensemble(report, ds, ell=5, seed=11)
    want = discordance_ratio(ensemble_predict(small, ds.features),
                             ensemble_predict(grown, ds.features))
    assert curve.raw[0] == pytest.approx(want)


def test_consensus_default_ceiling_uses_viable_count(blob_search):
    ds, report = blob_search
    curve = consensus_curve(report, ds, ell_start=3, step=2, seed=4)
    viable = sum(1 for e in report.entries if np.isfinite(e.cv_ber))
    assert curve.ells[-1] + curve.step <= viable
    assert curve.ells[-1] >= viable - 2 * curve.step


def test_consensus_separate_eval_set(blob_search):
    ds, report = blob_search
    holdout = make_blobs(n_per_class=15, spread=0.6, gap=3.0, seed=9)
    curve = consensus_curve(report, ds, ds_eval=holdout, ell_start=3,
                            step=2, ell_max=5, seed=5)
    assert len(curve.raw) == 2


def test_consensus_rejects_bad_window(blob_search):
    ds, report = blob_search
    with pytest.raises(EnsembleError):
        consensus_curve(report, ds, ell_start=9, ell_max=3)
    with pytest.raises(EnsembleError):
        consensus_curve(report, ds, ell_start=0)


def scatter_add_tally(votes, n_classes, vote_seed):
    """The ``np.add.at`` tally, with the tie loop of ``ensemble._tally``."""
    counts = np.zeros((votes.shape[1], n_classes), dtype=np.int64)
    rows = np.broadcast_to(np.arange(votes.shape[1]), votes.shape)
    np.add.at(counts, (rows, votes), 1)
    winners = np.argmax(counts, axis=1).astype(np.int64)
    top = counts[np.arange(counts.shape[0]), winners]
    for q in np.flatnonzero((counts == top[:, None]).sum(axis=1) > 1):
        options = np.flatnonzero(counts[q] == top[q])
        winners[q] = int(options[rand.derive(vote_seed, rand.VOTE, int(q)).integers(options.size)])
    return counts, winners


def test_tally_counts_and_winners_match_the_scatter_add(monkeypatch):
    spy = ArgmaxSpy()
    monkeypatch.setattr(ensemble, "np", spy)
    rng = np.random.default_rng(21)
    ties = 0
    for _ in range(300):
        members, queries, n_classes = (int(x) for x in rng.integers(1, [7, 40, 5]))
        votes = rng.integers(0, n_classes, size=(members, queries))
        want_counts, want = scatter_add_tally(votes, n_classes, 5)
        ties += int((want_counts == want_counts.max(axis=1, keepdims=True)).sum() > queries)
        got = _tally(votes, n_classes, 5)
        counts = spy.seen.pop()
        assert counts.dtype == np.int64 and np.array_equal(counts, want_counts)
        assert np.array_equal(got, want)
    assert ties > 100


def test_an_ensemble_needs_a_member():
    with pytest.raises(EnsembleError, match="^an ensemble needs at least one member$"):
        Ensemble([], vote_seed=0)
