"""Majority-vote ensembles over the best configurations of a search.

The top-l configurations by cross-validated BER are refit on the full
training set and vote on each query.  Vote ties resolve uniformly at random
from an RNG derived from (vote_seed, query index), so predictions do not
depend on member order or query batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rand
from .data import Dataset
from .modelsel import KmsModel, SearchReport, kms_fit, kms_predict

DEFAULT_ENSEMBLE_SIZE = 15


class EnsembleError(ValueError):
    """Invalid ensemble parameters."""


@dataclass
class Ensemble:
    """Refit member models ordered by ascending cross-validated BER."""

    members: list[KmsModel]
    vote_seed: int

    def __post_init__(self):
        if not self.members:
            raise EnsembleError("an ensemble needs at least one member")

    @property
    def n_classes(self) -> int:
        return len(self.members[0].label_names)

    @property
    def label_names(self) -> list[str]:
        return self.members[0].label_names


def build_ensemble(report: SearchReport, ds: Dataset, ell: int = DEFAULT_ENSEMBLE_SIZE,
                   seed: int = 0) -> Ensemble:
    """Refit the top-l viable configurations of a report on the full data.

    Ranking is by cv_ber ascending with ties kept in evaluation order;
    failed configurations never qualify.
    """
    if ell < 1:
        raise EnsembleError("ensemble size must be at least 1")
    viable = [(i, e) for i, e in enumerate(report.entries) if math.isfinite(e.cv_ber)]
    if len(viable) < ell:
        raise EnsembleError(
            f"need {ell} viable configurations, search produced {len(viable)}")
    viable.sort(key=lambda pair: (pair[1].cv_ber, pair[0]))
    members = [kms_fit(e.config, ds, seed, cv_ber=e.cv_ber) for _, e in viable[:ell]]
    return Ensemble(members, seed)


def member_votes(ens: Ensemble, features: np.ndarray) -> np.ndarray:
    """(members, queries) matrix of individual member predictions."""
    return np.stack([kms_predict(m, features) for m in ens.members])


def _tally(votes: np.ndarray, n_classes: int, vote_seed: int) -> np.ndarray:
    n = votes.shape[1]
    counts = np.bincount((np.arange(n) * n_classes + votes).ravel(),
                         minlength=n * n_classes).reshape(n, n_classes)
    winners = np.argmax(counts, axis=1).astype(np.int64)
    top = counts[np.arange(counts.shape[0]), winners]
    tied = (counts == top[:, None]).sum(axis=1) > 1
    for q in np.flatnonzero(tied):
        options = np.flatnonzero(counts[q] == top[q])
        rng = rand.derive(vote_seed, rand.VOTE, int(q))
        winners[q] = int(options[rng.integers(options.size)])
    return winners


def ensemble_predict(ens: Ensemble, features: np.ndarray) -> np.ndarray:
    """Plurality vote over member predictions for raw query rows."""
    return _tally(member_votes(ens, features), ens.n_classes, ens.vote_seed)


def discordance_ratio(a, b) -> float:
    """Fraction of positions where two prediction vectors disagree."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise EnsembleError("prediction vectors must be 1-d and equal length")
    if a.size == 0:
        raise EnsembleError("cannot compare empty prediction vectors")
    return float(np.mean(a != b))


@dataclass
class ConsensusCurve:
    """Discordance between ensembles of growing size.

    raw[i] is the disagreement fraction between the ells[i]-member and
    (ells[i] + step)-member ensembles; normalized divides by the curve
    maximum (left as-is when the curve is identically zero).
    """

    ells: list[int]
    raw: list[float]
    normalized: list[float]
    step: int


def consensus_curve(report: SearchReport, ds_train: Dataset, ds_eval: Dataset | None = None,
                    ell_start: int = 3, step: int = 2, ell_max: int | None = None,
                    seed: int = 0) -> ConsensusCurve:
    """Discordance curve between successive ensemble sizes.

    For each l in ell_start, ell_start+step, ..., ell_max, compares the
    l-member ensemble against the (l+step)-member one on the evaluation set
    (training set when none is given).  Member predictions are computed once;
    a size-l ensemble votes with the first l members of the largest one,
    which matches building it directly with the same seed.
    """
    if ell_start < 1 or step < 1:
        raise EnsembleError("ell_start and step must be at least 1")
    viable = sum(1 for e in report.entries if math.isfinite(e.cv_ber))
    if ell_max is None:
        ell_max = viable - step
    if ell_max < ell_start:
        raise EnsembleError("ell_max must be at least ell_start")
    ells = list(range(ell_start, ell_max + 1, step))
    largest = build_ensemble(report, ds_train, ells[-1] + step, seed)
    eval_ds = ds_train if ds_eval is None else ds_eval
    votes = member_votes(largest, eval_ds.features)
    sizes = sorted({*ells, *(ell + step for ell in ells)})
    predictions = {size: _tally(votes[:size], largest.n_classes, seed) for size in sizes}
    raw = [discordance_ratio(predictions[ell], predictions[ell + step]) for ell in ells]
    peak = max(raw)
    normalized = [r / peak for r in raw] if peak > 0 else list(raw)
    return ConsensusCurve(ells, raw, normalized, step)
