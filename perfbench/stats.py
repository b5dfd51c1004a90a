"""Summary statistics, output digests and an independent BER for the benchmark."""

from __future__ import annotations

import hashlib
import re
import statistics

# Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

_WALL_TIME = re.compile(rb'"wall_time": [^,\n}]+')


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def tail(values) -> tuple[float, float] | None:
    """Highest percentile in TAIL_PERCENTILES with TAIL_MIN_BEYOND samples above it.

    Returns (percentile, nearest-rank value) or None when there are too few
    samples for any of them.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # nearest rank: ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, float(ordered[int(rank) - 1])
    return None


def summarize(values) -> dict:
    """Median, sample count and, when there are enough samples, a tail percentile."""
    out = {"median": median(values), "n": len(values)}
    found = tail(values)
    if found is not None:
        out["tail_p"], out["tail"] = found
    return out


def scrub_report(data: bytes) -> bytes:
    """Blank every ``wall_time`` value of a search report, leaving all other bytes."""
    return _WALL_TIME.sub(b'"wall_time": null', data)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def balanced_error_rate(truth, predicted, n_classes: int) -> float:
    """Mean over classes of (false positives + false negatives) / class size.

    Written here from the definition so that the benchmark checks the
    program's printed BER against its own count.
    """
    terms = []
    for c in range(n_classes):
        size = sum(1 for t in truth if t == c)
        misses = sum(1 for t, p in zip(truth, predicted) if t == c and p != c)
        false_hits = sum(1 for t, p in zip(truth, predicted) if p == c and t != c)
        terms.append((misses + false_hits) / max(size, 1))
    return sum(terms) / n_classes
