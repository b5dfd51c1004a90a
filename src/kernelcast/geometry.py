"""Distance matrices between sets of row vectors.

Shared by prototype sampling, kernel mapping, and the kNN classifier so that
every component measures dissimilarity the same way.
"""

from __future__ import annotations

import numpy as np

DISTANCE_KINDS = ("euclidean", "angle")

# Cap on elements materialized per broadcast block when computing exact
# euclidean distances.  Keeps peak memory bounded for large query sets.
_BLOCK_ELEMENTS = 1 << 22


def _check_kind(kind: str) -> None:
    if kind not in DISTANCE_KINDS:
        raise ValueError(f"unknown distance kind {kind!r}; expected one of {DISTANCE_KINDS}")


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of row vectors")
    return a


def _euclidean_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Exact blockwise subtraction rather than the ||a||^2 - 2ab + ||b||^2
    # expansion: identical rows must come out at distance exactly 0.
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    step = max(1, _BLOCK_ELEMENTS // max(1, m * a.shape[1]))
    for i in range(0, n, step):
        diff = a[i:i + step, None, :] - b[None, :, :]
        out[i:i + step] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    # Zero rows stay zero; their cosine against anything is then 0, which
    # realizes the pi/2 convention for angles involving the zero vector.
    return a / np.where(norms == 0.0, 1.0, norms)


def _angle_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cos = np.clip(_unit_rows(a) @ _unit_rows(b).T, -1.0, 1.0)
    return np.arccos(cos)


def pairwise(kind: str, a, b) -> np.ndarray:
    """Distance matrix between the rows of ``a`` and the rows of ``b``.

    Parameters
    ----------
    kind : "euclidean" or "angle"
        Angle is the arccos of the cosine similarity, in [0, pi].  Pairs
        involving a zero vector get pi/2.
    a, b : (n, d) and (m, d) arrays

    Returns
    -------
    (n, m) float matrix.
    """
    _check_kind(kind)
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    if kind == "euclidean":
        return _euclidean_matrix(a, b)
    return _angle_matrix(a, b)
