"""Distance matrices between sets of row vectors, and nearest neighbours.

Shared by prototype sampling, kernel mapping, and the kNN classifier so that
every component measures dissimilarity the same way.  A TrainingGeometry
keeps the distances among one training set's rows, so that the samplers
fitted on those rows compute each of them once when they fit its budget.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelcastError

DISTANCE_KINDS = ("euclidean", "angle")

# Caps on elements per block of query rows: a shortlist block, its gathered differences
# included (32 MiB), and a cache-sized subtraction block of _euclidean_matrix (2 MiB).
_BLOCK_ELEMENTS = 1 << 22
_DIFF_ELEMENTS = 1 << 18

# Cap on cells of the euclidean self-distance matrix one TrainingGeometry
# keeps (32 MiB of float64, n <= 2,048); past it, no row is kept.
_KEPT_CELLS = 1 << 22

# Unit roundoff and smallest subnormal of float64, for the error bound that
# sizes the euclidean shortlist in ``nearest``.
_UNIT = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).smallest_subnormal

# Margin below each query row's k-th largest cosine c, clipped to [-1, 1], within
# which the angle shortlist keeps cells.  arccos has slope at least 1 in
# magnitude, so clipped cosines _COS_MARGIN apart have true angles at least
# _COS_MARGIN apart; numpy's arccos errs by a few ulps of pi at most, far below
# that.  Where c - _COS_MARGIN >= -1, a cell below it clips to at most it, so its
# computed angle is strictly above those of the k cells at or above c, ties by
# column included.  Rows whose squared norms underflow give cosines far outside
# [-1, 1], hence the clip; a row whose c - _COS_MARGIN is below -1 keeps every cell.
_COS_MARGIN = 2.0 ** -40


def _check_kind(kind: str) -> None:
    if kind not in DISTANCE_KINDS:
        raise KernelcastError(f"unknown distance kind {kind!r}; expected one of {DISTANCE_KINDS}")


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise KernelcastError("expected a 2-d array of row vectors")
    return a


def _diff_norms(diff: np.ndarray) -> np.ndarray:
    # The one euclidean formula: nearest's exact recompute must equal pairwise bit for bit.
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _euclidean_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Exact blockwise subtraction rather than the ||a||^2 - 2ab + ||b||^2
    # expansion: identical rows must come out at distance exactly 0.
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    step = max(1, _DIFF_ELEMENTS // max(1, m * a.shape[1]))
    for i in range(0, n, step):
        out[i:i + step] = _diff_norms(a[i:i + step, None, :] - b[None, :, :])
    return out


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    # Zero rows stay zero; their cosine against anything is then 0, which
    # realizes the pi/2 convention for angles involving the zero vector.
    return a / np.where(norms == 0.0, 1.0, norms)


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _unit_rows(a) @ _unit_rows(b).T


def _arccos(cos: np.ndarray) -> np.ndarray:
    # The one angle formula, in place.  pairwise, TrainingGeometry and nearest
    # take it of products of unit rows in the same operand order and shapes,
    # so equal operands give equal bits.
    np.clip(cos, -1.0, 1.0, out=cos)
    return np.arccos(cos, out=cos)


def _validated(kind: str, a, b) -> tuple[np.ndarray, np.ndarray]:
    _check_kind(kind)
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise KernelcastError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a, b


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
    a, b = _validated(kind, a, b)
    if kind == "euclidean":
        return _euclidean_matrix(a, b)
    return _arccos(_cosines(a, b))


class TrainingGeometry:
    """Distances among the rows of one training matrix, kept where they fit.

    ``distances(kind, rows, cols)`` equals ``pairwise(kind, X[rows], X[cols])``
    bit for bit, where None stands for every row in order.  Euclidean
    distances are row-local and exactly symmetric, so whole rows of the
    self-distance matrix are computed through ``pairwise`` and served for
    columns too.  When the matrix fits ``_KEPT_CELLS`` cells, each row is
    computed once and kept; otherwise each request computes its rows.  Angle
    distances multiply once-computed unit rows, in the operand order and
    shapes of the ``pairwise`` call they replace, so BLAS sees the same
    product; a full angle Gram matrix would not reproduce its bits.
    """

    def __init__(self, features):
        self.features = _as_matrix(features)
        n = self.features.shape[0]
        self._kept = np.empty((n, n)) if n * n <= _KEPT_CELLS else None
        self._filled = np.zeros(n, dtype=bool)  # rows of _kept computed so far
        self._units = None

    def distances(self, kind: str, rows=None, cols=None) -> np.ndarray:
        _check_kind(kind)
        if kind == "angle":
            if self._units is None:
                self._units = _unit_rows(self.features)
            units = self._units
            return _arccos((units if rows is None else units[rows])
                           @ (units if cols is None else units[cols]).T)
        if cols is not None and (rows is None or len(cols) < len(rows)):
            block = self._euclidean_rows(cols)
            return (block if rows is None else block[:, rows]).T
        block = self._euclidean_rows(rows)
        return block if cols is None else block[:, cols]

    def _euclidean_rows(self, rows) -> np.ndarray:
        """Whole self-distance rows ``rows`` (every row when None)."""
        n = self.features.shape[0]
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        if self._kept is None:
            return pairwise("euclidean", self.features[rows], self.features)
        missing = np.unique(rows[~self._filled[rows]])
        if missing.size:
            self._kept[missing] = pairwise("euclidean", self.features[missing], self.features)
            self._filled[missing] = True
        return self._kept[rows]


def _pack(keep: np.ndarray, k: int, dists: np.ndarray | None = None):
    """Left-align the kept column ids of each row, and their ``dists``.

    Every row keeps at least ``k`` entries, so a total of k per row means
    exactly k in each, and no row needs counting.  Rows hold their kept
    entries in column order; if counts differ, padding follows up to the
    fullest row's count: column id ``m`` and NaN.
    """
    n, m = keep.shape
    flat = np.flatnonzero(keep)
    counts = None if flat.size == n * k else np.count_nonzero(keep, axis=1)
    width = k if counts is None else counts.max()
    if counts is None or (counts == width).all():
        cols = flat.reshape(n, width) % m
        return cols, None if dists is None else dists.ravel()[flat].reshape(cols.shape)
    slots = np.arange(width) < counts[:, None]
    cols = np.full(slots.shape, m)
    cols[slots] = flat % m
    if dists is None:
        return cols, None
    vals = np.full(slots.shape, np.nan)
    vals[slots] = dists.ravel()[flat]
    return cols, vals


def _first_k(cols: np.ndarray, dists: np.ndarray, k: int):
    """The k first packed candidates of each row by (distance, column id).

    Padding holds NaN and sits at the end of its row, so the stable sort
    puts it after every real entry, NaN included.
    """
    pick = np.argsort(dists, axis=1, kind="stable")[:, :k]
    rows = np.arange(dists.shape[0])[:, None]
    return cols[rows, pick], dists[rows, pick]


def _shortlists(kind: str, q: np.ndarray, t: np.ndarray, k: int):
    """Yield ``(rows, cols, vals)`` per block ``q[rows]`` of query rows: candidates
    packed by ``_pack``, at least k per row and its k nearest among them, and
    their cosines for angle (not yet angles), None for euclidean.
    """
    n, d = q.shape
    m = t.shape[0]
    # A block's partition copy, mask and temporaries, and its gathered
    # differences even when every column is kept, stay within _BLOCK_ELEMENTS.
    step = max(1, _BLOCK_ELEMENTS // (m * (d + 8)))
    if kind == "angle":
        # One full product, pairwise's, read by row blocks: a BLAS product of
        # a row block need not equal the same rows of the whole product, bit for bit.
        cos = _cosines(q, t)
    else:
        # Gram squared distances shortlist the candidates, one product per
        # query block: rows [a, |a|^2, 1] times the training operand
        # [-2b; 1; |b|^2] give a.(-2b) + |a|^2 + |b|^2, a sum of d + 2 terms in
        # whatever order the BLAS kernel takes.  Folding -2 into the training
        # operand is exact but where a product underflows, and the norms are
        # multiplied by 1 exactly.  The Gram value and the exact sum of squared
        # differences each lie within gamma_{d+2} (|a| + |b|)^2 of the true
        # squared distance, plus a few subnormal units for underflow, in any
        # summation order: no term passes d + 2 roundings, and the summed
        # magnitudes never exceed (|a| + |b|)^2.  ``bound``, taken with the
        # block's largest |a| and the largest |b|, covers both with room for
        # its own rounding.  So the k training rows at or below the k-th Gram
        # value have exact squares of at most kth + bound, and a row whose Gram
        # value exceeds ``cutoff`` has an exact square above that by a factor
        # over 1 + 4u (u the unit roundoff): its correctly rounded square root
        # is strictly larger than theirs, and it cannot be among the first k,
        # ties by column included.
        tt = np.empty((d + 2, m))
        np.multiply(t.T, -2.0, out=tt[:d])
        tt[d] = 1.0
        sq_t = np.einsum("ij,ij->i", t, t, out=tt[d + 1])
        ext = np.ones((min(n, step), d + 2))  # rows [a, |a|^2, 1], refilled per block
        top = np.sqrt(sq_t.max())
        gamma = (2 * d + 12) * _UNIT / (1.0 - (2 * d + 12) * _UNIT)
    for i in range(0, n, step):
        # Every entry up to the cutoff, so ties at the k-th value are complete,
        # and at least k per row: NaN sorts last and compares false, so a row
        # with fewer than k numbers, a euclidean block whose bound, or a row whose
        # Gram values are not finite (inf/NaN input, overflowing norms), keeps all.
        if kind == "angle":
            block = cos[i:i + step]
            # The k-th largest cosine, from a negated copy partitioned in place;
            # rebinding the name drops the copy before the yield.
            cutoff = np.negative(block)
            cutoff.partition(k - 1, axis=1)
            cutoff = np.clip(-cutoff[:, k - 1], -1.0, 1.0) - _COS_MARGIN
            cutoff[cutoff < -1.0] = -np.inf
            yield slice(i, i + step), *_pack(~(block < cutoff[:, None]), k, block)
        else:
            a = q[i:i + step]
            ext_a = ext[:a.shape[0]]
            ext_a[:, :d] = a
            ext_a[:, d] = sq_a = np.einsum("ij,ij->i", a, a)
            block = ext_a @ tt
            cutoff = np.partition(block, k - 1, axis=1)[:, k - 1]
            bound = gamma * (np.sqrt(sq_a.max()) + top) ** 2 + (4 * d + 8) * _TINY
            cutoff = (cutoff + bound) * (1.0 + 8 * _UNIT) + (bound + 4 * _TINY)
            yield slice(i, i + step), *_pack(~(block > cutoff[:, None]), k)


def nearest(kind: str, queries, train, k: int,
            ordered: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The k nearest training rows of each query row, nearest first.

    Returns ``(order, dists)``: ``order`` equals
    ``np.argsort(pairwise(kind, queries, train), axis=1, kind="stable")[:, :k]``
    (rank ties go to the lower training-row index; ``k`` above the training
    size yields every row) and ``dists`` holds the ``pairwise`` values at
    those positions, bit for bit.  Neither the full distance matrix nor a
    full sort is needed: a shortlist keeps, per row, every entry up to the
    k-th smallest (euclidean: of the Gram values, widened by a floating-point
    error bound; angle: of the negated cosines, widened by a margin that
    arccos cannot close), and only the shortlist is ranked, on exact
    distances.  Angles are computed for the shortlisted cosines only.

    Unless ``ordered``, ``dists`` is None and a row of ``order`` may hold its
    k rows in any order, which is all a uniform vote needs: a shortlist block
    k wide holds each row's first k already, and is not ranked.
    """
    if k < 1:
        raise KernelcastError("k must be at least 1")
    q, t = _validated(kind, queries, train)
    k = min(k, t.shape[0])
    order = np.empty((q.shape[0], k), dtype=np.intp)
    dists = np.empty(order.shape)
    padded = None  # t and an all-NaN row for padding cells, made when a block first needs it
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cols, vals in _shortlists(kind, q, t, k):
            if ordered or cols.shape[1] > k:
                if kind == "angle":
                    vals = _arccos(vals)
                else:  # by _euclidean_matrix's subtraction
                    if padded is None:
                        padded = np.concatenate([t, np.full((1, t.shape[1]), np.nan)])
                    vals = padded[cols]
                    vals = _diff_norms(np.subtract(q[rows, None, :], vals, out=vals))
                cols, dists[rows] = _first_k(cols, vals, k)
            order[rows] = cols
    return order, dists if ordered else None
