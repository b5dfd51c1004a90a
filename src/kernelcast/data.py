"""Dataset ingestion, label encoding, stratified splitting, and feature scaling.

CSV files are opened by ``csv.reader``, which reads the header and the first
block of rows and runs every check.  One ``np.loadtxt`` pass (``_read_plain``)
then converts the rows of a file with no quote, no NUL and no over-long row.
Every other file is walked cell by cell on ``csv.reader`` (``_walk_cells``),
which also writes every error report.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import errors, rand

SCALER_KINDS = ("none", "standardize", "minmax", "maxabs")


class DataError(errors.KernelcastError):
    """Malformed input data or invalid data-handling parameters."""


@dataclass
class Dataset:
    """A labeled sample matrix.

    Attributes
    ----------
    features : (n, d) float64 matrix; every entry finite.
    labels : (n,) int64 label ids.
    label_names : ordered label vocabulary; id ``i`` means ``label_names[i]``.

    Treated as immutable by every consumer; operations return new instances.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: list[str]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        bad = ~np.isfinite(feats)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise DataError(f"non-finite feature value at row {r}, column {c}")
        self.features = feats
        self.label_names = list(self.label_names)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DataError("labels must be one id per feature row")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.label_names)):
            raise DataError("label id out of range of the vocabulary")
        self.labels = labels

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.features[indices], self.labels[indices], self.label_names)


def encode_labels(raw: list[str], vocabulary: list[str] | None = None) -> tuple[np.ndarray, list[str]]:
    """Map label strings to integer ids.

    Without a vocabulary, ids are assigned in order of first appearance.
    With one, unseen labels are an error.
    """
    names = list(dict.fromkeys(raw) if vocabulary is None else vocabulary)
    index = {name: i for i, name in enumerate(names)}
    try:
        ids = np.array([index[name] for name in raw], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]!r} not in the model vocabulary") from None
    return ids, names


def _check_header(path, header: list[str] | None, width: int) -> None:
    if header is not None and len(header) != width:
        raise DataError(f"{path}: the header has {len(header)} cells but the data rows have {width}")


def _resolve_column(path, label_column, header: list[str] | None, width: int) -> int:
    if width < 2:
        raise DataError(f"{path}: need at least one feature column plus the label column")
    if isinstance(label_column, str):
        try:
            label_column = int(label_column)
        except ValueError:
            if header is None:
                raise DataError(
                    f"label column {label_column!r} given by name but the file has no header"
                ) from None
            if label_column not in header:
                raise DataError(f"label column {label_column!r} not found in header") from None
            idx = header.index(label_column)
            if idx >= width:  # a header longer than the rows names no column of theirs
                _check_header(path, header, width)
            return idx
    idx = int(label_column)
    if idx < 0:
        idx += width
    if not 0 <= idx < width:
        raise DataError(f"label column index {label_column} out of range for {width} columns")
    return idx


_BLOCK_ROWS = 256  # rows read before the checks run


def _walk_cells(path, rows, width: int, label_idx: int | None, labels: list[str]):
    """Yield ``float(cell.strip())`` for each feature cell of ``csv.reader`` rows, and
    append each stripped label cell to ``labels``; raise for the first ragged row or bad cell."""
    for row, line in rows:
        if len(row) != width:
            raise DataError(f"{path}: line {line} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_idx:
                labels.append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"cannot parse {cell!r} as a number at line {line}, column {j + 1}") from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value {cell!r} at line {line}, column {j + 1}")
            yield value


_SCAN_BYTES = 1 << 16  # bytes per read of the NUL/quote/row-length scan


def _plain_text(path) -> bool:
    """Whether ``path`` holds no quote, no NUL and no row of ``csv.field_size_limit()``
    bytes, which bound each of its cells' characters.

    Without quotes, a row ends at each ``\\n`` or ``\\r`` in csv.reader as in numpy's
    reader, which is given universal newlines.
    """
    limit = csv.field_size_limit()
    run = 0  # bytes since the last row end
    with open(path, "rb") as fh:
        fh.seek(3 if fh.read(3) == b"\xef\xbb\xbf" else 0)  # past a byte order mark
        # A row wholly inside one chunk is shorter than the limit; only one that
        # runs across chunks can reach it.
        while chunk := fh.read(max(1, min(limit, _SCAN_BYTES))):
            # A lone CR ends a row too; measuring by LFs alone only overstates rows.
            cut, tail = chunk.find(b"\n"), chunk.rfind(b"\n")
            if cut < 0:
                cut, tail = chunk.find(b"\r"), chunk.rfind(b"\r")
            if b'"' in chunk or b"\0" in chunk or run + (len(chunk) if cut < 0 else cut) >= limit:
                return False
            run = run + len(chunk) if cut < 0 else len(chunk) - 1 - tail
    return True


def _read_plain(path, skip: int, width: int, label_idx: int | None):
    """The data rows after line ``skip`` of ``path``, from one ``np.loadtxt`` pass.

    Returns ``_read_csv``'s result, or None for a file it cannot read exactly as
    ``csv.reader`` and ``float(cell.strip())`` do: one that ``_plain_text``
    refuses, that numpy's reader or the UTF-8 decoder refuses, or that holds a
    non-finite value.
    """
    if not _plain_text(path):
        return None
    dtype = [(f"c{j}", object if j == label_idx else np.float64) for j in range(width)]
    try:
        # Universal newlines end lines where csv.reader does (see _plain_text).
        with open(path, encoding="utf-8-sig") as fh:
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, skiprows=skip, ndmin=1)
    except ValueError:
        return None
    raw_labels = [] if label_idx is None else [cell.strip() for cell in table[f"c{label_idx}"].tolist()]
    # Rows of float fields only are the matrix already; a label field is copied out of them.
    features = (table.view(np.float64).reshape(len(table), width) if label_idx is None
                else np.column_stack([table[f"c{j}"] for j in range(width) if j != label_idx]))
    return (features, raw_labels) if np.isfinite(features).all() else None


def _read_csv(path, has_header: bool, label_column=None) -> tuple[np.ndarray, list[str]]:
    """Feature matrix and stripped label cells of a CSV file.

    With ``label_column`` None every column is a feature.  Blank rows are skipped.
    ``csv.reader`` reads the header and the first block, on which every check
    runs; ``_read_plain`` then converts the rows where it can, and otherwise
    ``_walk_cells`` converts them cell by cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = ((row, reader.line_num) for row in reader if row)
            header = next(rows, [None])[0] if has_header else None
            skip = reader.line_num
            block = list(islice(rows, _BLOCK_ROWS))
            if (has_header and header is None) or (not block and label_column is None):
                raise DataError(f"{path}: empty file")
            if label_column is not None and len(block) < 2:
                raise DataError(f"{path}: need at least 2 data rows, found {len(block)}")
            width = len(block[0][0])
            label_idx = None if label_column is None else _resolve_column(path, label_column, header, width)
            parsed = _read_plain(path, skip, width, label_idx)
            if parsed is None:
                labels = []
                cells = _walk_cells(path, chain(block, rows), width, label_idx, labels)
                parsed = np.fromiter(cells, np.float64).reshape(-1, width - (label_idx is not None)), labels
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte 0x{exc.object[exc.start]:02x} is not valid UTF-8") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    _check_header(path, header, width)  # after the rows, so a ragged row is reported first
    return parsed


def load_csv(path, label_column=-1, has_header: bool = False,
             vocabulary: list[str] | None = None) -> Dataset:
    """Load a labeled dataset from an RFC-4180-style CSV file.

    Parameters
    ----------
    label_column : int or str
        Column holding the class label; an integer index (negative counts
        from the end) or, when ``has_header``, a column name.
    vocabulary : optional list of label names
        When given (e.g. from a trained model), labels are encoded against it
        and unseen labels are an error.  Otherwise ids follow first appearance
        and the file must contain at least two classes.
    """
    features, raw_labels = _read_csv(path, has_header, label_column)
    labels, names = encode_labels(raw_labels, vocabulary)
    if vocabulary is None and len(names) < 2:
        raise DataError(f"{path}: need at least 2 classes, found {len(names)}")
    return Dataset(features, labels, names)


def load_feature_csv(path, has_header: bool = False) -> np.ndarray:
    """Load an unlabeled feature matrix from CSV (every column is a feature)."""
    return _read_csv(path, has_header)[0]


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split into train/test keeping per-class proportions.

    Each class contributes round(count * test_fraction) samples to the test
    side (clamped so at least one sample per class stays in training).
    Deterministic per seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must lie strictly between 0 and 1")
    rng = rand.derive(seed, rand.SPLIT)
    test_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size < 2:
            raise DataError(f"class {c} has {members.size} samples; need at least 2 to split")
        perm = rng.permutation(members)
        n_test = min(_round_half_up(members.size * test_fraction), members.size - 1)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    test = np.sort(np.concatenate(test_idx))
    train = np.sort(np.concatenate(train_idx))
    if test.size == 0:
        raise DataError("test fraction too small: the test side came out empty")
    return ds.subset(train), ds.subset(test)


def make_folds(ds: Dataset, fold_count: int, seed: int) -> np.ndarray:
    """Assign rows to stratified CV folds, deterministically per seed.

    Returns ``fold_of``, an int64 array holding the fold of each row.  Every
    class must have at least ``fold_count`` samples so that each fold sees
    each class; so every fold is non-empty and ``fold_of.max() + 1`` is the
    fold count.
    """
    if fold_count < 2:
        raise DataError("fold_count must be at least 2")
    if ds.n == 0:
        raise DataError("cannot make folds of an empty dataset")
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    for c, count in enumerate(counts):
        if 0 < count < fold_count:
            raise DataError(f"class {c} has {count} samples; need at least {fold_count} for {fold_count} folds")
    rng = rand.derive(seed, rand.FOLDS)
    fold_of = np.empty(ds.n, dtype=np.int64)
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size == 0:
            continue
        perm = rng.permutation(members)
        # Rotate the dealing start per class so remainders spread over folds.
        start = c % fold_count
        fold_of[perm] = (start + np.arange(perm.size)) % fold_count
    return fold_of


def split_fold(ds: Dataset, fold_of: np.ndarray, fold: int) -> tuple[Dataset, Dataset]:
    """Return (train, held-out) datasets for one fold of a ``make_folds`` array."""
    if not 0 <= fold <= fold_of.max():
        raise DataError(f"fold {fold} out of range")
    mask = fold_of == fold
    return ds.subset(np.flatnonzero(~mask)), ds.subset(np.flatnonzero(mask))


@dataclass
class ScalerSpec:
    """Fitted feature scaling: transform(x) = (x - offset) / scale.

    Columns flagged inactive were degenerate at fit time (zero spread); the
    transform pins them to 0 regardless of input.
    """

    kind: str
    offset: np.ndarray
    scale: np.ndarray
    active: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.offset.shape[0]:
            raise DataError("feature width does not match the fitted scaler")
        out = features - self.offset
        out /= self.scale
        if not self.active.all():
            out[:, ~self.active] = 0.0
        return out


def fit_scaler(kind: str, ds: Dataset) -> ScalerSpec:
    """Learn scaling statistics from training features only.

    kinds: none (identity), standardize (mean 0 / population std 1),
    minmax (to [0, 1]), maxabs (to [-1, 1]).
    """
    if kind not in SCALER_KINDS:
        raise DataError(f"unknown scaler kind {kind!r}; expected one of {SCALER_KINDS}")
    feats = ds.features
    d = feats.shape[1]
    if kind == "none":
        return ScalerSpec(kind, np.zeros(d), np.ones(d), np.ones(d, dtype=bool))
    if kind == "standardize":
        offset = feats.mean(axis=0)
        spread = feats.std(axis=0)
    elif kind == "minmax":
        offset = feats.min(axis=0)
        spread = feats.max(axis=0) - offset
    else:  # maxabs
        offset = np.zeros(d)
        spread = np.abs(feats).max(axis=0)
    active = spread > 0.0
    scale = np.where(active, spread, 1.0)
    return ScalerSpec(kind, offset, scale, active)


def apply_scaler(spec: ScalerSpec, ds: Dataset) -> Dataset:
    return Dataset(spec.transform(ds.features), ds.labels, ds.label_names)
