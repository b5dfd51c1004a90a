import csv
import decimal
import io
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from kernelcast import data
from kernelcast.data import (DataError, Dataset, apply_scaler, fit_scaler,
                             load_csv, make_folds, split_fold,
                             stratified_split)

IRIS = os.path.join(os.path.dirname(__file__), "data", "iris.csv")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_label_encoding_first_appearance(tmp_path):
    path = write(tmp_path, "1,2,b\n3,4,a\n5,6,b\n")
    ds = load_csv(path)
    assert ds.label_names == ["b", "a"]
    assert ds.labels.tolist() == [0, 1, 0]
    assert np.allclose(ds.features, [[1, 2], [3, 4], [5, 6]])


def test_load_iris_fixture():
    ds = load_csv(IRIS, label_column="species", has_header=True)
    assert (ds.n, ds.dim, ds.n_classes) == (149, 4, 3)
    assert np.bincount(ds.labels).tolist() == [50, 50, 49]
    assert ds.label_names == ["setosa", "versicolor", "virginica"]


def test_label_column_by_index_and_name(tmp_path):
    path = write(tmp_path, "species,x,y\na,1,2\nb,3,4\n")
    by_name = load_csv(path, label_column="species", has_header=True)
    by_index = load_csv(path, label_column=0, has_header=True)
    assert by_name.label_names == by_index.label_names == ["a", "b"]
    assert np.allclose(by_name.features, by_index.features)


def test_nan_cell_rejected_with_location(tmp_path):
    path = write(tmp_path, "1,2,a\n3,NaN,b\n5,6,a\n")
    with pytest.raises(DataError, match="line 2, column 2"):
        load_csv(path)


def test_non_numeric_cell_rejected_with_location(tmp_path):
    path = write(tmp_path, "1,2,a\n3,oops,b\n")
    with pytest.raises(DataError, match="line 2, column 2"):
        load_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = write(tmp_path, "1,2,a\n3,b\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(path)


@pytest.mark.parametrize("text,message", [
    ("1,2,a\n\n3,4,b\n5,x,a\n", "'x' as a number at line 4, column 2"),
    ("1,2,a\n\n3,4,b\n5,a\n", "line 4 has 2 cells"),
    ("x,y,c\n\n1,2,a\n\n\n3,NaN,b\n", "'NaN' at line 6, column 2"),
], ids=["bad-cell", "ragged-row", "after-header"])
def test_error_line_counts_blank_lines(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(DataError, match=message):
        load_csv(path, has_header=text.startswith("x"))


def test_too_few_rows_rejected(tmp_path):
    path = write(tmp_path, "1,2,a\n")
    with pytest.raises(DataError, match="at least 2 data rows"):
        load_csv(path)


def test_single_class_rejected(tmp_path):
    path = write(tmp_path, "1,2,a\n3,4,a\n")
    with pytest.raises(DataError, match="at least 2 classes"):
        load_csv(path)


def test_missing_label_column_rejected(tmp_path):
    path = write(tmp_path, "x,y,label\n1,2,a\n3,4,b\n")
    with pytest.raises(DataError, match="not found in header"):
        load_csv(path, label_column="species", has_header=True)
    with pytest.raises(DataError, match="out of range"):
        load_csv(path, label_column=7, has_header=True)


def plain_and_bom(tmp_path, rows, name):
    """Write ``rows`` as CSV twice: as plain UTF-8 and with a leading byte-order mark."""
    text = "".join(",".join(row) + "\n" for row in rows)
    paths = (tmp_path / f"{name}.csv", tmp_path / f"{name}-bom.csv")
    paths[0].write_bytes(text.encode("utf-8"))
    paths[1].write_bytes(text.encode("utf-8-sig"))
    return [str(path) for path in paths]


def iris_rows():
    with open(IRIS, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def assert_same_dataset(a, b):
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tolist() == b.labels.tolist()
    assert a.label_names == b.label_names


def test_byte_order_mark_before_header_names_the_first_column(tmp_path):
    rows = [row[-1:] + row[:-1] for row in iris_rows()]  # species first
    plain, bom = plain_and_bom(tmp_path, rows, "species-first")
    assert_same_dataset(load_csv(bom, label_column="species", has_header=True),
                        load_csv(plain, label_column="species", has_header=True))


def test_byte_order_mark_before_headerless_numbers(tmp_path):
    rows = iris_rows()[1:]
    plain, bom = plain_and_bom(tmp_path, rows, "labeled")
    assert_same_dataset(load_csv(bom), load_csv(plain))
    plain, bom = plain_and_bom(tmp_path, [row[:-1] for row in rows], "features")
    assert data.load_feature_csv(bom).tobytes() == data.load_feature_csv(plain).tobytes()


def test_vocabulary_round_trip(tmp_path):
    path = write(tmp_path, "1,2,b\n3,4,a\n")
    ds = load_csv(path, vocabulary=["a", "b"])
    assert ds.labels.tolist() == [1, 0]
    with pytest.raises(DataError, match="not in the model vocabulary"):
        load_csv(path, vocabulary=["a"])


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError, match="row 1, column 0"):
        Dataset(np.array([[1.0, 2.0], [np.inf, 0.0]]), np.array([0, 1]), ["a", "b"])


def test_dataset_rejects_bad_labels():
    with pytest.raises(DataError):
        Dataset(np.ones((2, 2)), np.array([0, 5]), ["a", "b"])
    with pytest.raises(DataError):
        Dataset(np.ones((2, 2)), np.array([0]), ["a", "b"])


def make_labeled(counts, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    feats = rng.normal(size=(labels.size, 3))
    return Dataset(feats, labels, [f"c{i}" for i in range(len(counts))])


def test_stratified_split_proportions():
    ds = make_labeled([10, 10])
    train, test = stratified_split(ds, 0.3, seed=5)
    assert np.bincount(test.labels).tolist() == [3, 3]
    assert np.bincount(train.labels).tolist() == [7, 7]
    assert train.n + test.n == ds.n


def test_stratified_split_rounding():
    ds = make_labeled([4, 6])
    train, test = stratified_split(ds, 0.5, seed=5)
    assert np.bincount(test.labels).tolist() == [2, 3]


def test_stratified_split_disjoint_and_complete():
    ds = make_labeled([12, 9, 7], seed=3)
    train, test = stratified_split(ds, 0.25, seed=9)
    combined = np.vstack([train.features, test.features])
    assert combined.shape[0] == ds.n
    # every original row appears exactly once across the two sides
    original = {tuple(row) for row in ds.features}
    assert {tuple(row) for row in combined} == original


def test_stratified_split_deterministic():
    ds = make_labeled([10, 10])
    a = stratified_split(ds, 0.3, seed=5)
    b = stratified_split(ds, 0.3, seed=5)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].features, b[1].features)


def test_stratified_split_rejects_tiny_class():
    ds = Dataset(np.ones((3, 2)), np.array([0, 0, 1]), ["a", "b"])
    with pytest.raises(DataError):
        stratified_split(ds, 0.5, seed=0)


def test_stratified_split_rejects_bad_fraction():
    ds = make_labeled([5, 5])
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DataError):
            stratified_split(ds, frac, seed=0)


def test_make_folds_balanced_counts():
    ds = make_labeled([6, 3])
    plan = make_folds(ds, 3, seed=2)
    for fold in range(3):
        held = ds.labels[plan == fold]
        assert np.bincount(held, minlength=2).tolist() == [2, 1]


def test_make_folds_stratification_within_one_of_ceil():
    rng = np.random.default_rng(11)
    for trial in range(20):
        counts = rng.integers(4, 30, size=rng.integers(2, 5))
        ds = make_labeled(list(counts), seed=trial)
        k = int(rng.integers(2, 5))
        if counts.min() < k:
            continue
        plan = make_folds(ds, k, seed=trial)
        for c, count in enumerate(counts):
            ceil = -(-count // k)
            for fold in range(k):
                got = int(np.sum((plan == fold) & (ds.labels == c)))
                assert abs(got - ceil) <= 1


def test_make_folds_deterministic():
    ds = make_labeled([9, 9])
    a = make_folds(ds, 3, seed=4)
    b = make_folds(ds, 3, seed=4)
    assert np.array_equal(a, b)
    c = make_folds(ds, 3, seed=5)
    assert not np.array_equal(a, c)


def test_make_folds_returns_int64_fold_per_row():
    ds = make_labeled([7, 5])
    fold_of = make_folds(ds, 3, seed=1)
    assert isinstance(fold_of, np.ndarray)
    assert fold_of.dtype == np.int64 and fold_of.shape == (ds.n,)
    assert np.unique(fold_of).tolist() == [0, 1, 2]


def test_make_folds_rejects_empty_dataset():
    empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), ["a", "b"])
    with pytest.raises(DataError, match="empty dataset"):
        make_folds(empty, 3, seed=0)


def test_make_folds_rejects_small_class():
    ds = make_labeled([6, 2])
    with pytest.raises(DataError):
        make_folds(ds, 3, seed=0)


def test_split_fold_partitions():
    ds = make_labeled([6, 6])
    plan = make_folds(ds, 3, seed=0)
    train, held = split_fold(ds, plan, 1)
    assert train.n + held.n == ds.n
    assert held.n == int(np.sum(plan == 1))


def test_standardize_frozen_values():
    ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]), ["a", "b"])
    out = apply_scaler(fit_scaler("standardize", ds), ds)
    expected = np.array([[-1.224744871391589], [0.0], [1.224744871391589]])
    assert np.allclose(out.features, expected, atol=1e-15)
    assert out.features.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.features.std() == pytest.approx(1.0, abs=1e-12)


def test_minmax_frozen_values():
    ds = Dataset(np.array([[2.0], [4.0]]), np.array([0, 1]), ["a", "b"])
    out = apply_scaler(fit_scaler("minmax", ds), ds)
    assert out.features.tolist() == [[0.0], [1.0]]


def test_maxabs_frozen_values():
    ds = Dataset(np.array([[-4.0], [2.0]]), np.array([0, 1]), ["a", "b"])
    out = apply_scaler(fit_scaler("maxabs", ds), ds)
    assert out.features.tolist() == [[-1.0], [0.5]]


def test_scaler_transform_makes_one_array():
    # The scaled rows are divided in place: no second full-size array.
    rng = np.random.default_rng(47)
    features = rng.random((20_000, 40))
    spec = fit_scaler("standardize", Dataset(features, np.arange(20_000) % 2, ["a", "b"]))
    tracemalloc.start()
    try:
        spec.transform(features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * features.nbytes, peak / features.nbytes


@pytest.mark.parametrize("kind,constant", [
    ("standardize", 5.0),  # zero spread
    ("minmax", 5.0),       # zero range
    ("maxabs", 0.0),       # zero max magnitude
])
def test_degenerate_column_maps_to_zero(kind, constant):
    ds = Dataset(np.array([[constant, 1.0], [constant, 2.0], [constant, 3.0]]),
                 np.array([0, 1, 0]), ["a", "b"])
    spec = fit_scaler(kind, ds)
    assert apply_scaler(spec, ds).features[:, 0].tolist() == [0.0, 0.0, 0.0]
    # degenerate columns stay pinned to zero even for unseen values
    other = spec.transform(np.array([[9.0, 2.0]]))
    assert other[0, 0] == 0.0


def test_none_scaler_bitwise_round_trip():
    rng = np.random.default_rng(13)
    ds = Dataset(rng.normal(size=(20, 4)), np.zeros(20, dtype=int), ["a", "b"])
    out = apply_scaler(fit_scaler("none", ds), ds)
    assert np.array_equal(out.features, ds.features)


def test_scaler_statistics_fixed_at_fit_time():
    train = Dataset(np.array([[0.0], [10.0]]), np.array([0, 1]), ["a", "b"])
    spec = fit_scaler("minmax", train)
    # values outside the training range extrapolate with the same statistics
    assert spec.transform(np.array([[20.0]]))[0, 0] == pytest.approx(2.0)


def test_unknown_scaler_rejected():
    ds = make_labeled([3, 3])
    with pytest.raises(DataError):
        fit_scaler("robust", ds)


def test_scaler_width_mismatch_rejected():
    ds = make_labeled([3, 3])
    spec = fit_scaler("standardize", ds)
    with pytest.raises(DataError):
        spec.transform(np.ones((2, 5)))


# --- Block conversion of CSV cells --------------------------------------------

def oracle_parse(path, text, label_idx, has_header):
    """Reference reader: per-cell ``float(cell.strip())`` plus the finite check."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [(row, reader.line_num) for row in reader if row]
    if has_header:
        rows = rows[1:]
    width = len(rows[0][0])
    features, labels = [], []
    for row, line in rows:
        if len(row) != width:
            raise DataError(f"{path}: line {line} has {len(row)} cells, expected {width}")
        values = []
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
            values.append(value)
        features.append(values)
    return np.array(features, dtype=np.float64), labels


GOOD_CELLS = [" 1.5 ", "\t2\t", "1_0", "١٢", "１２", "-0", "+.5", "1e-400",
              '"2.5"', "\x1c3\x1f", " 4", "-1E3"]
BAD_CELLS = ["1e400", "nan", "inf", "-inf", "NaN", "0x10", "", '"1,5"', "1__0", "x", "\u200b5"]


def random_cell(rng, bad_rate):
    if rng.random() < bad_rate:
        return BAD_CELLS[rng.integers(len(BAD_CELLS))]
    if rng.random() < 0.5:
        return GOOD_CELLS[rng.integers(len(GOOD_CELLS))]
    return repr(float(rng.normal() * 10.0 ** rng.integers(-8, 9)))


def random_csv(rng, labeled, has_header):
    """CSV text with tricky cells, blank lines and the odd ragged row; and its label column."""
    width = int(rng.integers(2, 6))
    label_idx = int(rng.integers(width)) if labeled else None
    bad_rate = [0.0, 0.0, 0.01, 0.05][rng.integers(4)]
    lines = [",".join(f"c{j}" for j in range(width))] if has_header else []
    for i in range(int(rng.integers(2, 14))):
        cells = [random_cell(rng, bad_rate) for _ in range(width)]
        if label_idx is not None:
            cells[label_idx] = [" a", "b "][i % 2]
        if rng.random() < bad_rate:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        lines.append(",".join(cells))
        if rng.random() < 0.1:
            lines.append("")
    return "\n".join(lines) + "\n", label_idx


@pytest.mark.parametrize("block_rows", [3, data._BLOCK_ROWS])
@pytest.mark.parametrize("labeled", [True, False], ids=["load_csv", "load_feature_csv"])
def test_fuzz_matches_per_cell_float(tmp_path, monkeypatch, block_rows, labeled):
    monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(20261018 + block_rows + labeled)
    outcomes = set()
    for case in range(300):
        has_header = bool(rng.integers(2))
        text, label_idx = random_csv(rng, labeled, has_header)
        path = write(tmp_path, text, name=f"fuzz{case}.csv")
        try:
            expected = oracle_parse(path, text, label_idx, has_header)
        except DataError as exc:
            expected = exc
        try:
            if labeled:
                column = f"c{label_idx}" if has_header and case % 2 else label_idx
                ds = load_csv(path, label_column=column, has_header=has_header)
                got = ds.features, [ds.label_names[i] for i in ds.labels]
            else:
                got = data.load_feature_csv(path, has_header=has_header), []
        except DataError as exc:
            got = exc
        if isinstance(expected, DataError):
            assert isinstance(got, DataError), (text, expected)
            assert str(got) == str(expected), text
            outcomes.add("rejected")
        else:
            assert not isinstance(got, DataError), (text, got)
            assert got[0].shape == expected[0].shape, text
            assert np.array_equal(got[0].view(np.int64), expected[0].view(np.int64)), text
            assert got[1] == expected[1], text
            outcomes.add("parsed")
    assert outcomes == {"parsed", "rejected"}


def block_file(tmp_path, n_rows, replace=None):
    """n_rows labeled rows '<i>,<i/4>,<a|b>'; ``replace`` maps row index to its text."""
    lines = [f"{i},{i / 4},{'ab'[i % 2]}" for i in range(n_rows)]
    for i, text in (replace or {}).items():
        lines[i] = text
    return write(tmp_path, "\n".join(lines) + "\n")


@pytest.mark.parametrize("row_text,message", [
    ("1,oops,a", "cannot parse 'oops' as a number at line {line}, column 2"),
    ("NaN,2,b", "non-finite value 'NaN' at line {line}, column 1"),
    ("1,a", "line {line} has 2 cells, expected 3"),
], ids=["bad-cell", "nan", "ragged-row"])
def test_error_after_first_block_names_physical_line(tmp_path, row_text, message):
    index = data._BLOCK_ROWS + 37
    path = block_file(tmp_path, 2 * data._BLOCK_ROWS + 5, {index: row_text})
    with pytest.raises(DataError, match=message.format(line=index + 1)):
        load_csv(path)


@pytest.mark.parametrize("first", [5, data._BLOCK_ROWS + 5], ids=["first-block", "second-block"])
def test_bad_cell_before_ragged_row_in_the_same_block_wins(tmp_path, first):
    path = block_file(tmp_path, 2 * data._BLOCK_ROWS, {first: "1,x,a", first + 3: "1,2"})
    with pytest.raises(DataError, match=f"'x' as a number at line {first + 1}, column 2"):
        load_csv(path)
    path = block_file(tmp_path, 2 * data._BLOCK_ROWS, {first: "1,2", first + 3: "1,x,a"})
    with pytest.raises(DataError, match=f"line {first + 1} has 2 cells"):
        load_csv(path)


def test_middle_label_column_by_name_across_blocks(tmp_path):
    n = data._BLOCK_ROWS + 100
    rows = [f"{i},{'ab'[i % 3 == 0]},{-i / 8}" for i in range(n)]
    path = write(tmp_path, "x,species,y\n" + "\n".join(rows) + "\n")
    ds = load_csv(path, label_column="species", has_header=True)
    expected = np.column_stack([np.arange(n, dtype=np.float64), -np.arange(n) / 8])
    assert np.array_equal(ds.features.view(np.int64), expected.view(np.int64))
    assert ds.label_names == ["b", "a"]
    assert ds.labels.tolist() == [int(i % 3 != 0) for i in range(n)]


def test_separator_padded_cells_parse_as_stripped(tmp_path):
    # str.strip() removes U+001C..U+001F; float() alone rejects them.
    path = write(tmp_path, "\x1c1,2\x1f,a\n3,\x1d4\x1e,b\n")
    assert load_csv(path).features.tolist() == [[1.0, 2.0], [3.0, 4.0]]



# --- Checks on the first block, in the order they run ------------------------

@pytest.mark.parametrize("text,has_header,label_column,message", [
    ("", False, -1, "need at least 2 data rows, found 0"),
    ("", True, -1, "empty file"),
    ("", False, None, "empty file"),
    ("x,y,c\n", True, -1, "need at least 2 data rows, found 0"),
    ("x,y\n", True, None, "empty file"),
    ("\n\n\n", False, -1, "need at least 2 data rows, found 0"),
    ("\n\n\n", True, None, "empty file"),
    ("a\n", False, 5, "need at least 2 data rows, found 1"),
    ("a\nb\n", False, 5, "need at least one feature column plus the label column"),
    ("1,a\n2,b\n", False, "species", "given by name but the file has no header"),
], ids=["empty", "empty-header", "empty-features", "header-only", "header-only-features",
        "blank-lines", "blank-lines-features", "one-row", "one-column", "name-without-header"])
def test_first_block_errors_in_order(tmp_path, text, has_header, label_column, message):
    path = write(tmp_path, text)
    with pytest.raises(DataError, match=message):
        if label_column is None:
            data.load_feature_csv(path, has_header=has_header)
        else:
            load_csv(path, label_column=label_column, has_header=has_header)


def test_feature_csv_takes_one_row_of_one_column(tmp_path):
    assert data.load_feature_csv(write(tmp_path, "\n7\n")).tolist() == [[7.0]]


def test_bad_cell_in_a_later_block_wins_over_an_unknown_label(tmp_path):
    index = data._BLOCK_ROWS + 5
    path = block_file(tmp_path, 2 * data._BLOCK_ROWS, {3: "1,2,zzz", index: "1,x,a"})
    with pytest.raises(DataError, match=f"'x' as a number at line {index + 1}, column 2"):
        load_csv(path, vocabulary=["a", "b"])


@pytest.mark.parametrize("loader", [load_csv, data.load_feature_csv], ids=["load_csv", "load_feature_csv"])
def test_tokenizer_error_names_file_and_line(tmp_path, loader):
    path = write(tmp_path, "1,2,a\n3," + "4" * 140_000 + ",b\n5,6,a\n")
    with pytest.raises(DataError, match=f"^{re.escape(path)}: line 2: field larger than field limit"):
        loader(path)


@pytest.mark.parametrize("loader", [load_csv, data.load_feature_csv], ids=["load_csv", "load_feature_csv"])
def test_non_utf8_byte_names_file(tmp_path, loader):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,2,a\n3,\xff,b\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: byte 0xff is not valid UTF-8"):
        loader(str(path))


@pytest.mark.parametrize("labeled", [True, False], ids=["load_csv", "load_feature_csv"])
def test_peak_memory_stays_near_the_matrix(tmp_path, labeled):
    # The file is read block by block; no copy of its whole text is held.
    matrix = np.random.default_rng(7).normal(size=(20_000, 10))
    rows = [",".join(map(repr, row)) + [",a", ",b"][i % 2] * labeled for i, row in enumerate(matrix.tolist())]
    path = write(tmp_path, "\n".join(rows) + "\n")
    del rows
    tracemalloc.start()
    try:
        got = load_csv(path).features if labeled else data.load_feature_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, matrix)
    assert peak < 4 * got.nbytes, peak / got.nbytes


# --- The two readers: numpy's C reader for plain files, csv.reader for the rest --

def decline_plain(monkeypatch):
    """Send every file through the csv.reader path."""
    monkeypatch.setattr(data, "_read_plain", lambda *args: None)


def read_outcome(path, label_column, has_header):
    """(features, label strings) of a file, or the DataError it raises."""
    try:
        if label_column is None:
            return data.load_feature_csv(path, has_header=has_header), []
        ds = load_csv(path, label_column=label_column, has_header=has_header)
        return ds.features, [ds.label_names[i] for i in ds.labels]
    except DataError as exc:
        return exc


def assert_same_outcome(got, expected, context):
    if isinstance(expected, DataError):
        assert isinstance(got, DataError), (context, expected)
        assert str(got) == str(expected), context
    else:
        assert not isinstance(got, DataError), (context, got)
        assert got[0].shape == expected[0].shape, context
        assert np.array_equal(got[0].view(np.int64), expected[0].view(np.int64)), context
        assert got[1] == expected[1], context


def oracle_read(path, text, label_column, has_header):
    """The reference reader's outcome, with the width and header checks ``_read_csv`` makes."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        return DataError(f"{path}: line {reader.line_num}: {exc}")
    header = rows.pop(0) if has_header else None
    width = len(rows[0])
    label_idx = label_column
    if isinstance(label_column, str):
        label_idx = header.index(label_column)
    header_error = DataError(f"{path}: the header has {len(header or ())} cells but the data rows have {width}")
    try:
        if label_column is not None and width < 2:
            raise DataError(f"{path}: need at least one feature column plus the label column")
        if isinstance(label_column, str) and label_idx >= width:
            raise header_error
        if label_column is not None and label_idx >= width:
            raise DataError(f"label column index {label_column} out of range for {width} columns")
        parsed = oracle_parse(path, text, label_idx, has_header)
        if header is not None and len(header) != width:
            raise header_error
        if label_column is not None and len(set(parsed[1])) < 2:
            raise DataError(f"{path}: need at least 2 classes, found {len(set(parsed[1]))}")
        return parsed
    except DataError as exc:
        return exc


QUOTED_NUMBERS = ['"1.5"', '" -2 "', '"3\n"', '"\r\n4"', '"5"0', '"1e-3"']
QUOTED_BAD = ['"x"', '"1,5"', '""', '"nan"', '"""7"""', '1"2"']
QUOTED_LABELS = ['"a,b"', '"c""d"', '"e\r\nf"', '"g\nh"', '"i"j', '" k "', '""']


def quote_cell(rng, cell, label, bad_rate):
    """A quoted stand-in for ``cell``: a number or a label, now and then a bad cell or a
    quote inside an unquoted cell, which is text to csv.reader."""
    if label:
        return 'l"m' if rng.random() < 0.02 else QUOTED_LABELS[rng.integers(len(QUOTED_LABELS))]
    if rng.random() < 2 * bad_rate:
        return QUOTED_BAD[rng.integers(len(QUOTED_BAD))]
    return QUOTED_NUMBERS[rng.integers(len(QUOTED_NUMBERS))] if rng.random() < 0.8 else f'"{cell}"'


def random_csv_layout(rng, labeled):
    """CSV text with LF, CRLF or lone-CR line ends, blank lines before any header, the label
    column first, in the middle or last, and sometimes exactly two data rows.  In
    two files of three some cells are quoted: numbers, and labels holding commas,
    doubled quotes or line breaks (LF, or CR LF in one file of four); a quote may be
    followed by text, a line may hold only ``""``, and the header may span two lines."""
    width = int(rng.integers(2, 6))
    label_idx = int(rng.choice([0, width // 2, width - 1])) if labeled else None
    has_header = bool(rng.integers(2))
    bad_rate = [0.0, 0.0, 0.01, 0.05][rng.integers(4)]
    end = ["\n", "\r\n", "\r"][rng.integers(3)]
    quote_rate = [0.0, 0.15, 0.4][rng.integers(3)]
    inner_break = "\r\n" if rng.random() < 0.25 else "\n"  # a line break inside quotes
    lines = [""] * int(rng.integers(3))
    if has_header:
        header = [f"c{j}" for j in range(width)]
        if rng.random() < quote_rate:
            header = [f'"{name}"' for name in header]
            header[(label_idx or 0) + 1 - width * ((label_idx or 0) + 1 == width)] = '"spans\r\ntwo lines"'
        lines.append(",".join(header).replace("\r\n", inner_break))
    n_rows = 2 if rng.random() < 0.3 else int(rng.integers(2, 14))
    for i in range(n_rows):
        cells = [random_cell(rng, bad_rate) if rng.random() < 0.2 else repr(float(rng.normal()))
                 for _ in range(width)]
        if label_idx is not None:
            cells[label_idx] = [" a", "b ", "c"][i % 3]
        cells = [quote_cell(rng, cell, j == label_idx, bad_rate) if rng.random() < quote_rate else cell
                 for j, cell in enumerate(cells)]
        if rng.random() < bad_rate:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        if rng.random() < 0.02:
            cells[-1] += "#x"  # a cell, not a comment
        lines.append(",".join(cells).replace("\r\n", inner_break))
        if rng.random() < 0.1:
            lines.append('""' if rng.random() < quote_rate / 8 else "")
    return end.join(lines) + end, label_idx, has_header


def check_both_readers(tmp_path, name, text, column, has_header):
    """Assert that both readers give the oracle's outcome for ``text``; return that
    outcome and whether numpy's reader converted the file."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    path = str(path)
    expected = oracle_read(path, text, column, has_header)
    read_plain, took = data._read_plain, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_read_plain", lambda *args: took.append(read_plain(*args)) or took[-1])
        assert_same_outcome(read_outcome(path, column, has_header), expected, text)
        decline_plain(patch)
        assert_same_outcome(read_outcome(path, column, has_header), expected, text)
    return expected, took != [] and took[0] is not None


@pytest.mark.parametrize("labeled", [True, False], ids=["load_csv", "load_feature_csv"])
def test_fuzz_both_readers_match_the_oracle(tmp_path, labeled):
    rng = np.random.default_rng(20261019 + labeled)
    outcomes, routes = set(), []
    for case in range(400):
        text, label_idx, has_header = random_csv_layout(rng, labeled)
        column = f"c{label_idx}" if labeled and has_header and case % 2 else label_idx
        expected, numpy = check_both_readers(tmp_path, f"fuzz{case}.csv", text, column, has_header)
        outcomes.add("rejected" if isinstance(expected, DataError) else "parsed")
        routes.append(('"' in text, numpy))
    assert outcomes == {"parsed", "rejected"}
    # numpy's reader takes unquoted files only; both readers saw quoted ones.
    assert not any(quoted and numpy for quoted, numpy in routes)
    assert sum(numpy for _, numpy in routes) > 50
    assert sum(quoted for quoted, _ in routes) > 200


def test_fuzz_quoted_rows_under_small_field_limits(tmp_path):
    # The row scan then reads in chunks of ``limit`` bytes, and csv.reader refuses long cells.
    outcomes = set()
    old = csv.field_size_limit()
    try:
        for limit in (20, 48, 96):
            csv.field_size_limit(limit)
            rng = np.random.default_rng(20261021 + limit)
            for case in range(150):
                labeled = bool(case % 2)
                text, label_idx, has_header = random_csv_layout(rng, labeled)
                column = f"c{label_idx}" if labeled and has_header and case % 4 == 1 else label_idx
                expected, numpy = check_both_readers(tmp_path, f"fuzz{limit}-{case}.csv", text, column, has_header)
                outcomes.add("field limit" if "field larger than field limit" in str(expected)
                             else "numpy" if numpy else "csv")
    finally:
        csv.field_size_limit(old)
    assert outcomes == {"numpy", "csv", "field limit"}


@pytest.mark.parametrize("text,label_column", [
    ('1,2,a\n3,4,b\n5,6,"' + "x\n" * 70_000 + '"\n', -1),
    ('1,2,a\n3,4,b\n5,"' + "\n" * 140_000 + '4",a\n', -1),
    ('1,2\n3,4\n5,"' + "\n" * 140_000 + '4"\n', None),
    ('a,1,2\nb,3,4\nc"d,"' + "\n" * 140_000 + '4",5\n', 0),
], ids=["label", "number", "number-features", "number-after-a-quote-inside-a-label"])
def test_quoted_cell_over_the_field_limit_across_short_lines_is_refused(tmp_path, text, label_column):
    # Each line is short, but csv.reader counts the quoted cell, over 140,000 characters.
    path = write(tmp_path, text)
    assert not data._plain_text(path)
    got = read_outcome(path, label_column, False)
    assert re.match(f"^{re.escape(path)}: line [0-9]+: field larger than field limit", str(got)), got


def test_a_quote_in_any_read_of_the_scan_declines_the_file(tmp_path):
    head = "1,2,a\n" * (data._SCAN_BYTES // 6 + 1)
    assert len(head) > data._SCAN_BYTES  # the quote comes in the second read
    assert data._plain_text(write(tmp_path, head + "3,4,b\n", name="plain.csv"))
    quoted = write(tmp_path, head + '3,4,"b"\n', name="quoted.csv")
    assert not data._plain_text(quoted)
    assert load_csv(quoted).label_names == ["a", "b"]


@pytest.fixture
def small_field_limit():
    """A field limit of 64: longer than each row of the route cases, shorter than
    their lone-CR files read as one row."""
    old = csv.field_size_limit(64)
    yield
    csv.field_size_limit(old)


@pytest.mark.parametrize("text,route,expected", [
    ("1_0,2,a\n3,4,b\n", "csv", [[10.0, 2.0], [3.0, 4.0]]),
    ("١٢,2,a\n3,4,b\n", "csv", [[12.0, 2.0], [3.0, 4.0]]),
    ("\x1c3\x1f,2,a\n3,4,b\n", "numpy", [[3.0, 2.0], [3.0, 4.0]]),
    ("1e500,2,a\n3,4,b\n", "csv", "non-finite value '1e500' at line 1, column 1"),
    ("﻿1,2,a\n3,4,b\n", "numpy", [[1.0, 2.0], [3.0, 4.0]]),
    ('"1",2,a\n3,"4",b\n', "csv", [[1.0, 2.0], [3.0, 4.0]]),
    ('1,2,"a"\n3,4,b\n', "csv", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2,a\r\n\r\n3,4,b\r\n", "numpy", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2,#a\n3,4,b\n", "numpy", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2,a\n  \n3,4,b\n", "csv", "line 2 has 1 cells, expected 3"),
    ("1,,a\n3,4,b\n", "csv", "cannot parse '' as a number at line 1, column 2"),
    ('\ufeff"1",2,a\n3,4,b\n', "csv", [[1.0, 2.0], [3.0, 4.0]]),
    ('1,2,"a\nb"\r\n3,4,"b,c"\r\n', "csv", [[1.0, 2.0], [3.0, 4.0]]),
    ('1,2,"a\r\nb"\n3,4,b\n', "csv", [[1.0, 2.0], [3.0, 4.0]]),
    ('1,2,a"b\n3,4,b\n', "csv", [[1.0, 2.0], [3.0, 4.0]]),
    ('1,2, "a"\n3,4,b\n', "csv", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2,a\r" + "3,4,b\r" * 20, "numpy", [[1.0, 2.0]] + [[3.0, 4.0]] * 20),
    ('1,2,"a\nb"\r' + "3,4,b\r" * 20, "csv", [[1.0, 2.0]] + [[3.0, 4.0]] * 20),
], ids=["underscore", "arabic-digits", "separators", "overflow", "byte-order-mark", "quoted",
        "quoted-label", "crlf", "hash", "whitespace-row", "empty-cell", "byte-order-mark-quoted",
        "quoted-lf-and-comma", "quoted-crlf", "quote-inside-a-cell", "space-before-a-quote",
        "lone-cr", "lone-cr-quoted"])
def test_reader_route_and_result(tmp_path, monkeypatch, small_field_limit, text, route, expected):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    path = str(path)
    try:
        plain = data._read_plain(path, 0, 3, 2)
    except ValueError:
        plain = None
    assert (plain is not None) == (route == "numpy")
    outcomes = [read_outcome(path, -1, False)]
    decline_plain(monkeypatch)
    outcomes.append(read_outcome(path, -1, False))
    for got in outcomes:
        if isinstance(expected, str):
            assert isinstance(got, DataError) and expected in str(got)
        else:
            assert got[0].tolist() == expected
    assert_same_outcome(outcomes[0], outcomes[1], text)


@pytest.mark.parametrize("loader", [load_csv, data.load_feature_csv], ids=["load_csv", "load_feature_csv"])
def test_finite_cell_over_the_field_limit_is_refused(tmp_path, loader):
    # 0.000...01 parses to a finite number, so only the field limit can refuse it.
    path = write(tmp_path, "1,2,a\n3,0." + "0" * 140_000 + "1,b\n5,6,a\n")
    assert not data._plain_text(path)
    with pytest.raises(DataError, match=f"^{re.escape(path)}: line 2: field larger than field limit"):
        loader(path)


def test_nul_byte_goes_to_the_csv_reader(tmp_path):
    # Python 3.10's csv.reader refuses a NUL; numpy's reader would keep it in the label.
    path = tmp_path / "nul.csv"
    path.write_bytes(b"1,2,a\0\n3,4,b\n")
    assert not data._plain_text(str(path))


@pytest.mark.parametrize("plain", [True, False], ids=["numpy", "csv"])
def test_feature_file_with_one_data_row(tmp_path, monkeypatch, plain):
    path = write(tmp_path, "x,y,z\n\n1.5,-2,3e-3\n")
    if not plain:
        decline_plain(monkeypatch)
    got = data.load_feature_csv(path, has_header=True)
    assert got.tolist() == [[1.5, -2.0, 0.003]] and got.dtype == np.float64


@pytest.mark.parametrize("plain", [True, False], ids=["numpy", "csv"])
def test_header_width_must_match_the_rows(tmp_path, monkeypatch, plain):
    if not plain:
        decline_plain(monkeypatch)
    shorter = write(tmp_path, "x,species\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n", name="shorter.csv")
    message = f"^{re.escape(shorter)}: the header has 2 cells but the data rows have 3$"
    with pytest.raises(DataError, match=message):
        load_csv(shorter, label_column="species", has_header=True)
    with pytest.raises(DataError, match=message):
        load_csv(shorter, label_column=-1, has_header=True)
    with pytest.raises(DataError, match=message):
        data.load_feature_csv(shorter, has_header=True)
    longer = write(tmp_path, "x,y,z,species\n1,2,a\n3,4,b\n", name="longer.csv")
    with pytest.raises(DataError, match=f"^{re.escape(longer)}: the header has 4 cells but the data rows have 3$"):
        load_csv(longer, label_column="species", has_header=True)


def hard_number_strings(rng, count):
    """Decimal strings where a correctly rounded parse is easy to get wrong."""
    exact = decimal.Context(prec=800)
    out = ["-0", "-0.0", "+0e5", "0e-400", "1e-400", "-1e-400", "5e-324", "2.4703282292062328e-324",
           "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
           "9007199254740993", "0.1", "0.30000000000000004"]
    while len(out) < count:
        kind = rng.integers(4)
        bits = rng.integers(1, 0x7FEFFFFFFFFFFFFF, dtype=np.int64)
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(17, 60)))))
        if kind == 0:  # halfway between two neighbouring doubles, and just either side of it
            a = float(np.int64(bits).view(np.float64))
            mid = str(exact.divide(exact.add(decimal.Decimal(a), decimal.Decimal(np.nextafter(a, np.inf))), 2))
            fraction = "." in mid and "E" not in mid
            out.append(mid + ["", "0001", "9999"][rng.integers(3)] * fraction)
        elif kind == 1:  # long mantissas
            out.append(f"{'-' * int(rng.integers(2))}{digits[0]}.{digits[1:]}e{int(rng.integers(-330, 290))}")
        elif kind == 2:  # subnormals, and values that round to zero
            out.append(f"{digits[0]}.{digits[1:]}e-{int(rng.integers(308, 330))}")
        else:  # shortest repr of a random double
            out.append(repr(float(np.int64(bits).view(np.float64))))
    return out


def test_numpy_reader_matches_float_bit_for_bit(tmp_path):
    strings = hard_number_strings(np.random.default_rng(20261019), 20_000)
    width = 10
    path = write(tmp_path, "".join(",".join(strings[i:i + width]) + "\n" for i in range(0, len(strings), width)))
    plain = data._read_plain(path, 0, 10, None)
    assert plain is not None
    expected = np.array([float(s) for s in strings]).reshape(-1, width)
    assert np.array_equal(plain[0].view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("text,column,message", [
    ("1,2,a\n", -1, "need at least 2 data rows, found 1"),
    ("1,2,a\n3,4,b\n", 5, "label column index 5 out of range for 3 columns"),
    ("1,2,a\n3,4,b\n", "species", "label column 'species' given by name but the file has no header"),
], ids=["one-row", "index-out-of-range", "name-without-header"])
def test_first_block_checks_run_before_the_numpy_reader(tmp_path, monkeypatch, text, column, message):
    calls = []
    monkeypatch.setattr(data, "_read_plain", lambda *args: calls.append(args))
    path = write(tmp_path, text)
    with pytest.raises(DataError, match=message):
        load_csv(path, label_column=column)
    assert calls == []


def encode_labels_loop(raw, vocabulary=None):
    """Reference: encode_labels as a loop over the labels."""
    names = [] if vocabulary is None else list(vocabulary)
    index = {name: i for i, name in enumerate(names)}
    ids = np.empty(len(raw), dtype=np.int64)
    for i, name in enumerate(raw):
        if name not in index:
            if vocabulary is not None:
                raise DataError(f"label {name!r} not in the model vocabulary")
            index[name] = len(names)
            names.append(name)
        ids[i] = index[name]
    return ids, names


def test_encode_labels_matches_the_loop():
    rng = np.random.default_rng(20261020)
    pool = ["a", "b", " c", "d'", 'e"', "", "ü"]
    outcomes = set()
    for case in range(1000):
        raw = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(0, 12)))]
        vocabulary = None
        if case % 2:
            vocabulary = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(0, 9)))]
        results = []
        for encode in (data.encode_labels, encode_labels_loop):
            try:
                ids, names = encode(raw, vocabulary)
                results.append((ids.dtype, ids.shape, ids.tolist(), names))
            except DataError as exc:
                results.append(str(exc))
        assert results[0] == results[1], (raw, vocabulary)
        outcomes.add(type(results[0]))
    assert outcomes == {tuple, str}


def test_dataset_features_must_be_a_matrix():
    with pytest.raises(DataError, match="^features must be a 2-d matrix$"):
        Dataset(np.zeros(3), np.zeros(3, dtype=int), ["a"])


def test_stratified_split_rejects_an_empty_test_side():
    ds = Dataset(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]), ["a", "b"])
    with pytest.raises(DataError, match="^test fraction too small: the test side came out empty$"):
        stratified_split(ds, 0.1, seed=0)


@pytest.mark.parametrize("fold_count", [1, 0, -2])
def test_make_folds_needs_two_folds(fold_count):
    ds = Dataset(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]), ["a", "b"])
    with pytest.raises(DataError, match="^fold_count must be at least 2$"):
        make_folds(ds, fold_count, seed=0)


def test_make_folds_skips_a_vocabulary_class_without_rows():
    # Class "b" names no row: it needs no fold_count rows, and no fold holds it.
    ds = Dataset(np.arange(6.0)[:, None], np.array([0, 0, 0, 2, 2, 2]), ["a", "b", "c"])
    fold_of = make_folds(ds, 3, seed=0)
    for fold in range(3):
        assert ds.labels[fold_of == fold].tolist() == [0, 2]


@pytest.mark.parametrize("fold", [-1, 3])
def test_split_fold_rejects_a_fold_out_of_range(fold):
    ds = Dataset(np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]), ["a", "b"])
    with pytest.raises(DataError, match=f"^fold {fold} out of range$"):
        split_fold(ds, make_folds(ds, 3, seed=0), fold)
