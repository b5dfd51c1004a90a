import builtins
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from kernelcast.cli import (BENCHMARK_METHODS, _parse_method, main,
                           rank_with_mid_ties)
from kernelcast.data import load_csv
from kernelcast.kernelmap import map_matrix
from kernelcast.serialize import load
from synthdata import make_blobs, write_labeled_csv


def scrub_times(path):
    doc = json.loads(Path(path).read_text())
    for entry in doc["evaluated"]:
        entry["wall_time"] = None
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    train = make_blobs(n_per_class=30, spread=0.6, gap=3.0, seed=0)
    holdout = make_blobs(n_per_class=12, spread=0.6, gap=3.0, seed=1)
    write_labeled_csv(root / "train.csv", train)
    write_labeled_csv(root / "holdout.csv", holdout)
    report = root / "report.json"
    rc = main(["search", "--data", str(root / "train.csv"),
               "--budget", "20", "--seed", "3",
               "--out", str(report)])
    assert rc == 0
    return root


def test_search_respects_budget(tmp_path, capsys):
    ds = make_blobs(n_per_class=15, spread=0.5, seed=2)
    write_labeled_csv(tmp_path / "d.csv", ds)
    out = tmp_path / "r.json"
    assert main(["search", "--data", str(tmp_path / "d.csv"),
                 "--budget", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["evaluated"]) == 1
    assert "evaluated 1 configurations" in capsys.readouterr().out


def test_search_repeats_identically_up_to_timing(workdir):
    again = workdir / "report_again.json"
    assert main(["search", "--data", str(workdir / "train.csv"),
                 "--budget", "20", "--seed", "3", "--out", str(again)]) == 0
    assert scrub_times(workdir / "report.json") == scrub_times(again)


def test_search_grid_mode_with_sampler_filter(tmp_path):
    ds = make_blobs(n_per_class=20, spread=0.5, seed=3)
    write_labeled_csv(tmp_path / "d.csv", ds)
    out = tmp_path / "r.json"
    assert main(["search", "--data", str(tmp_path / "d.csv"),
                 "--mode", "grid", "--sampler", "kmeans",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["evaluated"]) == 340
    assert doc["mode"] == "grid"
    assert all(e["config"]["sampler"] == "kmeans" for e in doc["evaluated"])


def test_search_without_viable_configuration_exits_nonzero(tmp_path, capsys):
    # 2 training rows per fold: every configuration needs at least 4 references
    ds = make_blobs(n_per_class=2, spread=0.5, seed=4)
    write_labeled_csv(tmp_path / "d.csv", ds)
    out = tmp_path / "r.json"
    assert main(["search", "--data", str(tmp_path / "d.csv"), "--folds", "2",
                 "--budget", "5", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert len(doc["evaluated"]) == 5
    assert all(e["cv_ber"] is None and e["error"] for e in doc["evaluated"])
    assert "error: search produced no viable configuration" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_search_prints_a_failure_census_only_when_configurations_fail(tmp_path, monkeypatch,
                                                                      capsys, threads):
    monkeypatch.setenv("KERNELCAST_THREADS", threads)
    # 8 training rows per fold: configurations with 16 or more references fail
    write_labeled_csv(tmp_path / "small.csv", make_blobs(n_per_class=6, spread=0.5, seed=5))
    out = tmp_path / "r.json"
    assert main(["search", "--data", str(tmp_path / "small.csv"), "--budget", "30",
                 "--out", str(out)]) == 0
    failed = sum(e["error"] is not None for e in json.loads(out.read_text())["evaluated"])
    assert 0 < failed < 30
    assert capsys.readouterr().err == f"failed {failed} (SamplingError: {failed})\n"
    # 66 training rows per fold hold every reference count
    write_labeled_csv(tmp_path / "large.csv", make_blobs(n_per_class=50, spread=0.5, seed=5))
    assert main(["search", "--data", str(tmp_path / "large.csv"), "--budget", "30",
                 "--out", str(out)]) == 0
    assert all(e["error"] is None for e in json.loads(out.read_text())["evaluated"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_threads_env_var_rejects_bad_values(workdir, tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("KERNELCAST_THREADS", value)
    assert main(["search", "--data", str(workdir / "train.csv"), "--budget", "2",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert f"KERNELCAST_THREADS must be a non-negative integer, got {value!r}" \
        in capsys.readouterr().err


def test_threads_env_var_does_not_change_report(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv("KERNELCAST_THREADS", "4")
    out = tmp_path / "parallel.json"
    assert main(["search", "--data", str(workdir / "train.csv"),
                 "--budget", "20", "--seed", "3", "--out", str(out)]) == 0
    assert scrub_times(workdir / "report.json") == scrub_times(out)


def test_train_single_matches_one_member_ensemble(workdir, tmp_path):
    single = tmp_path / "single.json"
    ens = tmp_path / "ens.json"
    args = ["train", "--data", str(workdir / "train.csv"),
            "--report", str(workdir / "report.json"), "--seed", "4"]
    assert main(args + ["--out", str(single)]) == 0
    assert main(args + ["--ensemble-size", "1", "--out", str(ens)]) == 0
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for model, out in ((single, p1), (ens, p2)):
        assert main(["predict", "--model", str(model),
                     "--data", str(workdir / "holdout.csv"),
                     "--truth-col", "-1", "--out", str(out)]) == 0
    assert p1.read_text() == p2.read_text()


def test_train_ensemble_and_predict_strings(workdir, tmp_path, capsys):
    model = tmp_path / "ens.json"
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--report", str(workdir / "report.json"),
                 "--ensemble-size", "5", "--out", str(model)]) == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model),
                 "--data", str(workdir / "holdout.csv"),
                 "--truth-col", "-1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "BER: " in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 24
    assert set(lines) <= {"c0", "c1"}


def test_predict_memorized_training_data_is_perfect(workdir, tmp_path, capsys):
    cfg = dict(k_references=32, sampling_distance="euclidean",
               sampler="random", kernel="gaussian", ref_type="centers",
               classifier="knn",
               knn=dict(neighbors=1, weighting="uniform",
                        distance="euclidean"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--config", str(cfg_path), "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model),
                 "--data", str(workdir / "train.csv"),
                 "--truth-col", "-1",
                 "--out", str(tmp_path / "pred.csv")]) == 0
    assert "BER: 0.000000" in capsys.readouterr().out


def test_predict_dump_mapped_matrix(workdir, tmp_path):
    cfg = dict(k_references=4, sampling_distance="euclidean",
               sampler="random", kernel="cauchy", ref_type="centers",
               classifier="gnb")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--config", str(cfg_path), "--out", str(model)]) == 0
    mapped_path = tmp_path / "mapped.csv"
    assert main(["predict", "--model", str(model),
                 "--data", str(workdir / "holdout.csv"), "--truth-col", "-1",
                 "--dump-mapped", str(mapped_path),
                 "--out", str(tmp_path / "pred.csv")]) == 0
    mapped = np.loadtxt(mapped_path, delimiter=",")
    assert mapped.shape == (24, 4)
    assert np.all((mapped >= 0) & (mapped <= 1))


@pytest.mark.parametrize("section,field", [(None, "kernel"), ("knn", "weighting")])
def test_train_config_missing_field_is_named(workdir, tmp_path, capsys, section, field):
    cfg = dict(k_references=4, sampling_distance="euclidean", sampler="random",
               kernel="cauchy", ref_type="centers", classifier="knn",
               knn=dict(neighbors=3, weighting="uniform", distance="euclidean"))
    del (cfg[section] if section else cfg)[field]
    cfg_path, model = tmp_path / "cfg.json", tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--config", str(cfg_path), "--out", str(model)]) == 1
    assert f"configuration is missing field '{field}'" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("doc,detail", [
    ([1, 2], "'list' object has no attribute 'get'"),
    ({"k_references": 4, "sampling_distance": "euclidean", "sampler": "random",
      "kernel": "cauchy", "ref_type": "centers", "classifier": "knn", "knn": 5},
     "'int' object is not subscriptable"),
])
def test_train_config_malformed_document_is_named(workdir, tmp_path, capsys, doc, detail):
    cfg_path, model = tmp_path / "cfg.json", tmp_path / "model.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--config", str(cfg_path), "--out", str(model)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg_path}: configuration is malformed: {detail}\n"
    assert not model.exists()


@pytest.mark.parametrize("command", ["predict --model", "train --report", "train --config"])
def test_document_that_is_not_json_is_named(workdir, tmp_path, capsys, command):
    doc, out = tmp_path / "doc.json", tmp_path / "out.json"
    doc.write_text("not json\n")
    name, flag = command.split()
    data = workdir / ("holdout.csv" if name == "predict" else "train.csv")
    assert main([name, flag, str(doc), "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {doc}: not a JSON document: Expecting value: line 1 column 1 (char 0)\n"
    assert not out.exists()


def test_predict_dump_mapped_rejects_ensemble_before_writing(workdir, tmp_path, capsys):
    model = tmp_path / "ens.json"
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--report", str(workdir / "report.json"),
                 "--ensemble-size", "2", "--out", str(model)]) == 0
    out, mapped = tmp_path / "pred.csv", tmp_path / "mapped.csv"
    assert main(["predict", "--model", str(model),
                 "--data", str(workdir / "holdout.csv"), "--truth-col", "-1",
                 "--dump-mapped", str(mapped), "--out", str(out)]) == 1
    assert "--dump-mapped works only with single models" in capsys.readouterr().err
    assert not out.exists() and not mapped.exists()


@pytest.mark.parametrize("ensemble_size", [None, "2"], ids=["single", "ensemble"])
def test_predict_rejects_a_query_width_the_model_does_not_take(workdir, tmp_path, capsys,
                                                               ensemble_size):
    model = tmp_path / "model.json"
    size = [] if ensemble_size is None else ["--ensemble-size", ensemble_size]
    assert main(["train", "--data", str(workdir / "train.csv"),
                 "--report", str(workdir / "report.json"), *size, "--out", str(model)]) == 0
    data, out = tmp_path / "wide.csv", tmp_path / "pred.csv"
    data.write_text("1,2,3\n4,5,6\n")
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data}: rows have 3 features, the model takes 2\n"
    assert not out.exists()


def test_train_rejects_report_whose_best_index_is_not_the_best(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "report.json").read_text())
    doc["best_index"] = -1
    report = tmp_path / "edited.json"
    report.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    assert main(["train", "--data", str(workdir / "train.csv"), "--report", str(report),
                 "--out", str(out)]) == 1
    assert "error: best_index -1 is not" in capsys.readouterr().err
    assert not out.exists()


def test_train_shape_mismatch_warns(workdir, tmp_path, capsys):
    assert main(["train", "--data", str(workdir / "holdout.csv"),
                 "--report", str(workdir / "report.json"),
                 "--out", str(tmp_path / "m.json")]) == 0
    assert "warning" in capsys.readouterr().err


def test_train_requires_exactly_one_source(workdir, tmp_path, capsys):
    base = ["train", "--data", str(workdir / "train.csv"),
            "--out", str(tmp_path / "m.json")]
    assert main(base) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_data_file_fails_cleanly(tmp_path, capsys):
    rc = main(["search", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_consensus_csv(workdir, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["consensus", "--data", str(workdir / "train.csv"),
                 "--report", str(workdir / "report.json"),
                 "--eval-data", str(workdir / "holdout.csv"),
                 "--ell-start", "3", "--step", "2", "--ell-max", "7",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ell,raw_ratio,normalized_ratio"
    assert len(lines) == 4
    ells = []
    for line in lines[1:]:
        ell, raw, norm = line.split(",")
        ells.append(int(ell))
        assert 0.0 <= float(raw) <= 1.0
        assert 0.0 <= float(norm) <= 1.0
    assert ells == [3, 5, 7]


def test_benchmark_two_methods(workdir, tmp_path, capsys):
    manifest = {
        "datasets": [{
            "name": "blobs",
            "splits": [
                {"train": str(workdir / "train.csv"),
                 "test": str(workdir / "holdout.csv")},
                {"train": str(workdir / "holdout.csv"),
                 "test": str(workdir / "train.csv")},
            ],
        }],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "bench.json"
    assert main(["benchmark", "--manifest", str(mpath),
                 "--methods", "kms-rs,kmse-rs", "--budget", "12",
                 "--ensemble-size", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "benchmark_report"
    cell = doc["datasets"][0]
    assert cell["splits_used"] == 2
    for method in ("kms-rs", "kmse-rs"):
        scores = cell["methods"][method]
        assert len(scores["per_split_ber"]) == 2
        assert scores["mean_ber"] == pytest.approx(
            np.mean(scores["per_split_ber"]))
        assert scores["mean_ber_fn_only"] <= scores["mean_ber"]
    ranks = sorted(doc["ranks"]["per_dataset"]["blobs"].values())
    assert ranks in ([1.0, 2.0], [1.5, 1.5])
    assert sorted(doc["method_order"]) == ["kms-rs", "kmse-rs"]
    assert "method order by average rank" in capsys.readouterr().out


def _manifest_with(field):
    # The split files do not exist: a check that reads them first fails otherwise.
    return '{"datasets": [{"name": "d", %s, "splits": [{"train": "a.csv", "test": "b.csv"}]}]}' % field


@pytest.mark.parametrize("text,message", [
    ("{", "not a JSON document: Expecting property name enclosed in double quotes"),
    ("[1, 2]", "manifest must contain a non-empty 'datasets' list"),
    ('{"datasets": []}', "manifest must contain a non-empty 'datasets' list"),
    ('{"datasets": ["name"]}', "every manifest dataset needs a name and a non-empty 'splits' list"),
    ('{"datasets": [{"splits": [{"train": "a", "test": "b"}]}]}',
     "every manifest dataset needs a name and a non-empty 'splits' list"),
    ('{"datasets": [{"name": "d", "splits": "abc"}]}',
     "every manifest dataset needs a name and a non-empty 'splits' list"),
    ('{"datasets": [{"name": "d", "splits": ["a.csv"]}]}', "every split needs 'train' and 'test' file paths"),
    ('{"datasets": [{"name": "d", "splits": [{"train": "a.csv"}]}]}',
     "every split needs 'train' and 'test' file paths"),
    ('{"datasets": [{"name": "d", "splits": [{"train": ["a.csv"], "test": "b.csv"}]}]}',
     "every split needs 'train' and 'test' file paths"),
    (_manifest_with('"has_header": "false"'), "a dataset's 'has_header' must be true or false"),
    (_manifest_with('"has_header": 0'), "a dataset's 'has_header' must be true or false"),
    (_manifest_with('"label_col": 1.7'), "a dataset's 'label_col' must be an integer"),
    (_manifest_with('"label_col": true'), "a dataset's 'label_col' must be an integer"),
    (_manifest_with('"label_col": "2"'), "a dataset's 'label_col' must be an integer"),
], ids=["not-json", "list", "no-datasets", "string-dataset", "no-name", "string-splits",
        "string-split", "no-test", "list-train", "string-header", "int-header",
        "float-label-col", "bool-label-col", "string-label-col"])
def test_benchmark_rejects_a_malformed_manifest_naming_it(tmp_path, capsys, text, message):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(text)
    out = tmp_path / "b.json"
    assert main(["benchmark", "--manifest", str(mpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {mpath}: {message}")
    assert not out.exists()


def test_benchmark_rejects_unknown_method(workdir, tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"datasets": [{
        "name": "d", "splits": [{"train": "x", "test": "y"}]}]}))
    rc = main(["benchmark", "--manifest", str(mpath),
               "--methods", "kms-extreme", "--out", str(tmp_path / "b.json")])
    assert rc == 1
    assert "unknown method" in capsys.readouterr().err


def test_benchmark_rejects_empty_ensemble(workdir, tmp_path, capsys):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"datasets": [{"name": "blobs", "splits": [
        {"train": str(workdir / "train.csv"), "test": str(workdir / "holdout.csv")}]}]}))
    out = tmp_path / "b.json"
    assert main(["benchmark", "--manifest", str(mpath), "--methods", "kmse-rs",
                 "--budget", "4", "--ensemble-size", "0", "--out", str(out)]) == 1
    assert "ensemble size must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_splits", ["0", "-1"])
def test_benchmark_rejects_max_splits_below_one(workdir, tmp_path, capsys, max_splits):
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps({"datasets": [{"name": "blobs", "splits": [
        {"train": str(workdir / "train.csv"), "test": str(workdir / "holdout.csv")}]}]}))
    out = tmp_path / "b.json"
    assert main(["benchmark", "--manifest", str(mpath), "--budget", "4",
                 "--max-splits", max_splits, "--out", str(out)]) == 1
    assert "--max-splits must be at least 1" in capsys.readouterr().err
    assert not out.exists()


PARSED_METHODS = {
    "kms-rs": (False, "random", None), "kmse-rs": (True, "random", None),
    "kms-gs": (False, "grid", None), "kmse-gs": (True, "grid", None),
    "kms-random": (False, "random", "random"), "kmse-random": (True, "random", "random"),
    "kms-density": (False, "random", "density"), "kmse-density": (True, "random", "density"),
    "kms-fft": (False, "random", "fft"), "kmse-fft": (True, "random", "fft"),
    "kms-kmeans": (False, "random", "kmeans"), "kmse-kmeans": (True, "random", "kmeans"),
}


@pytest.mark.parametrize("method", BENCHMARK_METHODS)
def test_parse_method(method):
    assert _parse_method(method) == PARSED_METHODS[method]


def test_rank_mid_tie_values():
    assert rank_with_mid_ties([0.3, 0.1, 0.2]) == [3.0, 1.0, 2.0]
    assert rank_with_mid_ties([0.5, 0.5]) == [1.5, 1.5]
    assert rank_with_mid_ties([0.2, 0.1, 0.2, 0.2]) == [3.0, 1.0, 3.0, 3.0]
    assert rank_with_mid_ties([0.2, 0.2, 0.1, 0.3, 0.3, 0.3]) == [2.5, 2.5, 1.0, 5.0, 5.0, 5.0]
    assert rank_with_mid_ties([0.4] * 4) == [2.5] * 4


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


class HalfWritten:
    """A text file whose first write stores half its text, then fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def output_argv(command, workdir, tmp_path):
    data = ["--data", str(workdir / "train.csv")]
    if command == "predict":
        model = tmp_path / "model.json"
        assert main(["train", *data, "--report", str(workdir / "report.json"),
                     "--out", str(model)]) == 0
        return ["predict", "--model", str(model), "--data", str(workdir / "holdout.csv"),
                "--truth-col", "-1"]
    if command == "consensus":
        return ["consensus", *data, "--report", str(workdir / "report.json"), "--ell-max", "5"]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"datasets": [{"name": "blobs", "splits": [
        {"train": str(workdir / "train.csv"), "test": str(workdir / "holdout.csv")}]}]}))
    return ["benchmark", "--manifest", str(manifest), "--methods", "kms-rs", "--budget", "4"]


@pytest.mark.parametrize("command", ["predict", "consensus", "benchmark"])
def test_failed_output_write_keeps_previous_file(workdir, tmp_path, monkeypatch, capsys,
                                                 command):
    argv = output_argv(command, workdir, tmp_path)
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    assert main([*argv, "--out", str(out)]) == 0
    before = out.read_bytes()
    real_open = builtins.open

    def disk_full_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWritten(fh) if mode.startswith("w") else fh

    monkeypatch.setattr(builtins, "open", disk_full_open)
    assert main([*argv, "--out", str(out)]) == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == ["result"]


def test_failed_dump_mapped_write_keeps_previous_file(workdir, tmp_path, monkeypatch, capsys):
    # Only writes into out/ fail, so the predictions are written and the dump is reached.
    argv = output_argv("predict", workdir, tmp_path) + ["--out", str(tmp_path / "pred.txt")]
    mapped = tmp_path / "out" / "mapped.csv"
    mapped.parent.mkdir()
    assert main([*argv, "--dump-mapped", str(mapped)]) == 0
    before = mapped.read_bytes()
    model = load(tmp_path / "model.json")
    features = load_csv(workdir / "holdout.csv", label_column=-1).features
    np.savetxt(tmp_path / "savetxt.csv", delimiter=",",
               X=map_matrix(model.scaler.transform(features), model.refs, model.config.kernel))
    assert before == (tmp_path / "savetxt.csv").read_bytes()
    real_open = builtins.open

    def disk_full_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        failing = mode.startswith("w") and Path(file).parent == mapped.parent
        return HalfWritten(fh) if failing else fh

    monkeypatch.setattr(builtins, "open", disk_full_open)
    assert main([*argv, "--dump-mapped", str(mapped)]) == 1
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert mapped.read_bytes() == before
    assert [p.name for p in mapped.parent.iterdir()] == ["mapped.csv"]
