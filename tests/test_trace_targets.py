"""The traced benchmark run (perfbench/tracing.py) wraps package functions by
attribute name where their callers look them up.  These tests install its
TARGETS against the package, so a rename or a changed call path fails here
instead of silently dropping a layer from the traced run."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from kernelcast.cli import main
from synthdata import make_blobs, write_labeled_csv

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def run_every_command(root: Path) -> None:
    train = make_blobs(n_per_class=20, spread=0.6, gap=3.0, seed=0)
    write_labeled_csv(root / "train.csv", train)
    write_labeled_csv(root / "tiny.csv", make_blobs(n_per_class=6, spread=0.6, seed=1))
    np.savetxt(root / "query.csv", train.features[:7], delimiter=",")
    data = ["--data", str(root / "train.csv")]

    def ok(argv):
        assert main(argv) == 0, argv

    ok(["search", *data, "--budget", "6", "--out", str(root / "report.json")])
    ok(["search", "--data", str(root / "tiny.csv"), "--mode", "grid", "--sampler", "kmeans",
        "--folds", "2", "--out", str(root / "grid.json")])
    for sampler, classifier in (("random", "gnb"), ("density", "knn"), ("fft", "gnb"),
                                ("kmeans", "knn")):
        cfg = {"k_references": 4, "sampling_distance": "euclidean", "sampler": sampler,
               "kernel": "gaussian", "ref_type": "centroids", "classifier": classifier,
               "knn": {"neighbors": 3, "weighting": "uniform", "distance": "euclidean"}
               if classifier == "knn" else None}
        (root / "cfg.json").write_text(json.dumps(cfg))
        ok(["train", *data, "--config", str(root / "cfg.json"),
            "--out", str(root / f"{sampler}.json")])
    ok(["train", *data, "--report", str(root / "report.json"), "--ensemble-size", "2",
        "--out", str(root / "ens.json")])
    ok(["predict", "--model", str(root / "ens.json"), *data, "--truth-col", "-1",
        "--out", str(root / "p1.txt")])
    ok(["predict", "--model", str(root / "kmeans.json"), "--data", str(root / "query.csv"),
        "--dump-mapped", str(root / "mapped.csv"), "--out", str(root / "p2.txt")])


def test_every_trace_target_is_called_and_uninstalled(tmp_path):
    tracing = load_tracing()
    originals = [current(m, a) for m, a, _, _ in tracing.TARGETS]
    # One span per call site, so each target shows on its own.
    sites = [(m, a, None if name is None else f"{m}:{a}", count)
             for m, a, name, count in tracing.TARGETS]
    recorder = tracing.Recorder()
    recorder.install(sites)
    try:
        assert all(current(m, a) is not fn
                   for (m, a, _, _), fn in zip(tracing.TARGETS, originals))
        run_every_command(tmp_path)
    finally:
        recorder.uninstall()
    assert all(current(m, a) is fn for (m, a, _, _), fn in zip(tracing.TARGETS, originals))

    totals = tracing.span_totals(recorder.threads)
    missed = [name for _, _, name, _ in sites if name is not None and name not in totals]
    assert missed == []
    counts = recorder.counts()
    for key in ("sampling.lloyd.iters", "classify.knn_predict.queries", "data.load_csv.rows",
                "geometry.pairwise.cells", "kernelmap.map.cells", "ensemble.members",
                "serialize.bytes_written", "serialize.bytes_read", "parallel.workers"):
        assert counts.get(key, 0) > 0, key
