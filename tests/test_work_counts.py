"""Work counts of fixed small commands, pinned to a committed table.

The traced benchmark run (perfbench/tracing.py) counts the work each layer
does: distance cells, reference sets, Lloyd iterations, mapped cells, kNN
queries, fitted pipelines and CSV rows.  These tests install its TARGETS,
run a random search, a kmeans grid and a 3-member ensemble, and compare
those counts with ``data/work_counts.json``.  A change that keeps every
output byte but computes more (a cache that stops serving, a stage sampled
twice) fails here.

To re-record the table after a deliberate change in the work done, run
``PYTHONPATH=src:tests python tests/test_work_counts.py``.
"""

import json
from pathlib import Path

import numpy as np

from kernelcast.cli import main
from synthdata import make_banana_pool, write_labeled_csv
from test_trace_targets import load_tracing

TABLE = Path(__file__).resolve().parent / "data" / "work_counts.json"

PINNED = ("geometry.pairwise.calls", "geometry.pairwise.cells",
          "sampling.make_reference_set.calls", "sampling.lloyd.iters",
          "kernelmap.map.cells", "classify.knn_predict.queries",
          "modelsel.fit_pipeline.calls", "data.load_csv.rows")


def commands(root: Path) -> dict[str, list[str]]:
    """The pinned commands by name, in the order they must run."""
    pool = make_banana_pool(n=700, seed=1)
    write_labeled_csv(root / "train.csv", pool.subset(np.arange(300)))
    write_labeled_csv(root / "small.csv", pool.subset(np.arange(300, 420)))
    np.savetxt(root / "query.csv", pool.features[420:], delimiter=",")
    train = ["--data", str(root / "train.csv")]
    return {
        "random-search": ["search", *train, "--budget", "24", "--seed", "1",
                          "--out", str(root / "report.json")],
        "kmeans-grid": ["search", "--data", str(root / "small.csv"), "--mode", "grid",
                        "--sampler", "kmeans", "--seed", "1", "--out", str(root / "grid.json")],
        "ensemble-train": ["train", *train, "--report", str(root / "report.json"),
                           "--ensemble-size", "3", "--seed", "1", "--out", str(root / "ens.json")],
        "ensemble-predict": ["predict", "--model", str(root / "ens.json"),
                             "--data", str(root / "query.csv"), "--out", str(root / "pred.txt")],
    }


def measure(root: Path) -> dict[str, dict[str, int]]:
    """The pinned counts of each command, run sequentially under the trace."""
    tracing = load_tracing()
    table = {}
    for name, argv in commands(root).items():
        recorder = tracing.Recorder()
        recorder.install(tracing.TARGETS)
        try:
            assert main(argv) == 0, argv
        finally:
            recorder.uninstall()
        metrics = tracing.layer_metrics(recorder)
        table[name] = {key: int(metrics[key]) for key in PINNED}
    return table


def test_work_counts_match_the_table(tmp_path, monkeypatch):
    monkeypatch.delenv("KERNELCAST_THREADS", raising=False)  # counts come from this process
    assert measure(tmp_path) == json.loads(TABLE.read_text())


def test_the_table_pins_every_count_of_every_command():
    table = json.loads(TABLE.read_text())
    assert list(table) == ["random-search", "kmeans-grid", "ensemble-train", "ensemble-predict"]
    for name, counts in table.items():
        assert tuple(counts) == PINNED, name
    assert table["kmeans-grid"]["sampling.lloyd.iters"] > 0
    assert table["ensemble-predict"]["kernelmap.map.cells"] > 0


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("KERNELCAST_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(measure(Path(tmp)), indent=2) + "\n")
