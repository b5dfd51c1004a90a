"""Golden byte corpus: SHA-256 digests of command outputs on fixed inputs.

Search reports (with every ``wall_time`` blanked) are pinned for iris,
gland-140 and a banana subset, for each sampler filter and two scalers, at
KERNELCAST_THREADS 1 and 2; banana ensemble predictions are pinned after
``train --ensemble-size 15``.  A change that claims to keep every output
byte must pass this module unchanged; a change that alters output bytes on
purpose re-records it, so that the diff of this file declares the change.

Model files are not digested: they hold angle-distance floats from BLAS
products, whose last bits may differ between hosts.  Reports and
predictions depend only on predicted labels.
"""

import hashlib
import os
import re
from pathlib import Path

import pytest

from kernelcast.cli import main
from synthdata import (benchmark_splits, make_banana_pool, make_gland_pool,
                       write_labeled_csv)

IRIS = Path(__file__).parent / "data" / "iris.csv"
BUDGET = "12"
_WALL_TIME = re.compile(rb'"wall_time": [^,\n]+')

SEARCH_DIGESTS = {
    # (dataset, sampler filter, scaler): digest of the scrubbed report
    ("iris", "density", "none"):
        "a70d66f912a7e13d3674ff9ff1e524e4f527f57bce760b98a9ddf0b3c0860fe9",
    ("iris", "density", "standardize"):
        "229d763f111d9acb079b2243f761ba8b3a2f80be611c1b712b92e1397ef4ad21",
    ("iris", "fft", "none"):
        "8ccf39e8143b1161c7e36b1ed42190ebcbdb909a2af03d453dafffe7b7b52e40",
    ("iris", "fft", "standardize"):
        "557c9cad6f5a0fbaede667613a33c375008bc469822249f9991c90f4484e5cd8",
    ("iris", "kmeans", "none"):
        "1c0044378548a133801f3534ef24b4cdb8b2725d9af25dace8d06b57aa60b555",
    ("iris", "kmeans", "standardize"):
        "ef49717e1ebc895715745cfb3efe6c8e9bc857cee1a5589b7acfb745103e6ef1",
    ("iris", "random", "none"):
        "b5b207338979f9963b2d58727b02c33d3570a4445681032e6aef5bd31f54f4f8",
    ("iris", "random", "standardize"):
        "88d6728522a25c30a77a59b43f1246ca100c8a5267eb0f6eac4448c1774863fb",
    ("gland", "density", "none"):
        "02d6e821f9aa25c5b8936e94168df7750a3493285b8d1f8744404a27abaea6b9",
    ("gland", "density", "standardize"):
        "6df5401c4081ad3db3603b32510b76ed8b5697e720e01cc7e9fac23f48f4d608",
    ("gland", "fft", "none"):
        "646a9752a8e8d2e2e47b26d4f8f95d1ea958ba3b984994bdd487aee08e965f7b",
    ("gland", "fft", "standardize"):
        "c8ce0d94a08fbb7182d725359eeb48f50f5e6c4cb9cb0ee96b255d815f7c2d38",
    ("gland", "kmeans", "none"):
        "244200bd4eec280fc6474de17e1f08613a370db3e464d266e866971a994622dc",
    ("gland", "kmeans", "standardize"):
        "32ad4b41973b190af328dc37d8ac4290d9218a97f323f9f317fdfb6673857734",
    ("gland", "random", "none"):
        '297d5b5dfe6a6d8d620c9527f0509b125732272427d961ab22cf87505ad7e92e',
    ('gland', 'random', 'standardize'):
        '653c0cf0db8fdbf203cd1e8e5b0d402e26aa44a85be0c16b89a95734b96c2676',
    ('banana', 'density', 'none'):
        '1f2ff8397152578b52dd4966903517c81db50f237bc9a700c47a2ade2d772d47',
    ('banana', 'density', 'standardize'):
        'f5fc2f5a55d9c1f9e739c7a1a7a24dcd695e71b01218aed078ed5f828f6c8dff',
    ('banana', 'fft', 'none'):
        '62e719b1eb18d4df507e17883e0f9effde515b1443b92753c3d7e9060520fca4',
    ('banana', 'fft', 'standardize'):
        'b35ab5e183558a7f54708396c6035bbc5d10bb4725b82ebdfdfca08f15d80585',
    ('banana', 'kmeans', 'none'):
        'da76d10a7c926c9eb0c068e498602c430fe55c10ee8676e8a095f3190191a0d5',
    ('banana', 'kmeans', 'standardize'):
        '5f5d2d8b2a8d0a15033d7e3db776cc0a536a2682f49b76026d48211cf476f8fb',
    ('banana', 'random', 'none'):
        'bfedabebb27ce43b3c32be12d0ecc1bae69cf045a70e82b5432e779de6e25d14',
    ('banana', 'random', 'standardize'):
        '41ed3ed4a3dda82296697c632ac99301f91849d1c60ebaf95157417a682f269f',
}

ENSEMBLE_PREDICTION_DIGEST = "072012fde2da2ba63e2b2a83f4724b2edd63d42d6fb6d4aead4a360b67c7ad66"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    gland, _ = benchmark_splits(make_gland_pool(seed=0), 1, 140, seed=0)[0]
    banana, banana_test = benchmark_splits(make_banana_pool(seed=0), 1, 90, seed=0)[0]
    write_labeled_csv(root / "gland.csv", gland)
    write_labeled_csv(root / "banana.csv", banana)
    write_labeled_csv(root / "banana_test.csv", banana_test.subset(range(1000)))
    return root


def data_args(name, root):
    if name == "iris":
        return ["--data", str(IRIS), "--has-header"]
    return ["--data", str(root / f"{name}.csv")]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv):
    assert main(argv) == 0, argv


@pytest.fixture
def two_cpus(monkeypatch):
    # Two workers on any machine, so threads=2 really forks.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("key", sorted(SEARCH_DIGESTS), ids="-".join)
def test_search_report_bytes(key, inputs, tmp_path, monkeypatch, two_cpus):
    dataset, sampler, scaler = key
    for threads in ("1", "2"):
        monkeypatch.setenv("KERNELCAST_THREADS", threads)
        out = tmp_path / f"report-{threads}.json"
        run(["search", *data_args(dataset, inputs), "--budget", BUDGET, "--sampler", sampler,
             "--scaler", scaler, "--seed", "3", "--out", str(out)])
        scrubbed = _WALL_TIME.sub(b'"wall_time": null', out.read_bytes())
        assert sha256(scrubbed) == SEARCH_DIGESTS[key], f"KERNELCAST_THREADS={threads}"


def test_ensemble_prediction_bytes(inputs, tmp_path, monkeypatch):
    monkeypatch.delenv("KERNELCAST_THREADS", raising=False)
    report, model, predictions = (tmp_path / name for name in ("r.json", "m.json", "p.txt"))
    run(["search", *data_args("banana", inputs), "--budget", "40", "--seed", "5",
         "--out", str(report)])
    run(["train", *data_args("banana", inputs), "--report", str(report),
         "--ensemble-size", "15", "--seed", "5", "--out", str(model)])
    run(["predict", "--model", str(model), "--data", str(inputs / "banana_test.csv"),
         "--truth-col", "-1", "--out", str(predictions)])
    assert sha256(predictions.read_bytes()) == ENSEMBLE_PREDICTION_DIGEST
