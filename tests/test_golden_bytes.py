"""Golden byte corpus: SHA-256 digests of command outputs on fixed inputs.

Search reports (with every ``wall_time`` blanked) are pinned for iris,
gland-140 and a banana subset, for each sampler filter and two scalers, at
KERNELCAST_THREADS 1 and 2; so are the kmeans grids of iris and gland-140,
whose five stages hold 68 configurations each; banana ensemble predictions
are pinned after ``train --ensemble-size 15``.  A change that claims to keep every output
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
        "3742a8cfef787934147570452686bcfc7e7a581409784d33268e37241d37cd6c",
    ("iris", "density", "standardize"):
        "3a3e09a46eaa4342327e86b4dbf81fbc55fe3e66bc8c3411d1e983f89e66a5e5",
    ("iris", "fft", "none"):
        "f5d473df1bac61e56dbd56d511827e799e9adc1e386e940410d0f779971edcbc",
    ("iris", "fft", "standardize"):
        "46630d1198030521c1ecf7581bf0d7ec154538cf63ef57a941a9c46774d1b53c",
    ("iris", "kmeans", "none"):
        "387761b4fd0d6bd40940c2fad08c473597c6c05b3663b1bd26c9a0cd5807cb9f",
    ("iris", "kmeans", "standardize"):
        "bf9488e26db96f483ed780ee614fe249a23e82724e0165be3e94fd7fbd7341ab",
    ("iris", "random", "none"):
        "58affd8c032b93e10b3f88ce6bf9e828835fc4004f1e0816d75571ed8aa9a717",
    ("iris", "random", "standardize"):
        "13cd82c8c3f169e9cace133fb3d8dc856f16c6b1d49b3f1087b42f6201e663b8",
    ("gland", "density", "none"):
        "6fc1d1ce97a3b9642260d7f786926eff06953d457f0a97f6196363e8e845920f",
    ("gland", "density", "standardize"):
        "f8bbe7a4c469a3b3400038fcf52ea9506a96b3143c9fd301374d6b8e5d1eda16",
    ("gland", "fft", "none"):
        "0d0210febb77a91237453ae7613c6d5d2868d45b76baad29ba4a6daf52e56ca1",
    ("gland", "fft", "standardize"):
        "8b752ff75cfdddc8eaf5db0b11b2c8a521b064d93d40bdde58600528a1eb016a",
    ("gland", "kmeans", "none"):
        "9eb14ad5d3d56dd1e5dedb604e201be83c4ea09cd0e889d37684ae65a11817de",
    ("gland", "kmeans", "standardize"):
        "d0c77f10daec96031553f360aedf47662ee4a93bf7420e9f49806ece0c1cfd20",
    ("gland", "random", "none"):
        '3ae3619ca4a82ef3a03752640d171244f2335d5a059d49e7e0a044606daf2f00',
    ('gland', 'random', 'standardize'):
        'e0818306603912075f927aff57ac1be9d09a0b4ca18c8de118e89f5456fc6d42',
    ('banana', 'density', 'none'):
        '2d1d13a37e0e189a834ee8adca6be45a2c088cda296e43688b2a65a94158cc0f',
    ('banana', 'density', 'standardize'):
        '5b1f30de3d0f4673d102939c6a90a6efc18bccae07b2ca31d91a2401dcbcb758',
    ('banana', 'fft', 'none'):
        '3374ed4729e2abb0b29c4137f2472bae160dbff678941bae80caefec3110c47b',
    ('banana', 'fft', 'standardize'):
        'c67501965db57907de8b87396b17ad1c655017ea31afa5843f276fccd6cdd165',
    ('banana', 'kmeans', 'none'):
        '0d9c78a0e8aafbad385218fbd96a7b62c8caafdbc120d805a34493c3b1cd5319',
    ('banana', 'kmeans', 'standardize'):
        'cba06097fdc007d015b58da8591968211e519e04fd8d1a3d9f4e19395f00ccdc',
    ('banana', 'random', 'none'):
        '3ea70dd03e88a8b0cfe65ab1dc3d0d9f2b1da934d4f6f290aa369938d55142c1',
    ('banana', 'random', 'standardize'):
        '10e2eb20fcdd9a032977f85d89fbfd0a1b6fb2a83b86dd098b1d37e5b45658c2',
}

GRID_DIGESTS = {
    # dataset: digest of the scrubbed ``--mode grid --sampler kmeans`` report
    "iris": "63cb49449a2d51e74ed7c720d4d7a40f54caa1744f80318e1ad6118db3676245",
    "gland": "9a047960c0a679abb334d3ca43808d72d5ceda1350e59b5fd006975c8926a545",
}

ENSEMBLE_PREDICTION_DIGEST = "253c84d8fac8067b9d814b857ba4467052d1500fe73730ef9910279da43245be"


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
    assert_report_bytes(["search", *data_args(dataset, inputs), "--budget", BUDGET,
                         "--sampler", sampler, "--scaler", scaler, "--seed", "3"],
                        SEARCH_DIGESTS[key], tmp_path, monkeypatch)


@pytest.mark.parametrize("dataset", sorted(GRID_DIGESTS))
def test_grid_report_bytes(dataset, inputs, tmp_path, monkeypatch, two_cpus):
    assert_report_bytes(["search", *data_args(dataset, inputs), "--mode", "grid",
                         "--sampler", "kmeans", "--seed", "3"],
                        GRID_DIGESTS[dataset], tmp_path, monkeypatch)


def assert_report_bytes(argv, digest, tmp_path, monkeypatch):
    for threads in ("1", "2"):
        monkeypatch.setenv("KERNELCAST_THREADS", threads)
        out = tmp_path / f"report-{threads}.json"
        run([*argv, "--out", str(out)])
        scrubbed = _WALL_TIME.sub(b'"wall_time": null', out.read_bytes())
        assert sha256(scrubbed) == digest, f"KERNELCAST_THREADS={threads}"


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
