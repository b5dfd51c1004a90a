"""The forked worker pool behind KERNELCAST_THREADS."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from kernelcast import parallel
from kernelcast.cli import main
from synthdata import make_blobs, write_labeled_csv

PARENT = os.getpid()

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes need the fork start method")


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the machine has ``n`` CPUs, so the pool runs on any machine."""
    def pretend(n):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
    return pretend


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    yield
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count,threads", [(11, 2), (2, 3)],
                         ids=["11-items-over-8-chunks", "fewer-items-than-workers"])
def test_results_come_back_in_input_order(cpus, count, threads):
    cpus(threads)
    items = list(range(100, 100 + count))
    results = parallel.map_indexed(lambda item: (item, os.getpid()), items, threads)
    assert [item for item, _ in results] == items
    assert PARENT not in {pid for _, pid in results}
    assert parallel._job is None  # the parent process never holds a job


def test_worker_error_reraises_in_the_parent(cpus):
    cpus(2)

    def fail_on_five(item):
        if item == 5:
            raise TypeError(f"simulated bug on item {item}")
        return item

    with pytest.raises(TypeError, match="simulated bug on item 5"):
        parallel.map_indexed(fail_on_five, list(range(10)), 2)


def test_dead_worker_raises_broken_pool(cpus):
    cpus(2)

    def die(item):
        if os.getpid() == PARENT:
            raise AssertionError("the item ran in the parent process")
        os._exit(3)

    with pytest.raises(BrokenProcessPool):
        parallel.map_indexed(die, list(range(6)), 2)


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records its arguments, runs chunks in-process."""

    calls = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.max_workers = max_workers
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, bounds):
        FakeExecutor.calls.append((self.max_workers, list(bounds)))
        return map(fn, bounds)


def test_worker_count_is_capped_at_cpus_and_chunks(cpus, monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "calls", [])
    monkeypatch.setattr(parallel, "_job", None)  # the fake runs the worker set-up here
    cpus(3)
    assert parallel.thread_limit(100000) == 3
    assert parallel.thread_limit(0) == 3
    assert parallel.thread_limit(100000, n_items=2) == 2
    assert parallel.thread_limit(100000, n_items=0) == 1
    monkeypatch.setenv(parallel.ENV_VAR, "100000")
    assert parallel.thread_limit() == 3

    assert parallel.map_indexed(abs, list(range(-20, 0))) == list(range(20, 0, -1))
    assert parallel.map_indexed(abs, [-1, -2]) == [1, 2]
    assert parallel.map_indexed(abs, [-7]) == [7]  # one item: no pool at all
    (wide, wide_bounds), (narrow, narrow_bounds) = FakeExecutor.calls
    assert wide == 3 and len(wide_bounds) == 3 * parallel.CHUNKS_PER_WORKER
    assert wide_bounds[0][0] == 0 and wide_bounds[-1][1] == 20
    assert all(a[1] == b[0] for a, b in zip(wide_bounds, wide_bounds[1:]))
    assert narrow == 2 and narrow_bounds == [(0, 1), (1, 2)]


def test_two_worker_search_with_failures_writes_the_sequential_report(tmp_path, monkeypatch,
                                                                       cpus):
    cpus(2)
    write_labeled_csv(tmp_path / "tiny.csv", make_blobs(n_per_class=8, spread=0.5, seed=16))
    texts = []
    for threads in (None, "2"):
        if threads is None:
            monkeypatch.delenv(parallel.ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(parallel.ENV_VAR, threads)
        out = tmp_path / f"report-{threads}.json"
        assert main(["search", "--data", str(tmp_path / "tiny.csv"), "--mode", "grid",
                     "--sampler", "kmeans", "--folds", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for entry in doc["evaluated"]:
            entry["wall_time"] = None
        texts.append(json.dumps(doc, sort_keys=True, indent=2))
    failed = [e for e in json.loads(texts[0])["evaluated"] if e["error"] is not None]
    assert failed and all(e["cv_ber"] is None for e in failed)
    assert texts[0] == texts[1]


def test_importing_the_package_loads_no_process_machinery():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, kernelcast.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
