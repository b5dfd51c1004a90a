"""Forked search workers run one BLAS thread each, and write the same bytes.

numpy's bundled OpenBLAS keeps its own thread pool in every forked worker;
``parallel.map_indexed`` holds it at one thread while it forks and runs its
workers.  Where that library is not loaded (other BLAS builds), the
thread-count test is skipped.
"""

import ctypes
import os

import pytest

from kernelcast import parallel
from kernelcast.cli import main
from synthdata import benchmark_splits, make_banana_pool, write_labeled_csv
from test_golden_bytes import _WALL_TIME
from test_parallel import meet  # noqa: F401  (a fixture)

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes need os.fork")


def openblas_symbol(name: str):
    """Function ``name`` of numpy's bundled OpenBLAS, or None where it is absent."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].strip() for line in maps
                     if "/libscipy_openblas64_" in line}
        return next(filter(None, (getattr(ctypes.CDLL(path), name, None)
                                  for path in sorted(paths))), None)
    except OSError:
        return None


@pytest.fixture
def two_cpus(monkeypatch):
    # Two workers on any machine, so KERNELCAST_THREADS=2 really forks.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def threads_of_this_process() -> int:
    return len(os.listdir("/proc/self/task"))


def test_workers_run_one_blas_thread_and_the_parent_keeps_its_own(two_cpus, monkeypatch, meet):
    get = openblas_symbol("scipy_openblas_get_num_threads64_")
    set_threads = openblas_symbol("scipy_openblas_set_num_threads64_")
    if get is None or set_threads is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")

    def counts(item):
        meet()  # a worker takes items too
        return os.getpid(), get(), threads_of_this_process()

    monkeypatch.setenv(parallel.ENV_VAR, "2")
    before = get()
    set_threads(2)  # a parent pool wider than one thread, where the library allows it
    try:
        parent = get()
        seen = parallel.map_indexed(counts, list(range(8)))
        after = get()
    finally:
        set_threads(before)
    # The caller and its worker both run one BLAS thread while the map lasts.
    assert [blas for _, blas, _ in seen] == [1] * 8
    # And a worker has no idle pool thread either: a count set inside a
    # worker would start one, which spins before it sleeps.
    in_workers = [threads for pid, _, threads in seen if pid != os.getpid()]
    assert in_workers and in_workers == [1] * len(in_workers)
    assert after == parent


def test_banana_search_at_two_workers_writes_the_one_worker_report(tmp_path, monkeypatch,
                                                                   two_cpus):
    # Criterion 9 at banana size: the random-128 search of the benchmark's
    # banana-400 training set, where each worker's BLAS calls matter.
    train, _ = benchmark_splits(make_banana_pool(seed=0), 1, 400, seed=0)[0]
    write_labeled_csv(tmp_path / "banana.csv", train)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv(parallel.ENV_VAR, threads)
        out = tmp_path / f"report-{threads}.json"
        assert main(["search", "--data", str(tmp_path / "banana.csv"), "--budget", "128",
                     "--folds", "3", "--out", str(out)]) == 0
        reports.append(_WALL_TIME.sub(b'"wall_time": null', out.read_bytes()))
    assert reports[0] == reports[1]
