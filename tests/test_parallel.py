"""The forked worker pool behind KERNELCAST_THREADS."""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kernelcast import parallel
from kernelcast.cli import main
from synthdata import make_blobs, write_labeled_csv

PARENT = os.getpid()

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes need os.fork")


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the machine has ``n`` CPUs, so the pool runs on any machine."""
    def pretend(n):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
    return pretend


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    yield
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """Set KERNELCAST_THREADS, the pool's only worker-count setting, to ``n``."""
    def use(n):
        monkeypatch.setenv(parallel.ENV_VAR, str(n))
    return use


@pytest.fixture
def meet():
    """A call for items to make so that the caller and a worker each take one.

    The caller may drain the chunk queue before a worker starts.  So each
    process's first call waits, up to 30 s, until the other side has called
    too; later calls pass straight through.
    """
    to_caller, to_workers = os.pipe(), os.pipe()

    def meet_other_side():
        mine, theirs = (to_caller, to_workers) if os.getpid() == PARENT else (to_workers, to_caller)
        os.write(theirs[1], b".")
        select.select([mine[0]], [], [], 30)

    yield meet_other_side
    for fd in (*to_caller, *to_workers):
        os.close(fd)


@pytest.mark.parametrize("count,threads", [(11, 2), (2, 3)],
                         ids=["11-items-over-8-chunks", "fewer-items-than-workers"])
def test_results_come_back_in_input_order(cpus, workers, meet, count, threads):
    cpus(threads)
    workers(threads)
    items = list(range(100, 100 + count))

    def tagged(item):
        meet()
        return item, os.getpid()

    results = parallel.map_indexed(tagged, items)
    assert [item for item, _ in results] == items
    pids = {pid for _, pid in results}
    assert PARENT in pids and len(pids) == 2  # the caller and its one worker


def fail_in_workers(item):
    if os.getpid() != PARENT:
        raise TypeError(f"simulated bug on item {item}")
    return item


def test_worker_error_reraises_in_the_parent(cpus, workers, meet):
    cpus(2)
    workers(2)

    def fail(item):
        meet()
        return fail_in_workers(item)

    with pytest.raises(TypeError, match="simulated bug on item") as failure:
        parallel.map_indexed(fail, list(range(10)))
    cause = str(failure.value.__cause__)  # the worker's own traceback, as text
    assert "Traceback (most recent call last)" in cause and "in fail_in_workers" in cause


def test_dead_worker_raises_child_process_error(cpus, workers, meet):
    cpus(2)
    workers(2)

    def die(item):
        meet()
        if os.getpid() != PARENT:
            os._exit(3)
        return item

    with pytest.raises(ChildProcessError, match=r"worker \d+ exited without a result "
                                                r"\(wait status 768\)"):
        parallel.map_indexed(die, list(range(6)))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists descriptors in /proc")
@pytest.mark.parametrize("failure,error", [(None, None), ("worker-error", TypeError),
                                           ("worker-exit", ChildProcessError),
                                           ("caller-error", TypeError)],
                         ids=["success", "worker-error", "worker-exit", "caller-error"])
def test_no_descriptor_or_process_is_left_behind(cpus, workers, meet, failure, error):
    cpus(2)
    workers(2)

    def item_fn(item):
        meet()
        in_worker = os.getpid() != PARENT
        if (failure == "worker-error" and in_worker) or (failure == "caller-error" and not in_worker):
            raise TypeError("simulated bug")
        if failure == "worker-exit" and in_worker:
            os._exit(3)
        # When the caller fails, its worker is still busy, and must be killed.
        time.sleep(10 if failure == "caller-error" and in_worker else 0.01)
        return item

    before, started = sorted(os.listdir("/proc/self/fd")), time.monotonic()
    if error is None:
        assert parallel.map_indexed(item_fn, list(range(4))) == list(range(4))
    else:
        with pytest.raises(error):
            parallel.map_indexed(item_fn, list(range(4)))
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert time.monotonic() - started < 5
    # no_process_outlives_the_test checks that every worker was reaped.


class SliceLog(list):
    """The items list, writing each slice taken of it, in whatever process, to a pipe."""

    def __init__(self, items, pipe: int):
        super().__init__(items)
        self.pipe = pipe

    def __getitem__(self, index):
        if isinstance(index, slice):
            os.write(self.pipe, f"{index.start} {index.stop}\n".encode())
        return super().__getitem__(index)


def test_worker_count_is_capped_at_cpus_and_chunks(cpus, workers, monkeypatch):
    cpus(3)
    for zero in ("0", "00"):  # one per CPU
        workers(zero)
        assert parallel.thread_limit() == 3
    monkeypatch.delenv(parallel.ENV_VAR)
    assert parallel.thread_limit(None) == 1  # unset: sequential
    workers(100000)
    assert parallel.thread_limit(n_items=2) == 2
    assert parallel.thread_limit(0) == 1
    assert parallel.thread_limit(None) == 3

    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def workers_and_chunks(items):
        forks.clear()
        read_end, write_end = os.pipe()
        try:
            assert parallel.map_indexed(abs, SliceLog(items, write_end)) == [abs(i) for i in items]
        finally:
            os.close(write_end)
        with open(read_end, "rb") as log:
            return len(forks), sorted(tuple(map(int, line.split())) for line in log)

    workers, bounds = workers_and_chunks(list(range(-20, 0)))
    assert workers == 2 and len(bounds) == 3 * parallel.CHUNKS_PER_WORKER  # the caller is the third
    assert bounds[0][0] == 0 and bounds[-1][1] == 20
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert workers_and_chunks([-1, -2]) == (1, [(0, 1), (1, 2)])
    assert workers_and_chunks([-7]) == (0, [])  # one item: no pool at all


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
    code = ("import os, sys, kernelcast.cli; from kernelcast import parallel; "
            "loaded = lambda: sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)); "
            "print(loaded()); os.cpu_count = lambda: 2; "
            "assert parallel.map_indexed(abs, [-1, -2, -3]) == [1, 2, 3]; print(loaded())")
    env = {**os.environ, parallel.ENV_VAR: "2", "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "[]"]  # after the import, and after a 2-worker map


KILLED_SEARCH = """
import os, time
from kernelcast import modelsel
from synthdata import make_blobs

os.cpu_count = lambda: 2
evaluate_config = modelsel.evaluate_config

announced_pids = set()

def announced(*args):
    # Once per process, so a worker never writes to the pipe once the test closes it.
    if os.getpid() not in announced_pids:
        announced_pids.add(os.getpid())
        os.write(1, f"{os.getpid()}\\n".encode())  # one write: the processes share the pipe
    time.sleep(0.05)
    return evaluate_config(*args)

modelsel.evaluate_config = announced
modelsel.random_search(make_blobs(n_per_class=20, seed=3), sample_size=2000)
"""


def process_gone(pid: int) -> bool:
    # A killed orphan may linger as a zombie until its new parent reaps it.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the death signal is Linux-only")
def test_workers_die_with_a_terminated_parent():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, parallel.ENV_VAR: "2",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    child = subprocess.Popen([sys.executable, "-c", KILLED_SEARCH], env=env,
                             stdout=subprocess.PIPE, text=True)
    try:
        pids = set()
        deadline = time.monotonic() + 60
        while len(pids) < 2 and time.monotonic() < deadline:
            pids.add(int(child.stdout.readline()))
        assert child.pid in pids and len(pids) == 2  # the caller evaluates too
        workers = pids - {child.pid}
        child.terminate()
        assert child.wait(timeout=10) == -signal.SIGTERM
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    deadline = time.monotonic() + 5
    while not all(process_gone(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert [pid for pid in workers if not process_gone(pid)] == []
