"""Bounded pool of forked processes honoring the KERNELCAST_THREADS cap.

KERNELCAST_THREADS, read at each map and never overridden by an argument,
limits how many processes, the caller among them, evaluate items at once
(0 means one per CPU; unset means sequential), capped at the CPU count and
at the number of items.  The search's items are its reference stages, so
no two processes sample the same stage.  Items are cut into contiguous
chunks whose numbers wait in a pipe; the caller and its forked workers take
chunks until it is empty, and results are joined in input order, so
schedules never change outputs.  Where os.fork is unavailable the items run
sequentially.  On Linux a worker dies with its parent, so killing a search
never leaves workers behind.  Every process runs one thread of numpy's
bundled OpenBLAS while the map lasts.
"""

from __future__ import annotations

import os
import pickle
import sys

from .errors import KernelcastError

ENV_VAR = "KERNELCAST_THREADS"
CHUNKS_PER_WORKER = 4
_PR_SET_PDEATHSIG = 1  # prctl option from <sys/prctl.h>


def thread_limit(n_items: int | None = None) -> int:
    """Process count: the KERNELCAST_THREADS value, read at each call, capped
    at the CPU count and, when given, at the number of items."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw and not raw.isdecimal():
        raise KernelcastError(f"{ENV_VAR} must be a non-negative integer, got {raw!r}")
    cpus = os.cpu_count() or 1
    limit = min(int(raw or 1) or cpus, cpus)  # 0 means one per CPU
    if n_items is not None:
        limit = min(limit, n_items)
    return max(1, limit)


def _die_with_parent(parent: int) -> None:
    # The death signal fires when the thread that forked this worker exits.
    # The pool forks from the thread that called map_indexed, which waits
    # for every worker before it returns, so only the parent's death fires it.
    if sys.platform.startswith("linux"):
        import ctypes  # imported here, like signal: only workers need them
        import signal
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)


def _openblas_threads():
    """Getter and setter of the thread count of numpy's bundled OpenBLAS; no-ops
    where that library is not loaded (another BLAS build, or no /proc)."""
    import ctypes  # imported here, like signal: the sequential path never needs it
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split(None, 5)[5].strip() for line in maps if "/libscipy_openblas64_" in line)
        lib = ctypes.CDLL(path)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return (lambda: 1), (lambda count: None)
    get.argtypes, get.restype, put.argtypes, put.restype = (), ctypes.c_int, (ctypes.c_int,), None
    return get, put


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker: the cause of its re-raise."""


def _chunks(queue: int):
    """Chunk numbers read from the queue pipe, one 4-byte record at a time, until it is empty."""
    while record := os.read(queue, 4):
        yield int.from_bytes(record, "little")


def _work(run, queue: int, out: int, parent: int) -> None:
    """A forked worker: evaluate queued chunks, write their pickled results, or the
    exception and its traceback, to ``out``, and exit 0 only once all is written."""
    try:
        _die_with_parent(parent)
        try:
            reply = [(chunk, run(chunk)) for chunk in _chunks(queue)]
        except Exception as exc:
            import traceback  # imported here: only a failing worker needs it
            reply = (exc, traceback.format_exc())
        with open(out, "wb") as pipe:
            pickle.dump(reply, pipe)
        os._exit(0)
    finally:
        os._exit(1)


def map_indexed(fn, items) -> list:
    """Apply ``fn`` to every item, returning results in input order.

    A worker's exception re-raises here, its cause holding the worker's
    traceback; a worker that exits without a result raises ChildProcessError.
    """
    limit = thread_limit(len(items))
    if limit == 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    chunks = min(len(items), CHUNKS_PER_WORKER * limit)
    bounds = [(len(items) * i // chunks, len(items) * (i + 1) // chunks) for i in range(chunks)]

    def run(chunk: int) -> list:
        return [fn(item) for item in items[slice(*bounds[chunk])]]

    # 4 bytes a chunk: up to 256 processes, the records fit the smallest pipe (4,096 bytes).
    queue, queue_end = os.pipe()
    os.write(queue_end, b"".join(i.to_bytes(4, "little") for i in range(chunks)))
    os.close(queue_end)
    # The caller, and workers forked while OpenBLAS is held at one thread, run one each.
    # Set in a worker, it restarts the pool the fork shut down, whose thread spins ~0.1 s.
    get_blas_threads, set_blas_threads = _openblas_threads()
    parent_blas_threads = get_blas_threads()
    set_blas_threads(1)
    parent = os.getpid()
    workers = {}  # pid -> read end of the worker's result pipe
    try:
        for _ in range(limit - 1):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:  # fn and items are inherited, not pickled: fn may be a closure
                    _work(run, queue, writer, parent)
            except OSError:
                os.close(reader)
                raise
            finally:
                os.close(writer)
            workers[pid] = reader
        results = {chunk: run(chunk) for chunk in _chunks(queue)}
        for pid, reader in list(workers.items()):
            reply = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            os.close(workers.pop(pid))
            if status != 0:
                raise ChildProcessError(f"worker {pid} exited without a result (wait status {status})")
            reply = pickle.loads(reply)
            if isinstance(reply, tuple):  # the worker's exception and its traceback
                raise reply[0] from _WorkerTraceback(reply[1])
            results.update(reply)
        return [result for chunk in range(chunks) for result in results[chunk]]
    finally:
        os.close(queue)
        for pid, reader in workers.items():  # left only by an exception
            import signal  # imported here: only a failed map kills workers
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
        set_blas_threads(parent_blas_threads)
