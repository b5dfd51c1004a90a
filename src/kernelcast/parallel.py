"""Bounded pool of forked worker processes honoring the KERNELCAST_THREADS cap.

KERNELCAST_THREADS limits how many items run at once (0 means one worker
per CPU; unset means sequential).  The search's items are its reference
stages: each item evaluates every configuration of one stage, so no two
workers sample the same stage.  The count is capped at the CPU count and at
the number of items.  Workers are forked processes; where the fork start
method is unavailable the items run sequentially.  A worker receives only a
(start, stop) chunk of input positions and returns its results, which are
joined in input order, so schedules never change outputs.  On Linux a
worker dies with its parent, so killing a search never leaves workers
behind.  Workers run one thread of numpy's bundled OpenBLAS each.
"""

from __future__ import annotations

import os
import sys

from .errors import KernelcastError

ENV_VAR = "KERNELCAST_THREADS"
CHUNKS_PER_WORKER = 4
_PR_SET_PDEATHSIG = 1  # prctl option from <sys/prctl.h>

# (fn, items) of the map_indexed call a worker serves; set only in workers.
_job = None


def thread_limit(explicit: int | None = None, n_items: int | None = None) -> int:
    """Worker count: the explicit or KERNELCAST_THREADS value, capped at the
    CPU count and, when given, at the number of items."""
    if explicit is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if raw and not raw.isdecimal():
            raise KernelcastError(f"{ENV_VAR} must be a non-negative integer, got {raw!r}")
        explicit = int(raw) if raw else 1
    cpus = os.cpu_count() or 1
    limit = cpus if explicit == 0 else min(explicit, cpus)
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
    import ctypes  # imported here, like multiprocessing: the sequential path never needs it
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split(None, 5)[5].strip() for line in maps if "/libscipy_openblas64_" in line)
        lib = ctypes.CDLL(path)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return (lambda: 1), (lambda count: None)
    get.argtypes, get.restype, put.argtypes, put.restype = (), ctypes.c_int, (ctypes.c_int,), None
    return get, put


def _start_worker(job, parent: int) -> None:
    global _job
    _job = job
    _die_with_parent(parent)


def _run_chunk(bounds: tuple[int, int]) -> list:
    fn, items = _job
    start, stop = bounds
    return [fn(item) for item in items[start:stop]]


def map_indexed(fn, items, threads: int | None = None) -> list:
    """Apply ``fn`` to every item, returning results in input order."""
    limit = thread_limit(threads, len(items))
    if limit > 1:
        import multiprocessing  # imported here: the sequential path never pays for it
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            limit = 1
    if limit == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    chunks = min(len(items), CHUNKS_PER_WORKER * limit)
    bounds = [(len(items) * i // chunks, len(items) * (i + 1) // chunks) for i in range(chunks)]
    # Workers forked while OpenBLAS is held at one thread run one each.  Set in a
    # worker, it restarts the pool the fork shut down, whose thread spins ~0.1 s.
    get_blas_threads, set_blas_threads = _openblas_threads()
    parent_blas_threads = get_blas_threads()
    set_blas_threads(1)
    # Under fork the initializer's arguments are inherited, not pickled, so
    # fn may be a closure.  The with block joins every worker before returning.
    try:
        with ProcessPoolExecutor(limit, mp_context=context, initializer=_start_worker,
                                 initargs=((fn, items), os.getpid())) as pool:
            return [result for chunk in pool.map(_run_chunk, bounds) for result in chunk]
    finally:
        set_blas_threads(parent_blas_threads)
