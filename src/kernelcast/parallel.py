"""Bounded pool of forked worker processes honoring the KERNELCAST_THREADS cap.

KERNELCAST_THREADS limits how many configuration evaluations run at once
(0 means one worker per CPU; unset means sequential).  The count is capped
at the CPU count and at the number of chunks.  Workers are forked processes;
where the fork start method is unavailable the items run sequentially.  A
worker receives only a (start, stop) chunk of input positions and returns
its results, which are joined in input order, so schedules never change
outputs.
"""

from __future__ import annotations

import os

ENV_VAR = "KERNELCAST_THREADS"
CHUNKS_PER_WORKER = 4

# (fn, items) of the map_indexed call a worker serves; set only in workers.
_job = None


def thread_limit(explicit: int | None = None, n_items: int | None = None) -> int:
    """Worker count: the explicit or KERNELCAST_THREADS value, capped at the
    CPU count and, when given, at the number of items."""
    if explicit is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if raw and not raw.isdecimal():
            raise ValueError(f"{ENV_VAR} must be a non-negative integer, got {raw!r}")
        explicit = int(raw) if raw else 1
    cpus = os.cpu_count() or 1
    limit = cpus if explicit == 0 else min(explicit, cpus)
    if n_items is not None:
        limit = min(limit, n_items)
    return max(1, limit)


def _start_worker(job) -> None:
    global _job
    _job = job


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
    # Under fork the initializer's arguments are inherited, not pickled, so
    # fn may be a closure.  The with block joins every worker before returning.
    with ProcessPoolExecutor(limit, mp_context=context, initializer=_start_worker,
                             initargs=((fn, items),)) as pool:
        return [result for chunk in pool.map(_run_chunk, bounds) for result in chunk]
