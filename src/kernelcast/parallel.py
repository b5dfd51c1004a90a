"""Bounded worker pool honoring the KERNELCAST_THREADS cap.

KERNELCAST_THREADS limits how many configuration evaluations run at once
(0 means one worker per CPU; unset means sequential).  Results are keyed by
input position, so schedules never change outputs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

ENV_VAR = "KERNELCAST_THREADS"


def thread_limit(explicit: int | None = None) -> int:
    if explicit is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if raw and not raw.isdecimal():
            raise ValueError(f"{ENV_VAR} must be a non-negative integer, got {raw!r}")
        explicit = int(raw) if raw else 1
    if explicit == 0:
        explicit = os.cpu_count() or 1
    return max(1, explicit)


def map_indexed(fn, items, threads: int | None = None) -> list:
    """Apply ``fn`` to every item, returning results in input order."""
    limit = thread_limit(threads)
    if limit == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=limit) as pool:
        return list(pool.map(fn, items))
