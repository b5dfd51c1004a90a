"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes (co-tenants, frequency changes), and different code slows by
different amounts.  A fixed calibration kernel, independent of kernelcast
and shaped like the workload's work, is timed between rounds.  End-to-end
times are then reported at a reference host speed:
``raw * REFERENCE_S[kernel, threads] / mean(calibrations)``, over the
calibrations just before and just after each round.  The raw wall times
are printed alongside.

Set-up is mostly the re-import of kernelcast, whose speed drifts between
processes far more than the numeric kernel's (0.033 s to 0.052 s for the
same import in consecutive runs).  Each import is therefore paired with an
import calibration timed just before it: a fresh execution of the
benchmark's own modules, loaded as an import loads them (from cached
bytecode, or compiled from source where Python writes no bytecode).
"""

from __future__ import annotations

import csv
import importlib.util
import sys
import threading
import time
from pathlib import Path

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.random((1000, 2))
_B = _rng.random((400, 2))
_FLOATS = [repr(x) for x in _rng.random(60_000).tolist()]
_LINES = [",".join(map(repr, row)) for row in _rng.random((26_000, 10)).tolist()]
_FOLD = _rng.random((93, 5))


def _numeric() -> None:
    """Broadcast distances with a stable argsort, float parsing, small numpy calls."""
    for _ in range(8):
        d = np.sqrt(np.square(_A[:, None, :] - _B[None, :, :]).sum(axis=-1))
        np.argsort(d, axis=1, kind="stable")
    total = 0.0
    for text in _FLOATS:
        total += float(text)
    for _ in range(3000):
        np.minimum(_A[:, 0], _A[:, 1]).argmax()


def _text() -> None:
    """Read CSV lines cell by cell into a matrix, as a CSV reader does."""
    rows = list(csv.reader(_LINES))
    out = np.empty((len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            out[i, j] = float(cell.strip())


def _small() -> None:
    """Many numpy calls on a small fold: nearest of eight centres, cluster sizes."""
    for i in range(3000):
        centres = _FOLD[i % 80:i % 80 + 8]
        d = np.sqrt(np.square(_FOLD[:, None, :] - centres[None, :, :]).sum(axis=-1))
        np.bincount(d.argmin(axis=1), minlength=8).max()


KERNELS = {"numeric": _numeric, "text": _text, "small": _small}

# Median calibration time on the reference host (2-vCPU x86_64 VM,
# Python 3.11, numpy 2.4) by (kernel, threads); only the ratio matters.
REFERENCE_S = {("numeric", 1): 0.32, ("text", 1): 0.20, ("small", 2): 0.30}
# Median import calibration time on the same host.
IMPORT_REFERENCE_S = 0.033

# Modules of the benchmark executed by the import calibration, twice each.
# They have no side effects at import and do not touch kernelcast.
_IMPORT_MODULES = ("workloads", "tracing", "stats", "inputs")
_IMPORT_PASSES = 2


def calibrate(kernel: str, threads: int) -> float:
    """Seconds taken by ``threads`` copies of a calibration kernel run at once.

    A workload that runs two threads is calibrated with two, so that
    losing the second processor to another tenant shows in both.
    """
    fn = KERNELS[kernel]
    workers = [threading.Thread(target=fn) for _ in range(threads - 1)]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    fn()
    for worker in workers:
        worker.join()
    return time.perf_counter() - started


def calibrate_import() -> float:
    """Seconds taken to execute the modules in _IMPORT_MODULES afresh.

    Each copy is registered in ``sys.modules`` under a private name while
    its body runs, as an import does (dataclasses look their module up
    there), and removed afterwards.
    """
    here = Path(__file__).resolve().parent
    started = time.perf_counter()
    for _ in range(_IMPORT_PASSES):
        for name in _IMPORT_MODULES:
            spec = importlib.util.spec_from_file_location(f"_calibration_{name}",
                                                          here / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            try:
                spec.loader.exec_module(module)
            finally:
                del sys.modules[spec.name]
    return time.perf_counter() - started
