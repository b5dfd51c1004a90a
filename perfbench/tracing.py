"""Wrapper-based span recorder for the traced benchmark run.

The traced run replaces kernelcast's public functions with timing wrappers
at the place where they are called: the attribute that the calling module
looks up (``kernelcast.modelsel.make_reference_set``, ``kernelcast.geometry
.pairwise`` as reached through ``geometry.pairwise``, ...).  Nothing in the
package changes; ``Recorder.uninstall`` puts every original attribute back.

Each span keeps its name, start, end, parent and thread.  Spans and counters
live per thread, so a span's parent is always the innermost open span of
the same thread, and worker-thread spans never hide time of the thread that
waits for them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False


class ThreadLog:
    """Spans, open-span stack and counters of one thread."""

    def __init__(self, ident: int):
        self.ident = ident
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)


class Recorder:
    def __init__(self):
        self.threads: list[ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self.threads.append(log)
        return log

    def wrap(self, name: str | None, fn, count=None):
        """Return ``fn`` recording a span called ``name`` (None: count only).

        ``count(counts, args, kwargs, result)`` adds the call's work counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            if name is None:
                result = fn(*args, **kwargs)
            else:
                span = Span(name, 0.0, log.stack[-1] if log.stack else -1)
                log.stack.append(len(log.spans))
                log.spans.append(span)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span.failed = True
                    raise
                finally:
                    span.end = time.perf_counter()
                    log.stack.pop()
            if count is not None:
                count(log.counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every (module, attribute, span name, counter) target in place."""
        for module_name, attr, name, count in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for log in self.threads:
            for key, value in log.counts.items():
                total[key] += value
        return dict(total)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its child spans.

    ``spans`` are the spans of one thread; ``parent`` indexes into the list.
    """
    covered: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            covered[span.parent].append((span.start, span.end))
    out = []
    for span, children in zip(spans, covered):
        busy = 0.0
        reach = span.start
        for start, end in sorted(children):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                busy += end - start
                reach = end
        out.append((span.end - span.start) - busy)
    return out


def span_totals(logs: list[ThreadLog]) -> dict[str, dict[str, float]]:
    """Per span name: calls, failed calls, inclusive time and self time."""
    totals: dict[str, dict[str, float]] = {}
    for log in logs:
        for span, own in zip(log.spans, self_times(log.spans)):
            t = totals.setdefault(span.name, {"calls": 0, "failed": 0, "wall": 0.0, "self": 0.0})
            t["calls"] += 1
            t["failed"] += span.failed
            t["wall"] += span.end - span.start
            t["self"] += own
    return totals


# -- what the traced run wraps ---------------------------------------------

def _add(key, amount):
    def count(counts, args, kwargs, result):
        counts[key] += amount(args, result)
    return count


def _csv(counts, args, kwargs, result):
    # load_csv returns a Dataset, load_feature_csv a matrix.
    counts["data.load_csv.rows"] += result.n if hasattr(result, "n") else len(result)
    counts["data.load_csv.bytes"] += os.path.getsize(args[0])


def _workers(counts, args, kwargs, result):
    parallel = importlib.import_module("kernelcast.parallel")
    threads = args[2] if len(args) > 2 else kwargs.get("threads")
    limit = parallel.thread_limit(threads)
    workers = 1 if limit == 1 or len(args[1]) <= 1 else limit
    counts["parallel.workers"] = max(counts["parallel.workers"], workers)


_CELLS_MAP = _add("kernelmap.map.cells", lambda a, r: r.size)

TARGETS = [
    # cli: the commands' direct calls into the layers
    ("kernelcast.cli", "load_csv", "data.load_csv", _csv),
    ("kernelcast.cli", "load_feature_csv", "data.load_csv", _csv),
    ("kernelcast.cli", "random_search", "modelsel.search", None),
    ("kernelcast.cli", "grid_search", "modelsel.search", None),
    ("kernelcast.cli", "kms_fit", "modelsel.kms_fit", None),
    ("kernelcast.cli", "kms_predict", "modelsel.kms_predict", None),
    ("kernelcast.cli", "build_ensemble", "ensemble.build_ensemble", None),
    ("kernelcast.cli", "ensemble_predict", "ensemble.predict", None),
    ("kernelcast.cli", "balanced_error_rate", "modelsel.balanced_error_rate", None),
    ("kernelcast.cli", "map_matrix", "kernelmap.map", _CELLS_MAP),
    ("kernelcast.serialize", "save", "serialize.save",
     _add("serialize.bytes_written", lambda a, r: os.path.getsize(a[1]))),
    ("kernelcast.serialize", "load", "serialize.load",
     _add("serialize.bytes_read", lambda a, r: os.path.getsize(a[0]))),
    # modelsel: the search and fit pipeline
    ("kernelcast.modelsel", "evaluate_config", "modelsel.evaluate_config", None),
    ("kernelcast.modelsel", "fit_pipeline", "modelsel.fit_pipeline", None),
    ("kernelcast.modelsel", "pipeline_predict", "modelsel.pipeline_predict", None),
    ("kernelcast.modelsel", "balanced_error_rate", "modelsel.balanced_error_rate", None),
    ("kernelcast.modelsel", "make_folds", "data.make_folds", None),
    ("kernelcast.modelsel", "split_fold", "data.split_fold", None),
    ("kernelcast.modelsel", "fit_scaler", "data.scaler", None),
    ("kernelcast.modelsel", "apply_scaler", "data.scaler", None),
    ("kernelcast.modelsel", "make_reference_set", "sampling.make_reference_set", None),
    ("kernelcast.modelsel", "map_matrix", "kernelmap.map", _CELLS_MAP),
    ("kernelcast.modelsel", "knn_fit", "classify.knn_fit", None),
    ("kernelcast.modelsel", "knn_predict", "classify.knn_predict",
     _add("classify.knn_predict.queries", lambda a, r: len(r))),
    ("kernelcast.modelsel", "gnb_fit", "classify.gnb_fit", None),
    ("kernelcast.modelsel", "gnb_predict", "classify.gnb_predict", None),
    ("kernelcast.parallel", "map_indexed", "parallel.map_indexed", _workers),
    ("kernelcast.data", "ScalerSpec.transform", "data.scaler", None),
    ("kernelcast.kernelmap", "map_matrix", "kernelmap.map", _CELLS_MAP),
    ("kernelcast.geometry", "pairwise", "geometry.pairwise",
     _add("geometry.pairwise.cells", lambda a, r: r.size)),
    # sampling: each sampler as make_reference_set calls it
    ("kernelcast.sampling", "sample_random", "sampling.random", None),
    ("kernelcast.sampling", "sample_density", "sampling.density", None),
    ("kernelcast.sampling", "sample_fft", "sampling.fft", None),
    ("kernelcast.sampling", "sample_kmeans", "sampling.kmeans", None),
    ("kernelcast.sampling", "finalize_references", "sampling.finalize_references", None),
    ("kernelcast.sampling", "lloyd", None,
     _add("sampling.lloyd.iters", lambda a, r: len(r[2]))),
    # ensemble: members as the ensemble refits and votes them
    ("kernelcast.ensemble", "kms_fit", "modelsel.kms_fit", None),
    ("kernelcast.ensemble", "kms_predict", "modelsel.kms_predict", None),
    ("kernelcast.ensemble", "member_votes", "ensemble.member_votes",
     _add("ensemble.members", lambda a, r: r.shape[0])),
]

# Per-layer metrics: name -> (unit, better).  "lower"/"higher" is the
# direction a change to that layer should move the number.
LAYER_METRICS = {
    "data.load_csv.s": ("s", "lower"),
    "data.load_csv.rows": ("count", "higher"),
    "data.load_csv.bytes": ("bytes", "lower"),
    "data.split_fold.s": ("s", "lower"),
    "data.scaler.s": ("s", "lower"),
    "geometry.pairwise.s": ("s", "lower"),
    "geometry.pairwise.calls": ("count", "lower"),
    "geometry.pairwise.cells": ("count", "lower"),
    "sampling.make_reference_set.s": ("s", "lower"),
    "sampling.make_reference_set.calls": ("count", "lower"),
    "sampling.density.s": ("s", "lower"),
    "sampling.fft.s": ("s", "lower"),
    "sampling.kmeans.s": ("s", "lower"),
    "sampling.random.s": ("s", "lower"),
    "sampling.finalize_references.s": ("s", "lower"),
    "sampling.lloyd.iters": ("count", "lower"),
    "kernelmap.map.s": ("s", "lower"),
    "kernelmap.map.cells": ("count", "lower"),
    "classify.knn_predict.s": ("s", "lower"),
    "classify.knn_predict.queries": ("count", "lower"),
    "classify.knn_fit.s": ("s", "lower"),
    "classify.gnb_fit.s": ("s", "lower"),
    "classify.gnb_predict.s": ("s", "lower"),
    "modelsel.evaluate_config.s": ("s", "lower"),
    "modelsel.fit_pipeline.calls": ("count", "lower"),
    "modelsel.balanced_error_rate.s": ("s", "lower"),
    "modelsel.configs": ("count", "higher"),
    "modelsel.configs_failed": ("count", "lower"),
    "modelsel.viable_ratio": ("ratio", "higher"),
    "parallel.map_indexed.s": ("s", "lower"),
    "parallel.workers": ("count", "higher"),
    "parallel.busy_ratio": ("ratio", "higher"),
    "ensemble.build_ensemble.s": ("s", "lower"),
    "ensemble.member_votes.s": ("s", "lower"),
    "ensemble.vote.s": ("s", "lower"),
    "ensemble.members": ("count", "higher"),
    "serialize.save.s": ("s", "lower"),
    "serialize.load.s": ("s", "lower"),
    "serialize.bytes_written": ("bytes", "lower"),
    "serialize.bytes_read": ("bytes", "lower"),
    "cli.main.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Span names whose self time is reported under another metric name.
_SELF_TIME_AS = {"ensemble.predict": "ensemble.vote.s"}
_CALLS = ("geometry.pairwise", "sampling.make_reference_set", "modelsel.fit_pipeline")


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer numbers of one traced round (0 where a layer did no work)."""
    totals = span_totals(recorder.threads)
    out = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_s"}
    for name, t in totals.items():
        key = _SELF_TIME_AS.get(name, f"{name}.s")
        if key in out:
            out[key] = t["self"]
    for name in _CALLS:
        out[f"{name}.calls"] = totals.get(name, {}).get("calls", 0)
    for key, value in recorder.counts().items():
        out[key] = value
    evaluated = totals.get("modelsel.evaluate_config")
    if evaluated:
        out["modelsel.configs"] = evaluated["calls"]
        out["modelsel.configs_failed"] = evaluated["failed"]
        out["modelsel.viable_ratio"] = (evaluated["calls"] - evaluated["failed"]) / evaluated["calls"]
        pool = totals.get("parallel.map_indexed")
        if pool and pool["wall"] > 0:
            out["parallel.busy_ratio"] = evaluated["wall"] / (pool["wall"] * out["parallel.workers"])
    return out


def write_spans(path, recorders: list[Recorder]) -> int:
    """Write the spans of every traced round as gzipped JSON lines; return the count."""
    written = 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for round_no, recorder in enumerate(recorders):
            for thread_no, log in enumerate(recorder.threads):
                for i, span in enumerate(log.spans):
                    fh.write(json.dumps([round_no, thread_no, log.ident, i, span.name,
                                         span.start, span.end, span.parent, span.failed]))
                    fh.write("\n")
                    written += 1
    return written
