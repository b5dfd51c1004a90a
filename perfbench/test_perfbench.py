"""Tests of the benchmark's own logic: span self time, summaries, output checks.

Run with ``python3 -m pytest perfbench``.
"""

import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import Outcome, Step  # noqa: E402


def span(name, start, end, parent):
    s = tracing.Span(name, start, parent)
    s.end = end
    return s


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("d", 2.0, 3.0, 1),
        span("c", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_as_one_interval():
    spans = [span("a", 0.0, 10.0, -1), span("b", 2.0, 6.0, 0), span("c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_totals_sum_self_time_per_name():
    log = tracing.ThreadLog(1)
    log.spans = [span("x", 0.0, 4.0, -1), span("y", 1.0, 2.0, 0), span("x", 2.5, 3.0, 0)]
    totals = tracing.span_totals([log])
    assert totals["x"]["calls"] == 2
    assert totals["x"]["self"] == pytest.approx(3.0 - 0.5 + 0.5)
    assert totals["x"]["wall"] == pytest.approx(4.5)
    assert totals["y"]["self"] == pytest.approx(1.0)


def test_worker_thread_spans_do_not_reduce_the_waiting_span():
    rec = tracing.Recorder()
    work = rec.wrap("work", lambda: time.sleep(0.05))

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(work) for _ in range(2)]:
                future.result()

    rec.wrap("outer", fan_out)()
    totals = tracing.span_totals(rec.threads)
    assert totals["work"]["calls"] == 2
    assert totals["outer"]["self"] == pytest.approx(totals["outer"]["wall"])
    assert totals["outer"]["wall"] >= 0.05
    workers = [log for log in rec.threads if log.ident != threading.get_ident()]
    assert all(s.parent == -1 for log in workers for s in log.spans)


def test_failed_calls_are_marked_and_reraised():
    rec = tracing.Recorder()

    def boom():
        raise ValueError("bad")

    with pytest.raises(ValueError):
        rec.wrap("boom", boom)()
    assert tracing.span_totals(rec.threads)["boom"]["failed"] == 1


def test_uninstall_restores_every_original(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.f = lambda x: x + 1
    module.Holder = type("Holder", (), {"g": lambda self: 2})
    original_f, original_g = module.f, module.Holder.g
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    rec = tracing.Recorder()
    rec.install([("fake_layer", "f", "layer.f", tracing._add("layer.n", lambda a, r: r)),
                 ("fake_layer", "Holder.g", "layer.g", None)])
    assert module.f(1) == 2 and module.Holder().g() == 2
    assert rec.counts() == {"layer.n": 2}
    rec.uninstall()
    assert module.f is original_f and module.Holder.g is original_g


def test_layer_metrics_cover_every_declared_metric_and_busy_ratio():
    rec = tracing.Recorder()
    log = rec._log()
    log.spans = [span("parallel.map_indexed", 0.0, 2.0, -1),
                 span("modelsel.evaluate_config", 0.0, 1.0, 0),
                 span("modelsel.evaluate_config", 1.0, 1.5, 0)]
    log.counts["parallel.workers"] = 1
    metrics = tracing.layer_metrics(rec)
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.LAYER_METRICS)
    assert metrics["modelsel.configs"] == 2
    assert metrics["modelsel.viable_ratio"] == 1.0
    assert metrics["parallel.busy_ratio"] == pytest.approx(0.75)
    assert metrics["parallel.map_indexed.s"] == pytest.approx(0.5)


def test_median_and_sample_count():
    s = stats.summarize([3.0, 1.0, 2.0, 10.0])
    assert s == {"median": 2.5, "n": 4}


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail(list(range(1, 20))) is None
    assert stats.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert stats.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0)
    s = stats.summarize([float(v) for v in range(100, 0, -1)])
    assert (s["n"], s["tail_p"], s["tail"]) == (100, 90.0, 90.0)


def test_setup_seconds_scale_import_and_rest_by_their_own_calibrations():
    ref = hostspeed.IMPORT_REFERENCE_S
    # Import took twice its reference calibration; the rest ran while the
    # host calibrated at half the reference speed on either side.
    timings = {"import": [0.1], "import_calibration": [2 * ref], "rest": [4.0],
               "calibration": [0.5, 0.7]}
    assert run.setup_seconds(timings, 0.3, speed=9.0) == pytest.approx([0.05 + 2.0])
    # Without calibrations of its own, the rest takes the run's speed factor.
    timings["calibration"] = []
    assert run.setup_seconds(timings, 0.3, speed=0.5) == pytest.approx([0.05 + 2.0])


def test_import_calibration_leaves_no_module_behind():
    before = set(sys.modules)
    assert hostspeed.calibrate_import() > 0
    assert set(sys.modules) == before


REPORT = (b'{\n  "evaluated": [\n    {\n      "cv_ber": 0.125,\n'
          b'      "wall_time": 0.0123456789,\n      "error": null\n    }\n  ]\n}\n')


def test_scrub_ignores_wall_time_but_digest_catches_any_other_byte():
    slower = REPORT.replace(b"0.0123456789", b"1.5")
    assert stats.digest(stats.scrub_report(slower)) == stats.digest(stats.scrub_report(REPORT))
    changed = REPORT.replace(b"0.125", b"0.126")
    assert stats.digest(stats.scrub_report(changed)) != stats.digest(stats.scrub_report(REPORT))


class OneFileWorkload:
    """A workload whose single command writes a file; used to test the checks."""

    ber_ceiling = 1.0

    def __init__(self, path):
        self.out = path

    def steps(self):
        return [Step("write", ["write"], self.out)]

    def check(self, results):
        return Outcome(0.1, 1, "write", {"out": stats.digest(self.out.read_bytes())})


def test_a_single_changed_output_byte_fails_the_round(tmp_path):
    contents = [b"abc\n", b"abc\n", b"abd\n"]

    def main(argv):
        (tmp_path / "out.txt").write_bytes(contents.pop(0))
        return 0

    checker = run.Run(OneFileWorkload(tmp_path / "out.txt"))
    assert checker.checked_round(main) is not None
    assert checker.checked_round(main) is not None
    assert checker.checked_round(main) is None
    assert checker.attempted == 3 and len(checker.failures) == 1


def test_nonzero_exit_fails_the_round(tmp_path):
    checker = run.Run(OneFileWorkload(tmp_path / "out.txt"))
    assert checker.checked_round(lambda argv: 1) is None
    assert checker.failures and "exited 1" in checker.failures[0]


def test_independent_ber_matches_the_definition():
    # class 0: 2 rows, 1 missed; class 1: 2 rows, 1 false hit from class 0.
    assert stats.balanced_error_rate([0, 0, 1, 1], [0, 1, 1, 1], 2) == pytest.approx(0.5)
