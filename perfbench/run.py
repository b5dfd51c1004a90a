"""kernelcast benchmark: run one workload through the command line and report metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload search-banana --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout.  Set-up (import,
input generation, set-up commands) repeats and is timed; then
the workload's commands run in a closed loop, one after another on one
caller, for ``--seconds`` (at least MIN_ROUNDS rounds).  Every round's
outputs are checked.  With ``--trace 1`` rounds alternate between untraced
and traced (wrappers installed only for the traced ones) and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up repeats at least SETUP_MIN_REPS times, and more (up to
# SETUP_MAX_REPS) while the repetitions so far took under SETUP_SECONDS.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 3, 21, 2.0
MIN_ROUNDS = 3
# Host-speed calibrations before set-up and before every round.
CALIBRATIONS = 2

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def import_cli():
    """Import kernelcast.cli afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "kernelcast" or m.startswith("kernelcast.")]:
        del sys.modules[name]
    cli = importlib.import_module("kernelcast.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"kernelcast was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_cli(main, argv) -> tuple[float, str]:
    """Run one command in-process; return (seconds, its output).

    A non-zero exit code, also one raised as SystemExit, fails the check.
    """
    out = io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(out):
        started = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - started
    if rc != 0:
        raise CheckFailed(f"{argv[0]} exited {rc}: {out.getvalue().strip()[-300:]}")
    return seconds, out.getvalue()


def run_round(workload, main) -> dict[str, tuple[float, str]]:
    results = {}
    for step in workload.steps():
        step.out.unlink(missing_ok=True)
        results[step.label] = run_cli(main, step.argv)
    return results


class Run:
    """Counts attempts and failures and keeps the first outputs as the reference."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None

    def attempt(self, action):
        self.attempted += 1
        try:
            return action()
        except (CheckFailed, KeyError, OSError, ValueError) as exc:
            # Missing or malformed output files fail the check as well.
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None

    def checked_round(self, main, recorder=None):
        """One round, traced when a recorder is given, then the output checks.

        The recorder's wrappers are installed for the round's commands only.
        """
        def action():
            if recorder is None:
                results = run_round(self.workload, main)
            else:
                recorder.install(tracing.TARGETS)
                try:
                    results = run_round(self.workload, recorder.wrap("cli.main", main))
                finally:
                    recorder.uninstall()
            outcome = self.workload.check(results)
            if outcome.quality_ber > self.workload.ber_ceiling:
                raise CheckFailed(f"quality_ber {outcome.quality_ber:.6f} above the ceiling "
                                  f"{self.workload.ber_ceiling}")
            if self.reference is None:
                self.reference = outcome
            elif (outcome.digests, outcome.quality_ber) != (self.reference.digests,
                                                             self.reference.quality_ber):
                raise CheckFailed(f"outputs changed between rounds: {outcome.digests} "
                                  f"against {self.reference.digests}")
            return results, outcome
        return self.attempt(action)


def setup(workload, seed: int, run: Run, calibration):
    """Set up repeatedly; return (per-repetition timings, cli module of the last repetition).

    Each repetition is timed in two parts, the import of kernelcast and the
    rest (inputs and set-up commands), and the import is preceded by an
    import calibration.  Where set-up runs commands, the host-speed
    calibration runs before each repetition and once after the last, so
    that each repetition has one on either side.  Collections run before
    each timed part, so garbage of the previous repetition is not collected
    inside it.
    """
    timings = {"import": [], "import_calibration": [], "rest": [], "calibration": []}
    digests, cli = [], None
    while len(digests) < SETUP_MIN_REPS or (
            sum(timings["import"]) + sum(timings["rest"]) < SETUP_SECONDS
            and len(digests) < SETUP_MAX_REPS):
        work = WORK / f"{workload.name}-{seed}-{os.getpid()}" / f"setup{len(digests)}"
        work.mkdir(parents=True)
        if workload.setup_runs_commands:
            timings["calibration"].append(hostspeed.calibrate(*calibration))
        gc.collect()
        import_calibration = hostspeed.calibrate_import()
        gc.collect()
        started = time.perf_counter()
        cli = import_cli()
        imported = time.perf_counter()
        made = run.attempt(lambda: workload.setup(cli.main, run_cli, work, seed))
        finished = time.perf_counter()
        if made is None:
            break
        timings["import_calibration"].append(import_calibration)
        timings["import"].append(imported - started)
        timings["rest"].append(finished - imported)
        digests.append(made)
    if workload.setup_runs_commands:
        timings["calibration"].append(hostspeed.calibrate(*calibration))
    if any(d != digests[0] for d in digests):
        run.failures.append("set-up products differ between repetitions")
    return timings, cli


def setup_seconds(timings, reference_s: float, speed: float) -> list[float]:
    """Each repetition's set-up time at reference host speed.

    The import is scaled by its own calibration.  The rest is scaled by the
    mean of the host-speed calibrations on either side of the repetition
    where there are such, else by the run's host speed factor ``speed``.
    """
    out = []
    for i, (imported, import_calibration, rest) in enumerate(
            zip(timings["import"], timings["import_calibration"], timings["rest"])):
        around = timings["calibration"][i:i + 2]
        factor = reference_s / stats.mean(around) if around else speed
        out.append(imported * hostspeed.IMPORT_REFERENCE_S / import_calibration + rest * factor)
    return out


def print_summary(label: str, unit: str, values) -> None:
    if not values:
        print(f"{label}: no samples")
        return
    s = stats.summarize(values)
    tail = (f", p{s['tail_p']:g} {s['tail']:.6g} {unit}" if "tail" in s
            else f", no tail percentile (needs {stats.TAIL_MIN_BEYOND} samples beyond it)")
    print(f"{label}: median {s['median']:.6g} {unit} (n={s['n']}){tail}; "
          f"samples {' '.join(f'{v:.4g}' for v in values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kernelcast" / "cli.py").is_file():
        print(f"error: no kernelcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if workload.threads is None:
        os.environ.pop("KERNELCAST_THREADS", None)
    else:
        os.environ["KERNELCAST_THREADS"] = workload.threads

    run = Run(workload)
    try:
        return measure(workload, args, run)
    finally:
        shutil.rmtree(WORK / f"{workload.name}-{args.seed}-{os.getpid()}", ignore_errors=True)


def measure(workload, args, run: Run) -> int:
    import numpy

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} {platform.machine()}")
    print(f"workload {workload.name} seed {args.seed}: {json.dumps(workload.describe())}")
    calibration = (workload.calibration, int(workload.threads or 1))
    calibrations = [hostspeed.calibrate(*calibration) for _ in range(CALIBRATIONS)]
    setup_timings, cli = setup(workload, args.seed, run, calibration)
    main = cli.main

    step_times: dict[str, list[float]] = {}
    items_per_s: list[float] = []
    # Index in ``calibrations`` of the first calibration before each untraced round.
    round_calibrations: list[int] = []
    round_times = {False: [], True: []}
    layer_rounds: list[dict[str, float]] = []
    recorders: list[tracing.Recorder] = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while run.failures == [] and (time.perf_counter() < deadline or rounds < MIN_ROUNDS):
        first_calibration = len(calibrations)
        calibrations += [hostspeed.calibrate(*calibration) for _ in range(CALIBRATIONS)]
        traced = bool(args.trace) and rounds % 2 == 1
        recorder = tracing.Recorder() if traced else None
        done = run.checked_round(main, recorder)
        rounds += 1
        if done is None:
            break
        results, outcome = done
        round_times[traced].append(sum(r[0] for r in results.values()))
        if traced:
            layer_rounds.append(tracing.layer_metrics(recorder))
            recorders.append(recorder)
            continue
        round_calibrations.append(first_calibration)
        for label, (seconds, _) in results.items():
            step_times.setdefault(label, []).append(seconds)
        items_per_s.append(outcome.items / results[outcome.items_step][0])

    calibrations.append(hostspeed.calibrate(*calibration))
    if run.failures == [] and run.reference is not None:
        run.attempt(lambda: workload.final_check(main, run_cli, run.reference))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # End-to-end times are reported at the reference host speed.  Each
    # untraced round is scaled by the calibrations just before it and the
    # one just after it.
    reference_s = hostspeed.REFERENCE_S[calibration]
    speed = reference_s / stats.median(calibrations)
    factors = [reference_s / stats.mean(calibrations[i:i + CALIBRATIONS + 1])
               for i in round_calibrations]

    print_summary("calibration", "s", calibrations)
    print(f"host speed factor {speed:.4f} over the run (kernel {calibration[0]}, "
          f"{calibration[1]} thread(s), reference {reference_s} s)")
    print_summary("round host speed factors", "", factors)
    for part, values in setup_timings.items():
        print_summary(f"setup {part}", "s", values)
    setup_s = setup_seconds(setup_timings, reference_s, speed)
    print_summary("setup_s at reference host speed", "s", setup_s)
    print_summary("round_s", "s", round_times[False])
    for label, values in step_times.items():
        print_summary(f"{label}_s", "s", values)
    print_summary("items_per_s", "1/s", items_per_s)
    round_s = [t * f for t, f in zip(round_times[False], factors)]
    items_per_s = [v / f for v, f in zip(items_per_s, factors)]
    print_summary("round_s at reference host speed", "s", round_s)
    print_summary("items_per_s at reference host speed", "1/s", items_per_s)
    ref = run.reference
    if ref is not None:
        print(f"quality_ber: {ref.quality_ber:.6f} (BER, deterministic per seed)")
        if ref.configs:
            print(f"failed_config_frac: {ref.configs_failed / ref.configs:g} "
                  f"({ref.configs_failed} of {ref.configs} configurations)")
        for name, value in sorted(ref.digests.items()):
            print(f"digest {name}: sha256 {value}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MiB")
    print(f"error_rate: {len(run.failures)}/{run.attempted}")
    for failure in run.failures:
        print(f"check failed: {failure}")

    correct = not run.failures and ref is not None
    if args.trace:
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            if name == "trace.overhead_s":
                value = (stats.median(round_times[True]) - stats.median(round_times[False])
                         if round_times[True] and round_times[False] else 0.0)
            else:
                value = stats.median([m[name] for m in layer_rounds]) if layer_rounds else 0.0
            metrics[name] = {"value": value, "unit": unit}
        if recorders:
            spans_path = WORK / "traces" / f"{workload.name}-seed{args.seed}.jsonl.gz"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            count = tracing.write_spans(spans_path, recorders)
            print(f"spans: {count} written to {spans_path.relative_to(ROOT)}")
        print_summary("round_s traced", "s", round_times[True])
    else:
        metrics = {
            "round_s": {"value": stats.median(round_s) if round_s else 0.0, "unit": "s"},
            "items_per_s": {"value": stats.median(items_per_s) if items_per_s else 0.0,
                            "unit": "1/s"},
            "setup_s": {"value": stats.median(setup_s) if setup_s else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
