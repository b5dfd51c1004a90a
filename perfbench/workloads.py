"""The benchmark's workloads: set-up, the commands of one round, and output checks.

Every workload drives the package only through ``kernelcast.cli.main`` with
an argument list, as a user of the command line would.  A round is one pass
of the workload's commands; the benchmark repeats rounds in a closed loop.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import inputs
import stats

FOLDS = "3"
SEARCH_SEED = "0"
ENSEMBLE_SIZE = 15
# The single model that score-bulk trains in set-up.
BULK_CONFIG = {
    "k_references": 16, "sampling_distance": "euclidean", "sampler": "random",
    "kernel": "gaussian", "ref_type": "centers", "classifier": "gnb",
    "scaler": "standardize", "knn": None,
}

_SEARCH_LINE = re.compile(r"evaluated (\d+) configurations; best cv_ber (\S+) -> ")
_BER_LINE = re.compile(r"^BER: (\S+)$", re.M)


class CheckFailed(Exception):
    """A command failed or its output is wrong."""


@dataclass
class Step:
    """One CLI command of a round; ``out`` is the file it must produce."""

    label: str
    argv: list[str]
    out: Path


@dataclass
class Outcome:
    """What a round's checks established."""

    quality_ber: float
    items: int
    items_step: str
    digests: dict[str, str]
    configs: int = 0
    configs_failed: int = 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_report(path: Path, stdout: str, budget: int) -> tuple[Outcome, dict]:
    """Check a search report and the line ``search`` printed about it."""
    match = _SEARCH_LINE.search(stdout)
    _require(match is not None, f"search printed no summary: {stdout!r}")
    data = path.read_bytes()
    doc = json.loads(data)
    entries = doc["evaluated"]
    _require(len(entries) == budget == int(match.group(1)),
             f"report holds {len(entries)} entries, expected {budget}")
    scores = [(e["cv_ber"], i) for i, e in enumerate(entries) if e["cv_ber"] is not None]
    _require(bool(scores), "search found no viable configuration")
    best_ber, best = min(scores)
    _require(doc["best_index"] == best, f"best_index {doc['best_index']} is not the minimum {best}")
    _require(f"{best_ber:.6f}" == match.group(2), "printed best cv_ber differs from the report")
    failed = sum(1 for e in entries if e["error"] is not None)
    _require(failed == len(entries) - len(scores), "failed entries must be exactly the unscored ones")
    outcome = Outcome(best_ber, len(entries), "search",
                      {path.name: stats.digest(stats.scrub_report(data))},
                      configs=len(entries), configs_failed=failed)
    return outcome, doc


def check_predictions(path: Path, stdout: str, truth: list[str], names: list[str]) -> Outcome:
    """Check a predictions file against the truth and the BER ``predict`` printed."""
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    _require(len(lines) == len(truth), f"{len(lines)} predictions for {len(truth)} rows")
    index = {name: i for i, name in enumerate(names)}
    _require(set(lines) <= set(index), "prediction outside the label vocabulary")
    ber = stats.balanced_error_rate([index[t] for t in truth], [index[p] for p in lines],
                                    len(names))
    match = _BER_LINE.search(stdout)
    _require(match is not None and match.group(1) == f"{ber:.6f}",
             f"printed BER {match and match.group(1)} differs from the counted {ber:.6f}")
    return Outcome(ber, len(lines), "predict", {path.name: stats.digest(data)})


class Workload:
    """One workload.  ``main`` is ``kernelcast.cli.main``; ``run(main, argv)``
    runs one command and returns (seconds, output), failing the check on a
    non-zero exit code."""

    name = ""
    threads: str | None = None
    # Highest acceptable quality_ber.  Under the package's BER (false
    # positives plus misses per class) a chance-level classifier scores
    # about 1.0; each ceiling sits well above the values seen over seeds.
    ber_ceiling = 1.0
    # The hostspeed kernel whose slow phases resemble this workload's.
    calibration = "numeric"
    # Whether set-up runs commands (then each set-up repetition gets
    # host-speed calibrations of its own).
    setup_runs_commands = False

    def describe(self) -> dict:
        raise NotImplementedError

    def setup(self, main, run, work: Path, seed: int) -> dict[str, str]:
        """Write inputs (and set-up products) under ``work``; return their digests."""
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, results: dict[str, tuple[float, str]]) -> Outcome:
        raise NotImplementedError

    def final_check(self, main, run, reference: Outcome) -> None:
        """Untimed check after the timed rounds (none by default)."""

    def _digest_files(self, *paths: Path) -> dict[str, str]:
        return {p.name: stats.digest(p.read_bytes()) for p in paths}


class SearchWorkload(Workload):
    def __init__(self, name, dataset, make_train, budget, threads, ber_ceiling, calibration):
        self.name, self.dataset, self.make_train = name, dataset, make_train
        self.budget, self.threads, self.ber_ceiling = budget, threads, ber_ceiling
        self.calibration = calibration

    def describe(self) -> dict:
        return {"input": self.dataset, "command": "search --mode random",
                "budget": self.budget, "folds": int(FOLDS),
                "KERNELCAST_THREADS": self.threads}

    def setup(self, main, run, work, seed):
        self.work = work
        self.train = work / "train.csv"
        inputs.write_csv(self.train, *self.make_train(seed))
        return self._digest_files(self.train)

    def _argv(self, out: Path) -> list[str]:
        return ["search", "--data", str(self.train), "--mode", "random",
                "--budget", str(self.budget), "--folds", FOLDS, "--seed", SEARCH_SEED,
                "--out", str(out)]

    def steps(self):
        out = self.work / "report.json"
        return [Step("search", self._argv(out), out)]

    def check(self, results):
        step = self.steps()[0]
        outcome, _ = check_report(step.out, results["search"][1], self.budget)
        return outcome

    def final_check(self, main, run, reference):
        if self.threads is None:
            return
        # The threaded report must equal a sequential search of the same input.
        out = self.work / "report_threads1.json"
        os.environ["KERNELCAST_THREADS"] = "1"
        try:
            seconds, stdout = run(main, self._argv(out))
        finally:
            os.environ["KERNELCAST_THREADS"] = self.threads
        print(f"search_s with KERNELCAST_THREADS=1 (one untimed check run): {seconds:.4g} s raw")
        sequential, _ = check_report(out, stdout, self.budget)
        _require(sequential.digests["report_threads1.json"] == reference.digests["report.json"],
                 "threaded report differs from the KERNELCAST_THREADS=1 report")


class ServeWorkload(Workload):
    name = "serve-banana"
    setup_runs_commands = True
    budget = 128
    ber_ceiling = 0.4
    # The served model is fixed: its training set does not follow --seed,
    # so every seed serves the same ensemble to different query rows.
    train_seed = 0

    def describe(self) -> dict:
        return {"input": f"banana-400 train (seed {self.train_seed}), 4900 query rows from --seed",
                "setup": f"search --mode random --budget {self.budget} --folds {FOLDS}",
                "command": f"train --ensemble-size {ENSEMBLE_SIZE}; predict --truth-col -1",
                "KERNELCAST_THREADS": self.threads}

    def setup(self, main, run, work, seed):
        self.work = work
        self.train, self.test = work / "train.csv", work / "test.csv"
        self.report = work / "report.json"
        tr_x, tr_y, names = inputs.banana_train(self.train_seed)
        te_x, te_y, _ = inputs.banana_queries(seed)
        inputs.write_csv(self.train, tr_x, tr_y, names)
        inputs.write_csv(self.test, te_x, te_y, names)
        self.names = names
        self.truth = [names[y] for y in te_y.tolist()]
        _, stdout = run(main, ["search", "--data", str(self.train), "--mode", "random",
                               "--budget", str(self.budget), "--folds", FOLDS,
                               "--seed", SEARCH_SEED, "--out", str(self.report)])
        searched, _ = check_report(self.report, stdout, self.budget)
        return {**self._digest_files(self.train, self.test), **searched.digests}

    def steps(self):
        model, pred = self.work / "ensemble.json", self.work / "predictions.txt"
        return [
            Step("train", ["train", "--data", str(self.train), "--report", str(self.report),
                           "--ensemble-size", str(ENSEMBLE_SIZE), "--seed", "0",
                           "--out", str(model)], model),
            Step("predict", ["predict", "--model", str(model), "--data", str(self.test),
                             "--truth-col", "-1", "--out", str(pred)], pred),
        ]

    def check(self, results):
        train, predict = self.steps()
        doc = json.loads(train.out.read_bytes())
        _require(doc.get("kind") == "ensemble" and len(doc["members"]) == ENSEMBLE_SIZE,
                 "train did not write a 15-member ensemble")
        outcome = check_predictions(predict.out, results["predict"][1], self.truth, self.names)
        outcome.digests.update(self._digest_files(train.out))
        return outcome


class ScoreWorkload(Workload):
    name = "score-bulk"
    setup_runs_commands = True
    calibration = "text"
    ber_ceiling = 0.55

    def describe(self) -> dict:
        return {"input": "bulk-2000 train (set-up), bulk-50000 x 10 query",
                "setup": "train --config (GNB, 16 random references)",
                "command": "predict --truth-col -1", "KERNELCAST_THREADS": self.threads}

    def setup(self, main, run, work, seed):
        self.work = work
        train, self.query = work / "train.csv", work / "bulk.csv"
        config, self.model = work / "config.json", work / "model.json"
        (tr_x, tr_y, names), (te_x, te_y, _) = inputs.bulk(seed)
        inputs.write_csv(train, tr_x, tr_y, names)
        inputs.write_csv(self.query, te_x, te_y, names)
        config.write_text(json.dumps(BULK_CONFIG), encoding="utf-8")
        self.names = names
        self.truth = [names[y] for y in te_y.tolist()]
        run(main, ["train", "--data", str(train), "--config", str(config), "--seed", "0",
                      "--out", str(self.model)])
        return self._digest_files(train, self.query, self.model)

    def steps(self):
        pred = self.work / "predictions.txt"
        return [Step("predict", ["predict", "--model", str(self.model), "--data",
                                 str(self.query), "--truth-col", "-1", "--out", str(pred)],
                     pred)]

    def check(self, results):
        step = self.steps()[0]
        return check_predictions(step.out, results["predict"][1], self.truth, self.names)


WORKLOADS = {w.name: w for w in (
    SearchWorkload("search-banana", "banana-400", inputs.banana_train, 128, None, 0.45,
                   "numeric"),
    SearchWorkload("search-gland-t2", "gland-140", inputs.gland_train, 256, "2", 0.3, "small"),
    ServeWorkload(),
    ScoreWorkload(),
)}
