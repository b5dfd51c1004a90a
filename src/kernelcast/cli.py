"""Command-line interface: search, train, predict, consensus, benchmark.

All commands exit 0 on success.  A domain error (bad data, parameters or
documents) or an OS error prints ``error: <message>`` to standard error and
exits 1; anything else is a bug and propagates with its traceback.  Reports
and models are JSON documents; repeated runs with the same seed reproduce
them byte for byte apart from wall-time fields.  KERNELCAST_THREADS sets how
many processes evaluate a search, the caller and its forked workers (0 = one
per CPU, capped at the CPU count; sequential where fork is unavailable).
"""

from __future__ import annotations

import argparse
import io
import sys
from collections import Counter

import numpy as np

from . import errors, rand, serialize
from .data import SCALER_KINDS, Dataset, load_csv, load_feature_csv
from .ensemble import (DEFAULT_ENSEMBLE_SIZE, Ensemble, build_ensemble,
                       consensus_curve, ensemble_predict)
from .kernelmap import map_matrix
from .modelsel import (DEFAULT_FOLD_COUNT, DEFAULT_SAMPLE_SIZE, Configuration,
                       KmsModel, SearchReport, _digest64, balanced_error_rate,
                       grid_search, kms_fit, kms_predict, random_search)
from .sampling import SAMPLER_KINDS

BENCHMARK_METHODS = ("kms-rs", "kms-gs", "kms-random", "kms-density", "kms-fft", "kms-kmeans",
                     "kmse-rs", "kmse-gs", "kmse-random", "kmse-density", "kmse-fft",
                     "kmse-kmeans")

# Benchmark method variant -> (search mode, sampler filter); any other variant
# names a sampler searched at random.
_SEARCH_VARIANTS = {"rs": ("random", None), "gs": ("grid", None)}


class CliError(errors.KernelcastError):
    """User-facing command failure."""


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="training CSV file")
    parser.add_argument("--label-col", default="-1",
                        help="label column index or (with --has-header) name; default last column")
    parser.add_argument("--has-header", action="store_true",
                        help="treat the first CSV row as a header")


def _load_training(args) -> Dataset:
    return load_csv(args.data, label_column=args.label_col, has_header=args.has_header)


def _run_named_search(ds: Dataset, mode: str, sampler_filter, budget: int,
                      fold_count: int, seed: int, scaler: str):
    if mode == "grid":
        return grid_search(ds, fold_count=fold_count, seed=seed,
                           sampler_filter=sampler_filter, scaler=scaler)
    return random_search(ds, sample_size=budget, fold_count=fold_count, seed=seed,
                         sampler_filter=sampler_filter, scaler=scaler)


def cmd_search(args) -> int:
    ds = _load_training(args)
    sampler_filter = None if args.sampler == "any" else args.sampler
    report = _run_named_search(ds, args.mode, sampler_filter, args.budget,
                               args.folds, args.seed, args.scaler)
    serialize.save(report, args.out)
    failed = Counter(e.error_class for e in report.entries if e.error is not None)
    if failed:
        classes = ", ".join(f"{name}: {count}" for name, count in sorted(failed.items()))
        print(f"failed {failed.total()} ({classes})", file=sys.stderr)
    best = report.best
    print(f"evaluated {len(report.entries)} configurations; "
          f"best cv_ber {best.cv_ber:.6f} -> {args.out}")
    return 0


def _fit_report(report, ds: Dataset, ell: int | None, seed: int):
    """Fit a report's best single model (``ell`` None) or its ell-member ensemble."""
    if ell is None:
        best = report.best
        return kms_fit(best.config, ds, seed, cv_ber=best.cv_ber)
    return build_ensemble(report, ds, ell=ell, seed=seed)


def _predict(model: KmsModel | Ensemble, features: np.ndarray) -> np.ndarray:
    if isinstance(model, Ensemble):
        return ensemble_predict(model, features)
    return kms_predict(model, features)


def cmd_train(args) -> int:
    ds = _load_training(args)
    if (args.report is None) == (args.config is None):
        raise CliError("provide exactly one of --report or --config")
    if args.config is not None:
        if args.ensemble_size:
            raise CliError("--ensemble-size requires --report (ensembles come from a search)")
        try:
            cfg = Configuration.from_dict(serialize.read_json(args.config))
        except KeyError as exc:
            raise CliError(f"{args.config}: configuration is missing field "
                           f"{exc.args[0]!r}") from None
        except (AttributeError, TypeError) as exc:
            raise CliError(f"{args.config}: configuration is malformed: {exc}") from None
        model = kms_fit(cfg, ds, args.seed)
        serialize.save(model, args.out)
        print(f"trained single model -> {args.out}")
        return 0
    report = serialize.load(args.report)
    if not isinstance(report, SearchReport):
        raise CliError("--report must point to a search report document")
    if tuple(report.data_shape) != (ds.n, ds.dim, ds.n_classes):
        print(f"warning: training data shape {(ds.n, ds.dim, ds.n_classes)} differs "
              f"from the searched data shape {tuple(report.data_shape)}", file=sys.stderr)
    ell = args.ensemble_size or None
    model = _fit_report(report, ds, ell, args.seed)
    serialize.save(model, args.out)
    if ell is None:
        print(f"trained best single model (cv_ber {model.cv_ber:.6f}) -> {args.out}")
    else:
        print(f"trained {ell}-member ensemble -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = serialize.load(args.model)
    if not isinstance(model, (KmsModel, Ensemble)):
        raise CliError("--model must point to a model or ensemble document")
    if args.dump_mapped is not None and not isinstance(model, KmsModel):
        raise CliError("--dump-mapped works only with single models")
    names = model.label_names
    truth = None
    if args.truth_col is not None:
        queries = load_csv(args.data, label_column=args.truth_col,
                           has_header=args.has_header, vocabulary=names)
        features, truth = queries.features, queries.labels
    else:
        features = load_feature_csv(args.data, has_header=args.has_header)
    width = (model.members[0] if isinstance(model, Ensemble) else model).scaler.offset.shape[0]
    if features.shape[1] != width:
        raise CliError(f"{args.data}: rows have {features.shape[1]} features, the model takes {width}")
    predicted = _predict(model, features)
    lines = [name + "\n" for name in names]
    serialize.write_text(args.out, "".join([lines[i] for i in predicted.tolist()]))
    if args.dump_mapped is not None:
        mapped = map_matrix(model.scaler.transform(features), model.refs, model.config.kernel)
        text = io.StringIO()
        np.savetxt(text, mapped, delimiter=",")
        serialize.write_text(args.dump_mapped, text.getvalue())
    print(f"wrote {len(predicted)} predictions -> {args.out}")
    if truth is not None:
        ber = balanced_error_rate(truth, predicted, len(names))
        print(f"BER: {ber:.6f}")
    return 0


def cmd_consensus(args) -> int:
    ds = _load_training(args)
    report = serialize.load(args.report)
    if not isinstance(report, SearchReport):
        raise CliError("--report must point to a search report document")
    eval_ds = None
    if args.eval_data is not None:
        eval_ds = load_csv(args.eval_data, label_column=args.label_col,
                           has_header=args.has_header, vocabulary=ds.label_names)
    curve = consensus_curve(report, ds, eval_ds, ell_start=args.ell_start,
                            step=args.step, ell_max=args.ell_max, seed=args.seed)
    rows = [f"{ell},{raw!r},{norm!r}\n"
            for ell, raw, norm in zip(curve.ells, curve.raw, curve.normalized)]
    serialize.write_text(args.out, "ell,raw_ratio,normalized_ratio\n" + "".join(rows))
    print(f"wrote consensus curve with {len(curve.ells)} points -> {args.out}")
    return 0


def _parse_method(name: str) -> tuple[bool, str, str | None]:
    """Return (is_ensemble, search_mode, sampler_filter) for a method name."""
    if name not in BENCHMARK_METHODS:
        raise CliError(f"unknown method {name!r}; expected one of {', '.join(BENCHMARK_METHODS)}")
    family, variant = name.split("-", 1)
    mode, flt = _SEARCH_VARIANTS.get(variant, ("random", variant))
    return family == "kmse", mode, flt


def rank_with_mid_ties(values: list[float]) -> list[float]:
    """Ascending ranks starting at 1; tied values share the mid rank."""
    return [sum(v < x for v in values) + (sum(v == x for v in values) + 1) / 2
            for x in values]


def _cell_seed(master: int, name: str, split: int, mode: str, flt: str | None) -> int:
    return rand.seed_from(master, rand.BENCH, _digest64([name, split, mode, flt]))


def _load_manifest(path) -> list[dict]:
    """The manifest's dataset entries, each checked before any CSV is read."""
    doc = serialize.read_json(path)
    datasets = doc.get("datasets") if isinstance(doc, dict) else None
    if not isinstance(datasets, list) or not datasets:
        raise CliError(f"{path}: manifest must contain a non-empty 'datasets' list")
    for entry in datasets:
        splits = entry.get("splits") if isinstance(entry, dict) else None
        if not isinstance(splits, list) or not splits or not isinstance(entry.get("name"), str):
            raise CliError(f"{path}: every manifest dataset needs a name and a non-empty 'splits' list")
        for split in splits:
            if not (isinstance(split, dict) and all(isinstance(split.get(key), str) for key in ("train", "test"))):
                raise CliError(f"{path}: every split needs 'train' and 'test' file paths")
        if not isinstance(entry.get("has_header", False), bool):
            raise CliError(f"{path}: a dataset's 'has_header' must be true or false")
        if type(entry.get("label_col", -1)) is not int:  # a bool is no column either
            raise CliError(f"{path}: a dataset's 'label_col' must be an integer")
    return datasets


def cmd_benchmark(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise CliError("--methods must list at least one method")
    if len(set(methods)) != len(methods):
        raise CliError("--methods contains duplicates")
    parsed = {m: _parse_method(m) for m in methods}
    if args.max_splits is not None and args.max_splits < 1:
        raise CliError("--max-splits must be at least 1")
    datasets = _load_manifest(args.manifest)

    results = []
    for entry in datasets:
        name = entry["name"]
        label_col = entry.get("label_col", -1)
        has_header = entry.get("has_header", False)
        splits = entry["splits"]
        if args.max_splits is not None:
            splits = splits[:args.max_splits]
        per_method: dict[str, dict[str, list[float]]] = {
            m: {"ber": [], "ber_fn_only": []} for m in methods}
        for split_idx, split in enumerate(splits):
            train = load_csv(split["train"], label_column=label_col, has_header=has_header)
            test = load_csv(split["test"], label_column=label_col, has_header=has_header,
                            vocabulary=train.label_names)
            searches = {}
            for is_ens, mode, flt in parsed.values():
                key = (mode, flt)
                if key not in searches:
                    seed = _cell_seed(args.seed, name, split_idx, mode, flt)
                    searches[key] = (seed, _run_named_search(
                        train, mode, flt, args.budget, args.folds, seed, args.scaler))
            for method, (is_ens, mode, flt) in parsed.items():
                seed, report = searches[(mode, flt)]
                model = _fit_report(report, train, args.ensemble_size if is_ens else None, seed)
                predicted = _predict(model, test.features)
                per_method[method]["ber"].append(
                    balanced_error_rate(test.labels, predicted, train.n_classes))
                per_method[method]["ber_fn_only"].append(
                    balanced_error_rate(test.labels, predicted, train.n_classes,
                                        include_false_positives=False))
        results.append({
            "name": name,
            "splits_used": len(splits),
            "methods": {
                m: {
                    "mean_ber": float(np.mean(scores["ber"])),
                    "mean_ber_fn_only": float(np.mean(scores["ber_fn_only"])),
                    "per_split_ber": scores["ber"],
                    "per_split_ber_fn_only": scores["ber_fn_only"],
                }
                for m, scores in per_method.items()
            },
        })

    per_dataset_ranks = {}
    totals = {m: 0.0 for m in methods}
    for entry in results:
        ranks = rank_with_mid_ties([entry["methods"][m]["mean_ber"] for m in methods])
        per_dataset_ranks[entry["name"]] = dict(zip(methods, ranks))
        for m, r in zip(methods, ranks):
            totals[m] += r
    average = {m: totals[m] / len(results) for m in methods}
    method_order = sorted(methods, key=lambda m: (average[m], m))

    doc = {
        "version": serialize.FORMAT_VERSION,
        "kind": "benchmark_report",
        "seed": args.seed,
        "budget": args.budget,
        "fold_count": args.folds,
        "ensemble_size": args.ensemble_size,
        "scaler": args.scaler,
        "max_splits": args.max_splits,
        "datasets": results,
        "ranks": {"per_dataset": per_dataset_ranks, "average": average},
        "method_order": method_order,
    }
    serialize.write_text(args.out, serialize.dumps(doc))
    print("method order by average rank: " + ", ".join(method_order))
    print(f"wrote benchmark report -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelcast",
        description="Kernel feature mapping classifiers with model selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="cross-validated configuration search")
    _add_data_args(p)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLD_COUNT)
    p.add_argument("--budget", type=int, default=DEFAULT_SAMPLE_SIZE,
                   help="configurations sampled in random mode")
    p.add_argument("--mode", choices=("random", "grid"), default="random")
    p.add_argument("--sampler", choices=("any", *SAMPLER_KINDS),
                   default="any", help="restrict the grid to one sampler")
    p.add_argument("--scaler", choices=SCALER_KINDS, default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="search report JSON path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="fit a model or ensemble from a report or config")
    _add_data_args(p)
    p.add_argument("--report", help="search report JSON from the search command")
    p.add_argument("--config", help="single configuration JSON file")
    p.add_argument("--ensemble-size", type=int, nargs="?", const=DEFAULT_ENSEMBLE_SIZE,
                   default=0, help="members to refit (0 = best single model; "
                   f"bare flag = {DEFAULT_ENSEMBLE_SIZE})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a query CSV with a trained model")
    p.add_argument("--model", required=True, help="model JSON from the train command")
    p.add_argument("--data", required=True, help="query CSV file")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--truth-col", default=None,
                   help="treat this column as ground truth and print the BER")
    p.add_argument("--dump-mapped", default=None,
                   help="also write the kernel-mapped query matrix to this CSV")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("consensus", help="ensemble-size consensus curve from a report")
    _add_data_args(p)
    p.add_argument("--report", required=True)
    p.add_argument("--eval-data", default=None,
                   help="evaluation CSV (defaults to the training data)")
    p.add_argument("--ell-start", type=int, default=3)
    p.add_argument("--step", type=int, default=2)
    p.add_argument("--ell-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_consensus)

    p = sub.add_parser("benchmark", help="run methods over a manifest of dataset splits")
    p.add_argument("--manifest", required=True, help="JSON manifest of datasets and splits")
    p.add_argument("--methods", default="kms-rs,kmse-rs",
                   help="comma-separated method names, e.g. kms-rs,kmse-rs,kms-fft")
    p.add_argument("--budget", type=int, default=DEFAULT_SAMPLE_SIZE)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLD_COUNT)
    p.add_argument("--ensemble-size", type=int, default=DEFAULT_ENSEMBLE_SIZE)
    p.add_argument("--scaler", choices=SCALER_KINDS, default="none")
    p.add_argument("--max-splits", type=int, default=None,
                   help="cap the splits used per dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="benchmark report JSON path")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (errors.KernelcastError, OSError) as exc:  # anything else is a bug and propagates
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
