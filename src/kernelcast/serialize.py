"""Versioned JSON documents for models, ensembles, and search reports.

Every document carries ``version`` and ``kind``.  Matrices serialize as
row-major nested lists; non-finite scores (failed configurations, unknown
cv_ber) serialize as null.

A document's text is exactly that of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a final newline.  ``dumps`` writes it without the stdlib's
pure-Python indenting encoder, which spends a generator frame on every value:
matrices stay float64 arrays until then, and each finite row is rendered in
bulk, as one join of the ``float.__repr__`` strings that ``json`` writes.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from .classify import GnbModel, KnnModel, KnnParams
from .data import SCALER_KINDS, ScalerSpec
from .ensemble import Ensemble
from .errors import KernelcastError
from .modelsel import (Configuration, EvalOutcome, KmsModel, SearchReport,
                       best_entry_index, config_digest, json_int)
from .sampling import SAMPLER_KINDS, ReferenceSet, SamplingError

FORMAT_VERSION = 1


class FormatError(KernelcastError):
    """Unrecognized or malformed document."""


def _matrix(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def _score(value: float | None) -> float | None:
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _unscore(value) -> float:
    return math.inf if value is None else float(value)


def scaler_to_doc(spec: ScalerSpec) -> dict:
    return {
        "kind": spec.kind,
        "offset": _matrix(spec.offset),
        "scale": _matrix(spec.scale),
        "active": [bool(x) for x in spec.active],
    }


def scaler_from_doc(doc: dict) -> ScalerSpec:
    active = doc["active"]
    if not isinstance(active, list) or not all(isinstance(x, bool) for x in active):
        raise FormatError("scaler.active must be a list of true/false values")
    return ScalerSpec(doc["kind"], np.asarray(doc["offset"], dtype=np.float64),
                      np.asarray(doc["scale"], dtype=np.float64),
                      np.asarray(active, dtype=bool))


def refs_to_doc(refs: ReferenceSet) -> dict:
    return {
        "refs": _matrix(refs.refs),
        "sigmas": _matrix(refs.sigmas),
        "kind_used": refs.kind_used,
        "distance_used": refs.distance_used,
        "ref_type": refs.ref_type,
    }


def refs_from_doc(doc: dict) -> ReferenceSet:
    try:
        return ReferenceSet(np.asarray(doc["refs"], dtype=np.float64),
                            np.asarray(doc["sigmas"], dtype=np.float64),
                            doc["kind_used"], doc["distance_used"], doc["ref_type"])
    except SamplingError as exc:
        raise FormatError(f"references: {exc}") from None


def _inner_to_doc(inner) -> dict:
    if isinstance(inner, KnnModel):
        return {
            "kind": "knn",
            "features": _matrix(inner.features),
            "labels": [int(x) for x in inner.labels],
            "neighbors": inner.params.neighbors,
            "weighting": inner.params.weighting,
            "distance": inner.params.distance,
            "n_classes": inner.n_classes,
        }
    if isinstance(inner, GnbModel):
        return {
            "kind": "gnb",
            "class_ids": [int(x) for x in inner.class_ids],
            "priors": _matrix(inner.priors),
            "means": _matrix(inner.means),
            "variances": _matrix(inner.variances),
            "n_classes": inner.n_classes,
        }
    raise FormatError(f"cannot serialize inner model of type {type(inner).__name__}")


def _inner_from_doc(doc: dict):
    if doc["kind"] == "knn":
        params = KnnParams(json_int(doc["neighbors"], "inner.neighbors"), doc["weighting"],
                           doc["distance"])
        return KnnModel(np.asarray(doc["features"], dtype=np.float64),
                        np.asarray(doc["labels"], dtype=np.int64),
                        params, json_int(doc["n_classes"], "inner.n_classes"))
    if doc["kind"] == "gnb":
        return GnbModel(np.asarray(doc["class_ids"], dtype=np.int64),
                        np.asarray(doc["priors"], dtype=np.float64),
                        np.asarray(doc["means"], dtype=np.float64),
                        np.asarray(doc["variances"], dtype=np.float64),
                        json_int(doc["n_classes"], "inner.n_classes"))
    raise FormatError(f"unknown inner model kind {doc['kind']!r}")


def kms_to_doc(model: KmsModel) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "kms_model",
        "config": model.config.to_dict(),
        "scaler": scaler_to_doc(model.scaler),
        "references": refs_to_doc(model.refs),
        "inner": _inner_to_doc(model.inner),
        "label_names": list(model.label_names),
        "cv_ber": _score(model.cv_ber),
    }


def _check_model(model: KmsModel) -> None:
    """Cross-field checks, so a malformed model fails on load, not when predicting."""
    cfg, spec, refs, inner = model.config, model.scaler, model.refs, model.inner
    knn = isinstance(inner, KnnModel)
    repeated = [("scaler.kind", spec.kind, cfg.scaler),
                ("references.kind_used", refs.kind_used, cfg.sampler),
                ("references.distance_used", refs.distance_used, cfg.sampling_distance),
                ("references.ref_type", refs.ref_type, cfg.ref_type),
                ("inner.kind", "knn" if knn else "gnb", cfg.classifier)]
    if knn and cfg.knn is not None:
        repeated += [(f"inner.{name}", getattr(inner.params, name), getattr(cfg.knn, name))
                     for name in ("neighbors", "weighting", "distance")]
    for field, stored, configured in repeated:
        if stored != configured:
            raise FormatError(f"{field} {stored!r} does not match the config's {configured!r}")
    n_refs, width = refs.refs.shape
    n_classes = len(model.label_names)
    if inner.n_classes != n_classes:
        raise FormatError(f"inner.n_classes {inner.n_classes} does not match "
                          f"the {n_classes} label_names")
    if {spec.offset.shape, spec.scale.shape, spec.active.shape} != {(width,)}:
        raise FormatError(f"scaler width does not match the reference width {width}")
    if knn:
        matrix, matrix_field, ids, ids_field = inner.features, "features", inner.labels, "labels"
    else:
        matrix, matrix_field, ids, ids_field = inner.means, "means", inner.class_ids, "class_ids"
    if matrix.ndim != 2 or matrix.shape[1] != n_refs:
        raise FormatError(f"inner.{matrix_field} width does not match the {n_refs} references")
    if ids.shape != matrix.shape[:1]:
        raise FormatError(f"inner.{ids_field} count does not match the inner.{matrix_field} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= n_classes):
        raise FormatError(f"inner.{ids_field} outside [0, {n_classes})")
    if not knn and inner.priors.shape != ids.shape:
        raise FormatError("inner.priors count does not match the inner.class_ids count")
    if not knn and inner.variances.shape != matrix.shape:
        raise FormatError("inner.variances shape does not match the inner.means shape")
    # (field, values, bound): every value must be finite and above the bound
    checks = [("scaler.offset", spec.offset, -np.inf), ("scaler.scale", spec.scale, 0.0),
              (f"inner.{matrix_field}", matrix, -np.inf)]
    if not knn:
        checks += [("inner.priors", inner.priors, 0.0), ("inner.variances", inner.variances, 0.0)]
    for field, values, bound in checks:
        if not (np.isfinite(values) & (values > bound)).all():
            above = f" and > {bound:g}" if bound > -np.inf else ""
            raise FormatError(f"{field} must be finite{above}")
    if not knn and (inner.priors > 1.0).any():
        raise FormatError("inner.priors must be <= 1")


def _label_names(value) -> list[str]:
    """``value`` if it is a list of distinct strings; else a TypeError naming the field."""
    strings = type(value) is list and all(type(name) is str for name in value)
    if not strings or len(set(value)) != len(value):
        raise TypeError(f"field 'label_names' must be a list of distinct strings, got {value!r}")
    return value


def kms_from_doc(doc: dict) -> KmsModel:
    cv = doc.get("cv_ber")
    model = KmsModel(Configuration.from_dict(doc["config"]),
                     scaler_from_doc(doc["scaler"]),
                     refs_from_doc(doc["references"]),
                     _inner_from_doc(doc["inner"]),
                     _label_names(doc["label_names"]),
                     None if cv is None else float(cv))
    _check_model(model)
    return model


def ensemble_to_doc(ens: Ensemble) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "ensemble",
        "vote_seed": ens.vote_seed,
        "members": [kms_to_doc(m) for m in ens.members],
    }


def ensemble_from_doc(doc: dict) -> Ensemble:
    members = [kms_from_doc(m) for m in doc["members"]]
    if any(m.label_names != members[0].label_names for m in members):
        raise FormatError("ensemble members have different label_names")
    for i, member in enumerate(members):
        if member.scaler.offset.shape != members[0].scaler.offset.shape:
            raise FormatError(f"ensemble member {i} takes {member.scaler.offset.shape[0]} features, "
                              f"member 0 takes {members[0].scaler.offset.shape[0]}")
    vote_seed = json_int(doc["vote_seed"], "vote_seed")
    if vote_seed < 0:  # rand.derive takes non-negative seeds only
        raise FormatError(f"field 'vote_seed' must be a non-negative integer, got {vote_seed}")
    return Ensemble(members, vote_seed)


def report_to_doc(report: SearchReport) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "search_report",
        "master_seed": report.master_seed,
        "fold_count": report.fold_count,
        "scaler": report.scaler,
        "mode": report.mode,
        "sampler_filter": report.sampler_filter,
        "data_shape": list(report.data_shape),
        "fold_of": [int(x) for x in report.fold_of],
        "best_index": report.best_index,
        "evaluated": [
            {
                "config": e.config.to_dict(),
                "cv_ber": _score(e.cv_ber),
                "seed": e.seed,
                "wall_time": e.wall_time,
                "error": e.error,
            }
            for e in report.entries
        ],
    }


def _wall_time(value, i: int) -> float:
    # A chained comparison is false for NaN, and compares a huge integer exactly.
    if type(value) not in (int, float) or not 0.0 <= value <= float(np.finfo(np.float64).max):
        raise FormatError(f"search_report entry {i} field 'wall_time' must be a finite number >= 0")
    return float(value)


def report_from_doc(doc: dict) -> SearchReport:
    scaler, mode, sampler_filter = doc["scaler"], doc["mode"], doc["sampler_filter"]
    for name, value, kinds in (("scaler", scaler, SCALER_KINDS), ("mode", mode, ("random", "grid")),
                               ("sampler_filter", sampler_filter, (None, *SAMPLER_KINDS))):
        if value not in kinds:
            raise FormatError(f"search_report field {name!r} must be one of {kinds}, got {value!r}")
    entries = [
        EvalOutcome(Configuration.from_dict(e["config"]), _unscore(e["cv_ber"]),
                    json_int(e["seed"], "seed"), _wall_time(e["wall_time"], i), e.get("error"))
        for i, e in enumerate(doc["evaluated"])
    ]
    if not entries:
        raise FormatError("search_report field 'evaluated' is empty")
    if not all(e.cv_ber >= 0.0 for e in entries):  # also rejects NaN
        raise FormatError("search_report field 'cv_ber' must be null or a number >= 0")
    for i, (entry, e) in enumerate(zip(entries, doc["evaluated"])):
        if not isinstance(entry.error, (str, type(None))):
            raise FormatError(f"search_report entry {i} field 'error' must be null or a string")
        if (e["cv_ber"] is None) != (entry.error is not None):
            raise FormatError(f"search_report entry {i} field 'cv_ber' must be null "
                              f"exactly when its 'error' is set")
        if entry.config.scaler != scaler or sampler_filter not in (None, entry.config.sampler):
            raise FormatError(f"search_report entry {i} field 'config' must use the report's "
                              f"scaler and sampler filter")
        if entry.seed != config_digest(entry.config):
            raise FormatError(f"search_report entry {i} field 'seed' must be the digest of "
                              f"its 'config'")
    best = json_int(doc["best_index"], "best_index")
    if best != best_entry_index(entries):
        raise FormatError(f"best_index {best} is not the first entry with the lowest cv_ber")
    shape = doc["data_shape"]
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(x) is int and x >= 0 for x in shape)):
        raise FormatError("search_report field 'data_shape' must be three non-negative integers")
    fold_of = np.asarray(doc["fold_of"], dtype=np.int64)
    if fold_of.shape != (shape[0],):
        raise FormatError(f"search_report field 'fold_of' must hold one fold index for each "
                          f"of the {shape[0]} data rows")
    if not all(type(x) is int for x in doc["fold_of"]):
        raise FormatError("search_report field 'fold_of' must hold integers")
    present = np.unique(fold_of)
    if present.size < 2 or not np.array_equal(present, np.arange(present.size)):
        raise FormatError("search_report field 'fold_of' must use every fold index "
                          "0, 1, ..., k - 1 for some k >= 2")
    if json_int(doc["fold_count"], "fold_count") != present.size:
        raise FormatError(f"search_report field 'fold_count' {doc['fold_count']} does not "
                          f"match the {present.size} folds of 'fold_of'")
    return SearchReport(entries, best, json_int(doc["master_seed"], "master_seed"),
                        scaler, mode, sampler_filter, tuple(shape), fold_of)


_WRITERS = {
    KmsModel: kms_to_doc,
    Ensemble: ensemble_to_doc,
    SearchReport: report_to_doc,
}

_READERS = {
    "kms_model": kms_from_doc,
    "ensemble": ensemble_from_doc,
    "search_report": report_from_doc,
}


def _floats(values: list, depth: int, pad: str) -> str:
    """Nested lists of finite floats, ``depth`` deep, as ``json`` indents them."""
    if not values:
        return "[]"
    inner = pad + "  "
    if depth == 1:
        items = map(float.__repr__, values)
    else:
        items = [_floats(v, depth - 1, inner) for v in values]
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _dumps(value, pad: str = "\n") -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, also for arrays.

    ``pad`` is a newline plus the indent of the line ``value`` starts on.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return _floats(value.tolist(), value.ndim, pad)
        value = value.tolist()
    inner = pad + "  "
    if isinstance(value, dict):
        # json writes int, float, bool and None keys as their JSON text, quoted
        items = [encode_basestring_ascii(k if isinstance(k, str) else _dumps(k)) + ": "
                 + _dumps(v, inner) for k, v in sorted(value.items())]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = [_dumps(v, inner) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + pad + closing


def dumps(doc) -> str:
    """A JSON document as ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` writes it."""
    return _dumps(doc) + "\n"


def to_json(obj) -> str:
    """Serialize a model, ensemble, or report deterministically."""
    writer = _WRITERS.get(type(obj))
    if writer is None:
        raise FormatError(f"cannot serialize object of type {type(obj).__name__}")
    return dumps(writer(obj))


def from_json(text: str):
    """Parse any document written by to_json, dispatching on its kind.

    A missing field, a field of the wrong type or a document whose fields
    disagree raises FormatError.
    """
    return _from_doc(json.loads(text))


def _from_doc(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("document is missing its kind")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported document version {doc.get('version')!r}")
    reader = _READERS.get(doc["kind"]) if isinstance(doc["kind"], str) else None
    if reader is None:
        raise FormatError(f"unknown document kind {doc['kind']!r}")
    try:
        return reader(doc)
    except KeyError as exc:
        raise FormatError(f"{doc['kind']} document is missing field {exc.args[0]!r}") from None
    except FormatError:
        raise  # it names what is wrong already
    except (KernelcastError, AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{doc['kind']} document is malformed: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` atomically: a failed write leaves any previous file intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save(obj, path) -> None:
    """Write a document atomically: a failed save leaves any previous file intact."""
    write_text(path, to_json(obj))


def read_json(path):
    """Parse a JSON file; a file that is not JSON text raises FormatError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: not a JSON document: {exc}") from None


def load(path):
    """Read a document written by save."""
    return _from_doc(read_json(path))
