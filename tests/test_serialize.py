import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from kernelcast.classify import KnnParams
from kernelcast.ensemble import Ensemble, build_ensemble, ensemble_predict
from kernelcast.errors import KernelcastError
from kernelcast.modelsel import Configuration, KmsModel, kms_fit, pipeline_predict, random_search
from kernelcast.serialize import (FormatError, dumps, ensemble_to_doc, from_json,
                                  kms_to_doc, load, report_to_doc, save, to_json)
from synthdata import make_blobs


@pytest.fixture(scope="module")
def trained():
    ds = make_blobs(n_per_class=20, spread=0.5, gap=4.0, seed=0)
    report = random_search(ds, sample_size=10, seed=1)
    ens = build_ensemble(report, ds, ell=3, seed=2)
    return ds, report, ens


def test_ensemble_roundtrip_predicts_identically(trained):
    ds, _, ens = trained
    clone = from_json(to_json(ens))
    assert isinstance(clone, Ensemble)
    assert clone.vote_seed == ens.vote_seed
    assert clone.label_names == ens.label_names
    queries = np.random.default_rng(3).normal(size=(15, ds.dim))
    assert np.array_equal(ensemble_predict(clone, queries),
                          ensemble_predict(ens, queries))
    assert [m.cv_ber for m in clone.members] == [m.cv_ber for m in ens.members]


def test_save_load_file_identity(trained, tmp_path):
    _, report, _ = trained
    path = tmp_path / "report.json"
    save(report, path)
    clone = load(path)
    assert to_json(clone) == to_json(report)


def test_failed_save_keeps_previous_file(trained, tmp_path, monkeypatch):
    _, report, ens = trained
    path = tmp_path / "report.json"
    save(report, path)
    before = path.read_bytes()
    with pytest.raises(FormatError):
        save(object(), path)

    def interrupted(src, dst):
        raise OSError("simulated failure before the rename")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="simulated"):
        save(ens, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_json_is_stable_text(trained):
    _, report, _ = trained
    text = to_json(report)
    assert text.endswith("\n")
    assert text == to_json(from_json(text))
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", 1j, object()])
def test_dumps_rejects_what_json_cannot_hold_as_json_does(value):
    doc = {"kind": "x", "rows": [[1.0, 2.0], {"bad": value}]}
    with pytest.raises(TypeError) as stdlib:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError, match="is not JSON serializable$") as ours:
        dumps(doc)
    assert str(ours.value) == str(stdlib.value)


def test_rejects_unknown_kind():
    with pytest.raises(FormatError):
        from_json(json.dumps({"version": 1, "kind": "mystery"}))


def test_rejects_missing_kind():
    with pytest.raises(FormatError):
        from_json(json.dumps({"version": 1}))


def test_rejects_future_version():
    with pytest.raises(FormatError):
        from_json(json.dumps({"version": 99, "kind": "kms_model"}))


def test_rejects_unsupported_object():
    with pytest.raises(FormatError):
        to_json({"plain": "dict"})


def model_doc(ds, classifier):
    knn = KnnParams(3, "uniform", "euclidean") if classifier == "knn" else None
    cfg = Configuration(4, "euclidean", "random", "gaussian", "centers", classifier, knn)
    return json.loads(to_json(kms_fit(cfg, ds, 0)))


@pytest.mark.parametrize("classifier", ["knn", "gnb"])
def test_model_roundtrip_is_identity(trained, classifier):
    text = json.dumps(model_doc(trained[0], classifier), sort_keys=True, indent=2) + "\n"
    assert to_json(from_json(text)) == text


def drop_sigmas(doc):
    del doc["references"]["sigmas"]


def set_n_classes(doc):
    doc["inner"]["n_classes"] = 7


def widen_scaler(doc):
    doc["scaler"]["offset"].append(0.0)


def narrow_features(doc):
    doc["inner"]["features"] = [row[:-1] for row in doc["inner"]["features"]]


def narrow_means(doc):
    doc["inner"]["means"] = [row[:-1] for row in doc["inner"]["means"]]


def drop_label(doc):
    doc["inner"]["labels"].pop()


def drop_class_id(doc):
    doc["inner"]["class_ids"].pop()


def label_out_of_range(doc):
    doc["inner"]["labels"][0] = 2


def class_id_out_of_range(doc):
    doc["inner"]["class_ids"][-1] = -1


def drop_prior(doc):
    doc["inner"]["priors"].pop()


def drop_variance_row(doc):
    doc["inner"]["variances"].pop()


def extra_sigma(doc):
    doc["references"]["sigmas"].append(1.0)


def setting(name, path, value):
    """An edit that sets the field at ``path`` (a key/index sequence) to ``value``."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    edit.__name__ = name
    return edit


def knn_config_over_gnb(doc):
    knn = {"neighbors": 3, "weighting": "uniform", "distance": "euclidean"}
    doc["config"].update(classifier="knn", knn=knn)


def gnb_config_over_knn(doc):
    doc["config"].update(classifier="gnb", knn=None)


BAD_MODELS = [
    ("knn", drop_sigmas, "kms_model document is missing field 'sigmas'"),
    ("knn", set_n_classes, "inner.n_classes 7 does not match the 2 label_names"),
    ("gnb", set_n_classes, "inner.n_classes 7 does not match the 2 label_names"),
    ("gnb", widen_scaler, "scaler width does not match the reference width 2"),
    ("knn", narrow_features, "inner.features width does not match the 4 references"),
    ("gnb", narrow_means, "inner.means width does not match the 4 references"),
    ("knn", drop_label, "inner.labels count does not match the inner.features rows"),
    ("gnb", drop_class_id, "inner.class_ids count does not match the inner.means rows"),
    ("knn", label_out_of_range, r"inner.labels outside \[0, 2\)"),
    ("gnb", class_id_out_of_range, r"inner.class_ids outside \[0, 2\)"),
    ("gnb", drop_prior, "inner.priors count does not match the inner.class_ids count"),
    ("gnb", drop_variance_row, "inner.variances shape does not match the inner.means shape"),
    ("knn", setting("string_active", ("scaler", "active", 0), "no"),
     "scaler.active must be a list of true/false values"),
    ("gnb", setting("numeric_active", ("scaler", "active", 1), 0),
     "scaler.active must be a list of true/false values"),
    # impossible numbers
    ("gnb", setting("zero_variance", ("inner", "variances", 0, 1), 0.0),
     "inner.variances must be finite and > 0"),
    ("gnb", setting("negative_variance", ("inner", "variances", 1, 0), -1.0),
     "inner.variances must be finite and > 0"),
    ("gnb", setting("negative_prior", ("inner", "priors", 0), -1.0),
     "inner.priors must be finite and > 0"),
    ("gnb", setting("prior_above_one", ("inner", "priors", 1), 1.5), "inner.priors must be <= 1"),
    ("gnb", setting("zero_scale", ("scaler", "scale", 0), 0.0),
     "scaler.scale must be finite and > 0"),
    ("knn", setting("infinite_scale", ("scaler", "scale", 1), float("inf")),
     "scaler.scale must be finite and > 0"),
    ("knn", setting("nan_offset", ("scaler", "offset", 0), float("nan")),
     "scaler.offset must be finite"),
    ("gnb", setting("nan_reference", ("references", "refs", 2, 0), float("nan")),
     "references: refs must be finite"),
    ("knn", setting("nan_sigma", ("references", "sigmas", 0), float("nan")),
     "references: sigmas must be finite and strictly positive"),
    # reference sets that no sampler makes
    ("gnb", setting("no_references", ("references", "refs"), []),
     "^references: reference set must hold at least one row vector$"),
    ("knn", extra_sigma, "^references: need exactly one sigma per reference$"),
    ("knn", setting("unknown_kind_used", ("references", "kind_used"), "grid"),
     "^references: unknown sampler kind 'grid'$"),
    ("gnb", setting("unknown_distance_used", ("references", "distance_used"), "manhattan"),
     "^references: unknown distance 'manhattan'$"),
    ("knn", setting("unknown_ref_type", ("references", "ref_type"), "medoids"),
     "^references: unknown reference type 'medoids'$"),
    ("knn", setting("infinite_feature", ("inner", "features", 0, 0), float("inf")),
     "inner.features must be finite"),
    ("gnb", setting("nan_mean", ("inner", "means", 1, 3), float("nan")),
     "inner.means must be finite"),
    ("gnb", setting("nan_prior", ("inner", "priors", 0), float("nan")),
     "inner.priors must be finite and > 0"),
    # fields repeated from the config that disagree with it
    ("gnb", knn_config_over_gnb, "inner.kind 'gnb' does not match the config's 'knn'"),
    ("knn", gnb_config_over_knn, "inner.kind 'knn' does not match the config's 'gnb'"),
    ("gnb", setting("scaler_kind", ("scaler", "kind"), "minmax"),
     "scaler.kind 'minmax' does not match the config's 'none'"),
    ("knn", setting("kind_used", ("references", "kind_used"), "fft"),
     "references.kind_used 'fft' does not match the config's 'random'"),
    ("knn", setting("distance_used", ("references", "distance_used"), "angle"),
     "references.distance_used 'angle' does not match the config's 'euclidean'"),
    ("gnb", setting("ref_type", ("references", "ref_type"), "centroids"),
     "references.ref_type 'centroids' does not match the config's 'centers'"),
    ("knn", setting("neighbors", ("inner", "neighbors"), 5),
     "inner.neighbors 5 does not match the config's 3"),
    ("knn", setting("weighting", ("inner", "weighting"), "distance"),
     "inner.weighting 'distance' does not match the config's 'uniform'"),
    ("knn", setting("knn_distance", ("config", "knn", "distance"), "angle"),
     "inner.distance 'euclidean' does not match the config's 'angle'"),
    # integer fields holding floats or booleans
    ("gnb", setting("float_k_references", ("config", "k_references"), 4.9),
     "field 'k_references' must be an integer, got 4.9"),
    ("knn", setting("float_neighbors", ("inner", "neighbors"), 3.5),
     "field 'inner.neighbors' must be an integer, got 3.5"),
    ("gnb", setting("true_n_classes", ("inner", "n_classes"), True),
     "field 'inner.n_classes' must be an integer, got True"),
    # label names that are not a list of distinct strings
    ("gnb", setting("integer_label_names", ("label_names",), [1, 2]),
     r"field 'label_names' must be a list of distinct strings, got \[1, 2\]$"),
    ("knn", setting("null_label_name", ("label_names",), ["a", None]),
     "field 'label_names' must be a list of distinct strings"),
    ("gnb", setting("string_label_names", ("label_names",), "xy"),
     "field 'label_names' must be a list of distinct strings, got 'xy'$"),
    ("knn", setting("repeated_label_names", ("label_names",), ["x", "x"]),
     "field 'label_names' must be a list of distinct strings"),
]


@pytest.mark.parametrize("classifier,edit,message", BAD_MODELS,
                         ids=[f"{c}-{edit.__name__}" for c, edit, _ in BAD_MODELS])
def test_rejects_inconsistent_model_on_load(trained, classifier, edit, message):
    doc = model_doc(trained[0], classifier)
    edit(doc)
    with pytest.raises(FormatError, match=message):
        from_json(json.dumps(doc))


def test_rejects_ensemble_members_with_different_label_names(trained):
    doc = json.loads(to_json(trained[2]))
    doc["members"][1]["label_names"] = ["c1", "c0"]
    with pytest.raises(FormatError, match="different label_names"):
        from_json(json.dumps(doc))


def test_rejects_a_negative_vote_seed(trained):
    # rand.derive would refuse it at the first tied vote, deep inside predict.
    doc = json.loads(to_json(trained[2]))
    doc["vote_seed"] = -1
    with pytest.raises(FormatError, match="^field 'vote_seed' must be a non-negative integer, "
                                          "got -1$"):
        from_json(json.dumps(doc))
    for seed in (0, 2 ** 70):
        doc["vote_seed"] = seed
        assert from_json(json.dumps(doc)).vote_seed == seed


def test_rejects_ensemble_members_of_different_widths(trained):
    doc = json.loads(to_json(trained[2]))
    wider = make_blobs(n_per_class=20, spread=0.5, gap=4.0, dim=3, seed=0)
    doc["members"][2] = model_doc(wider, "gnb")
    with pytest.raises(FormatError, match="^ensemble member 2 takes 3 features, member 0 takes 2$"):
        from_json(json.dumps(doc))


def report_doc(report, cv_bers, best_index):
    """``report``'s document with these scores: an entry scored None failed, the others did not."""
    doc = json.loads(to_json(report))
    for entry, cv_ber in zip(doc["evaluated"], cv_bers):
        entry["cv_ber"] = cv_ber
        entry["error"] = "failed" if cv_ber is None else None
    doc["best_index"] = best_index
    return doc


def test_rejects_report_without_entries(trained):
    doc = json.loads(to_json(trained[1]))
    doc["evaluated"] = []
    with pytest.raises(FormatError, match="field 'evaluated' is empty"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("cv_ber", [float("nan"), -5.0])
def test_rejects_report_with_invalid_cv_ber(trained, cv_ber):
    doc = report_doc(trained[1], [0.4, cv_ber], 0)
    with pytest.raises(FormatError, match="field 'cv_ber' must be null or a number >= 0"):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("best_index", [999, -1, 3])
def test_rejects_report_whose_best_index_is_not_the_best_entry(trained, best_index):
    # entries 1 and 3 tie on the lowest cv_ber; the first of them is the best
    cv_bers = [0.4, 0.0, None, 0.0] + [0.4] * 6
    from_json(json.dumps(report_doc(trained[1], cv_bers, 1)))
    doc = report_doc(trained[1], cv_bers, best_index)
    with pytest.raises(FormatError, match=f"best_index {best_index} is not"):
        from_json(json.dumps(doc))


FORGED_ENTRIES = [
    ("wall_time", "nan", "field 'wall_time' must be a finite number >= 0"),
    ("wall_time", True, "field 'wall_time' must be a finite number >= 0"),
    ("wall_time", -1.0, "field 'wall_time' must be a finite number >= 0"),
    ("wall_time", float("inf"), "field 'wall_time' must be a finite number >= 0"),
    ("wall_time", None, "field 'wall_time' must be a finite number >= 0"),
    ("wall_time", 10 ** 400, "field 'wall_time' must be a finite number >= 0"),
    ("seed", 12345, "field 'seed' must be the digest of its 'config'"),
    ("seed", "entry 0", "field 'seed' must be the digest of its 'config'"),
]


@pytest.mark.parametrize("field,value,message", FORGED_ENTRIES,
                         ids=[f"{field}={value!r:.12}" for field, value, _ in FORGED_ENTRIES])
def test_rejects_report_entry_with_forged_wall_time_or_seed(trained, field, value, message):
    doc = json.loads(to_json(trained[1]))
    doc["evaluated"][3]["wall_time"] = 2  # any finite JSON number >= 0 loads
    assert from_json(json.dumps(doc)).entries[3].wall_time == 2.0
    if value == "entry 0":  # the digest of another entry's configuration
        value = doc["evaluated"][0]["seed"]
    doc["evaluated"][3][field] = value
    with pytest.raises(FormatError, match=f"^search_report entry 3 {message}$"):
        from_json(json.dumps(doc))


def relabel_fold(old, new):
    def edit(doc):
        doc["fold_of"] = [new if f == old else f for f in doc["fold_of"]]
    edit.__name__ = f"fold_{old}_as_{new}"
    return edit


BAD_REPORTS = [
    (setting("fold_count_99", ("fold_count",), 99),
     "field 'fold_count' 99 does not match the 3 folds of 'fold_of'"),
    (setting("fold_count_2", ("fold_count",), 2),
     "field 'fold_count' 2 does not match the 3 folds of 'fold_of'"),
    (setting("one_fold_of", ("fold_of",), [0]),
     "'fold_of' must hold one fold index for each of the 40"),
    (setting("nested_fold_of", ("fold_of",), [[0, 1]] * 40),
     "'fold_of' must hold one fold index for each of the 40"),
    (relabel_fold(1, 2), "field 'fold_of' must use every fold index"),
    (relabel_fold(0, -1), "field 'fold_of' must use every fold index"),
    (setting("single_fold", ("fold_of",), [0] * 40), "field 'fold_of' must use every fold index"),
    (setting("string_shape", ("data_shape",), "abc"), "field 'data_shape' must be three"),
    (setting("short_shape", ("data_shape",), [40, 2]), "field 'data_shape' must be three"),
    (setting("negative_shape", ("data_shape", 1), -2), "field 'data_shape' must be three"),
    (setting("float_shape", ("data_shape", 0), 40.0), "field 'data_shape' must be three"),
]


@pytest.mark.parametrize("edit,message", BAD_REPORTS, ids=[edit.__name__ for edit, _ in BAD_REPORTS])
def test_rejects_report_whose_folds_or_shape_disagree(trained, edit, message):
    doc = json.loads(to_json(trained[1]))
    assert doc["data_shape"] == [40, 2, 2] and doc["fold_count"] == 3
    edit(doc)
    with pytest.raises(FormatError, match=message):
        from_json(json.dumps(doc))


# The trained report: random search, scaler "none", no sampler filter; entry 0
# samples with fft and scores, entry 1 samples with density and failed.
CONTRADICTIONS = [
    (setting("unknown_scaler", ("scaler",), "bogus"),
     r"^search_report field 'scaler' must be one of \('none', .*\), got 'bogus'$"),
    (setting("integer_mode", ("mode",), 7),
     r"^search_report field 'mode' must be one of \('random', 'grid'\), got 7$"),
    (setting("list_sampler_filter", ("sampler_filter",), ["z"]),
     r"^search_report field 'sampler_filter' must be one of \(None, .*\), got \['z'\]$"),
    (setting("object_error", ("evaluated", 0, "error"), {"x": 1}),
     "^search_report entry 0 field 'error' must be null or a string$"),
    (setting("null_cv_ber_without_error", ("evaluated", 0, "cv_ber"), None),
     "^search_report entry 0 field 'cv_ber' must be null exactly when its 'error' is set$"),
    (setting("cv_ber_with_error", ("evaluated", 1, "cv_ber"), 0.5),
     "^search_report entry 1 field 'cv_ber' must be null exactly when its 'error' is set$"),
    (setting("other_config_scaler", ("evaluated", 0, "config", "scaler"), "standardize"),
     "^search_report entry 0 field 'config' must use the report's scaler and sampler filter$"),
    (setting("sampler_filter_fft", ("sampler_filter",), "fft"),
     "^search_report entry 1 field 'config' must use the report's scaler and sampler filter$"),
]


@pytest.mark.parametrize("edit,message", CONTRADICTIONS,
                         ids=[edit.__name__ for edit, _ in CONTRADICTIONS])
def test_rejects_report_that_contradicts_itself(trained, edit, message):
    doc = json.loads(to_json(trained[1]))
    entries = doc["evaluated"]
    assert (doc["scaler"], doc["mode"], doc["sampler_filter"]) == ("none", "random", None)
    assert entries[0]["error"] is None and entries[1]["error"] is not None
    assert [entries[i]["config"]["sampler"] for i in (0, 1)] == ["fft", "density"]
    edit(doc)
    with pytest.raises(FormatError, match=message):
        from_json(json.dumps(doc))


def raise_folds(doc):
    doc["fold_of"] = [f + 0.7 for f in doc["fold_of"]]


def boolean_folds(doc):
    doc["fold_of"] = [bool(f) for f in doc["fold_of"]]


def first_knn_neighbors(value):
    def edit(doc):
        entry = next(e for e in doc["evaluated"] if e["config"]["knn"] is not None)
        entry["config"]["knn"]["neighbors"] = value
    edit.__name__ = f"knn_neighbors_{value}"
    return edit


# integer fields holding floats or booleans, which int() would truncate
NON_INTEGERS = [
    (raise_folds, "field 'fold_of' must hold integers"),
    (boolean_folds, "field 'fold_of' must hold integers"),
    (setting("float_fold_count", ("fold_count",), 3.0), "field 'fold_count' must be an integer"),
    (setting("float_best_index", ("best_index",), 0.0), "field 'best_index' must be an integer"),
    (setting("true_best_index", ("best_index",), True), "field 'best_index' must be an integer"),
    (setting("float_master_seed", ("master_seed",), 1.5), "field 'master_seed' must be an integer"),
    (setting("float_seed", ("evaluated", 0, "seed"), 7.0), "field 'seed' must be an integer"),
    (setting("float_k_references", ("evaluated", 0, "config", "k_references"), 4.9),
     "field 'k_references' must be an integer, got 4.9"),
    (setting("true_k_references", ("evaluated", 0, "config", "k_references"), True),
     "field 'k_references' must be an integer, got True"),
    (first_knn_neighbors(3.5), "field 'knn.neighbors' must be an integer, got 3.5"),
]


@pytest.mark.parametrize("edit,message", NON_INTEGERS,
                         ids=[edit.__name__ for edit, _ in NON_INTEGERS])
def test_rejects_report_whose_integer_fields_are_not_integers(trained, edit, message):
    doc = json.loads(to_json(trained[1]))
    edit(doc)
    with pytest.raises(FormatError, match=message):
        from_json(json.dumps(doc))


# documents whose structure, not their numbers, is wrong
MALFORMED = [
    ("ensemble", setting("int_members", ("members",), 5)),
    ("ensemble", setting("list_inner", ("members", 0, "inner"), [])),
    ("ensemble", setting("list_config", ("members", 0, "config"), [])),
    ("ensemble", setting("int_label_names", ("members", 0, "label_names"), 3)),
    ("ensemble", setting("string_vote_seed", ("vote_seed",), "x")),
    ("ensemble", setting("float_vote_seed", ("vote_seed",), 2.5)),
    ("search_report", setting("int_evaluated", ("evaluated",), 3)),
    ("search_report", setting("string_fold_of", ("fold_of",), "abc")),
]


@pytest.mark.parametrize("kind,edit", MALFORMED, ids=[edit.__name__ for _, edit in MALFORMED])
def test_malformed_structure_raises_format_error_naming_the_kind(trained, kind, edit):
    doc = json.loads(to_json(trained[2] if kind == "ensemble" else trained[1]))
    edit(doc)
    with pytest.raises(FormatError, match=f"^{kind} document is malformed: "):
        from_json(json.dumps(doc))


def stdlib_text(doc):
    """What ``json.dumps`` writes for ``doc`` once its arrays are plain lists."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return type(value)(map(plain, value))
        return value
    return json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


ODD_NAMES = ["caf\u00e9 \u2603", "tab\tbell\x07 nul\x00", 'quote" back\\slash /']


@pytest.mark.parametrize("kind", ["knn_model", "gnb_model", "ensemble", "search_report"])
def test_documents_are_the_stdlib_text(trained, kind):
    ds, report, ens = trained
    if kind == "ensemble":
        obj, doc = ens, ensemble_to_doc(ens)
    elif kind == "search_report":
        obj, doc = report, report_to_doc(report)
    else:
        classifier = kind.split("_")[0]
        knn = KnnParams(3, "distance", "angle") if classifier == "knn" else None
        cfg = Configuration(4, "euclidean", "fft", "cauchy", "centers", classifier, knn)
        obj = kms_fit(cfg, dataclasses.replace(ds, label_names=ODD_NAMES[:2]), 0)
        doc = kms_to_doc(obj)
    assert to_json(obj) == stdlib_text(doc)


# Where float repr switches notation (1e-05, 0.0001, 1e+16), signed zero,
# subnormals and the extremes of float64
FLOATS = [0.0, -0.0, 1e-5, 1e-4, 0.00012345, 1e16, 9999999999999998.0, 1.5e300,
          5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308, 1.7976931348623157e308,
          -2.5, 0.1 + 0.2]
HAND_BUILT = {
    "finite": {"list": FLOATS, "vector": np.array(FLOATS),
               "matrix": np.array(FLOATS).reshape(2, 7), "numpy_scalar": np.float64(0.1)},
    "non_finite": {"scalars": [float("nan"), float("inf"), -float("inf")],
                   "vector": np.array([1.0, float("nan"), 5e-324]),
                   "matrix": np.array([[1e16, float("inf")], [-float("inf"), -0.0]])},
    "empty": {"vector": np.zeros(0), "no_columns": np.zeros((3, 0)), "no_rows": np.zeros((0, 4)),
              "list": [], "dict": {}, "nested": [[], {}, (), [[]]]},
    "strings": {"label_names": ODD_NAMES, "caf\u00e9 key": "\x1f\x7f\u0080\U0001f600",
                "": ""},
    "tuples": {"shape": (3, 0, 2), "pairs": [(1, "a"), (np.zeros(2), None)],
               "mixed": (None, True, False, 7, -3, 2 ** 70)},
    "keys": {"ints": {10: "a", 2: "b"}, "floats": {1e-5: 1, 0.5: 2}, "constants": {True: 1, False: 0},
             "none": {None: []}},
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_documents_are_the_stdlib_text(name):
    assert dumps(HAND_BUILT[name]) == stdlib_text(HAND_BUILT[name])


def test_an_unknown_inner_model_kind_fails_to_load():
    ds = make_blobs(n_per_class=10, spread=0.3, seed=4)
    cfg = Configuration.from_dict({"k_references": 4, "sampling_distance": "euclidean",
                                   "sampler": "random", "kernel": "gaussian",
                                   "ref_type": "centers", "classifier": "gnb", "knn": None})
    doc = json.loads(to_json(kms_fit(cfg, ds, seed=0)))
    doc["inner"]["kind"] = "svm"
    with pytest.raises(FormatError, match="^unknown inner model kind 'svm'$"):
        from_json(json.dumps(doc))


def test_an_unknown_inner_model_type_fails_to_save():
    ds = make_blobs(n_per_class=10, spread=0.3, seed=4)
    cfg = Configuration.from_dict({"k_references": 4, "sampling_distance": "euclidean",
                                   "sampler": "random", "kernel": "gaussian",
                                   "ref_type": "centers", "classifier": "gnb", "knn": None})
    model = dataclasses.replace(kms_fit(cfg, ds, seed=0), inner=object())
    with pytest.raises(FormatError, match="^cannot serialize inner model of type object$"):
        to_json(model)


# ------------------------------------------------- mutated documents
#
# Every document a user hands the package either loads or fails with a
# FormatError; a loaded one then predicts failing with nothing but the
# package's own errors.

@pytest.mark.parametrize("kind", [["kms_model"], {"kms_model": 1}])
def test_a_kind_that_is_not_a_string_is_unknown(trained, kind):
    doc = json.loads(to_json(trained[2]))
    doc["kind"] = kind
    with pytest.raises(FormatError, match="^unknown document kind "):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("classifier,field", [("gnb", "class_ids"), ("knn", "labels")])
def test_an_id_too_large_for_an_integer_is_malformed(trained, classifier, field):
    doc = model_doc(trained[0], classifier)
    doc["inner"][field][0] = 1e308
    with pytest.raises(FormatError, match="^kms_model document is malformed: "):
        from_json(json.dumps(doc))


MUTANT_VALUES = [None, True, False, 0, -1, 10 ** 6, 1e308, 1e-320, -0.0, float("nan"), "x", "",
                 [], [1], {}, {"a": 1}]


def value_paths(node, at=()):
    """Every path into a document; long lists contribute their first three items and the last."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(node, dict) or key < 3 or key == len(node) - 1:
            yield from value_paths(value, (*at, key))


def mutated(doc, rng):
    """A copy of ``doc`` with one key deleted, one list's last item dropped or
    repeated, or one value replaced from MUTANT_VALUES."""
    doc = json.loads(json.dumps(doc))
    paths = list(value_paths(doc))[1:]
    path = paths[rng.integers(len(paths))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, how = path[-1], rng.integers(3)
    if how == 0 and isinstance(parent, dict):
        del parent[key]
    elif how == 1 and isinstance(parent[key], list) and parent[key]:
        items = parent[key]
        if rng.integers(2):
            items.pop()
        else:
            items.append(items[-1])
    else:
        parent[key] = MUTANT_VALUES[rng.integers(len(MUTANT_VALUES))]
    return doc


def predict_with(obj, ds, queries):
    """Predict with a loaded model or ensemble; a report trains a model and a 3-member ensemble."""
    if isinstance(obj, KmsModel):
        return pipeline_predict(obj, queries), len(obj.label_names)
    if not isinstance(obj, Ensemble):
        kms_fit(obj.best.config, ds, 3)
        obj = build_ensemble(obj, ds, ell=3, seed=4)
    return ensemble_predict(obj, queries), len(obj.label_names)


def test_mutated_documents_fail_to_load_or_predict_cleanly():
    ds = make_blobs(n_per_class=12, spread=0.6, gap=3.0, seed=0)
    report = random_search(ds, sample_size=8, seed=1)
    docs = [model_doc(ds, "gnb"), json.loads(to_json(kms_fit(
                Configuration(4, "euclidean", "random", "gaussian", "centers", "knn",
                              KnnParams(3, "distance", "angle")), ds, 0))),
            ensemble_to_doc(build_ensemble(report, ds, ell=3, seed=2)), report_to_doc(report)]
    docs = [json.loads(dumps(doc)) for doc in docs]
    queries = np.random.default_rng(0).normal(size=(9, ds.dim))
    rng = np.random.default_rng(5)
    outcomes = {"format": 0, "domain": 0, "predicted": 0}
    for _ in range(2500):
        text = json.dumps(mutated(docs[rng.integers(len(docs))], rng))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NaN and overflow in predictions
            try:
                obj = from_json(text)
            except FormatError:
                outcomes["format"] += 1
                continue
            try:
                predicted, n_classes = predict_with(obj, ds, queries)
            except KernelcastError:
                outcomes["domain"] += 1
                continue
        assert predicted.min() >= 0 and predicted.max() < n_classes, text
        outcomes["predicted"] += 1
    assert outcomes["format"] >= 100 and outcomes["predicted"] >= 100, outcomes
