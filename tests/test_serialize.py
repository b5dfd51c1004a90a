import json
import os

import numpy as np
import pytest

from kernelcast.data import Dataset
from kernelcast.ensemble import Ensemble, build_ensemble, ensemble_predict
from kernelcast.modelsel import random_search
from kernelcast.serialize import (FormatError, from_json, load, save,
                                  to_json)
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
    queries = Dataset(np.random.default_rng(3).normal(size=(15, ds.dim)),
                      None, ds.label_names)
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
