import kernelcast
from synthdata import make_blobs


def test_every_exported_name_resolves():
    assert len(set(kernelcast.__all__)) == len(kernelcast.__all__)
    assert [name for name in kernelcast.__all__ if not hasattr(kernelcast, name)] == []


def test_one_configuration_scores_through_top_level_names_as_the_search_scored_it():
    ds = make_blobs(n_per_class=20, spread=0.9, gap=2.0, seed=20)
    report = kernelcast.random_search(ds, sample_size=12, fold_count=3, seed=8)
    entry = next(e for e in report.entries if e.error is None)
    fold_of = kernelcast.make_folds(ds, 3, 8)
    assert fold_of.tolist() == report.fold_of.tolist()
    folds = kernelcast.prepare_folds(ds, fold_of, "none")
    references = kernelcast.stage_references(entry.config, folds, 8)
    stage = kernelcast.Stage([entry.config], references)
    assert kernelcast.evaluate_config(entry.config, folds, stage) == entry.cv_ber
