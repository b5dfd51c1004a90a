"""Golden prediction digests for every kNN variant of the grid.

One fixed reference stage on banana (400 training rows, 4,900 held out);
each of the 4 neighbour counts x 2 weightings x 2 distances predicts the
held-out rows, and the SHA-256 of the int64 predictions must match the
digest recorded before the neighbour search was rewritten.  Any change in
neighbour ranks, rank ties or the inverse-distance weights that flips a
single prediction changes a digest.
"""

import hashlib

import pytest

from kernelcast.classify import KnnParams
from kernelcast.modelsel import (KNN_NEIGHBOR_CHOICES, Configuration,
                                 fit_pipeline, pipeline_predict)
from synthdata import benchmark_splits, make_banana_pool

GOLDEN = {
    (1, "uniform", "euclidean"): "74841fdab84aae404e09bc2f8ce254fce01d1dc2ccd41b04f0139fa5da5d1d0f",
    (1, "uniform", "angle"): "f7e011c63a6a70304e94627782af41fae1e304e74426cdb663a517b644003e6e",
    (1, "distance", "euclidean"): "74841fdab84aae404e09bc2f8ce254fce01d1dc2ccd41b04f0139fa5da5d1d0f",
    (1, "distance", "angle"): "f7e011c63a6a70304e94627782af41fae1e304e74426cdb663a517b644003e6e",
    (5, "uniform", "euclidean"): "9413ae334ad7b8c5c76931ee030495b3b55911e82c17844580cf1776dd79b393",
    (5, "uniform", "angle"): "f30031ab295d0bfd966d749ec25df7b81ef2a8f48ea7a8ee924de5870d085cba",
    (5, "distance", "euclidean"): "fc94d81db69d1e9ee9d52ef95c7146d2e9a32a61334494778af0964229ee26ca",
    (5, "distance", "angle"): "793bd62ae8690cf92b6140d3a55c1d50f0bf8c47bf349d942041106095431f25",
    (11, "uniform", "euclidean"): "1b188ff01f360854be4629bd6dccdc622a77b1ebf4938f635796fcf161626004",
    (11, "uniform", "angle"): "e628e8597f2d09d2a9fc05007af8529ea24771d99ebaa0f1bf8f1f063f195d0d",
    (11, "distance", "euclidean"): "f22f0e01e6631a982ecdc48051b1939f5b8c3013cfad8c0cea208de34e28d3e3",
    (11, "distance", "angle"): "d1042567fa9f320aa49aa21cbeb5d32653b6d5414a93e5392225e73f3935f85e",
    (21, "uniform", "euclidean"): "ff2d97dd45f7de215023f750429085975c34f13b255b6af8b5dc17e4d905f776",
    (21, "uniform", "angle"): "393b0b2ffde287cd4632f46a56b7b549cb9dec25315d868fb01765a448b12c73",
    (21, "distance", "euclidean"): "c004aa22a9d77ee9b17ee1a2447034c2be6d9afb77146110d3bb7a46e868142a",
    (21, "distance", "angle"): "8f0a6e4639fd53d378850653ef591bc88e48fa47acf8f0017e6c9f4fa3477d9e",
}


@pytest.fixture(scope="module")
def banana():
    return benchmark_splits(make_banana_pool(), 1, 400)[0]


@pytest.mark.parametrize("neighbors", KNN_NEIGHBOR_CHOICES)
@pytest.mark.parametrize("weighting", ["uniform", "distance"])
@pytest.mark.parametrize("distance", ["euclidean", "angle"])
def test_knn_predictions_match_golden_digest(banana, neighbors, weighting, distance):
    train, test = banana
    cfg = Configuration(16, "euclidean", "random", "gaussian", "centers", "knn",
                        KnnParams(neighbors, weighting, distance))
    predicted = pipeline_predict(fit_pipeline(cfg, train, seed=11), test.features)
    digest = hashlib.sha256(predicted.astype("<i8").tobytes()).hexdigest()
    assert digest == GOLDEN[(neighbors, weighting, distance)]
