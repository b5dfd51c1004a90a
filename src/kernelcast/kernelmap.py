"""Kernel feature mapping.

A sample x becomes the vector of kernel responses to each reference point:
column j of the mapped matrix is kernel(d(x, c_j), sigma_j).  The mapped
space has one dimension per reference.
"""

from __future__ import annotations

import numpy as np

from . import errors, geometry
from .data import Dataset
from .sampling import ReferenceSet

KERNEL_KINDS = ("linear", "gaussian", "sigmoid", "cauchy")

# exp() saturates rather than overflows: arguments are clamped to this range.
_EXP_CLAMP = 700.0


class KernelError(errors.KernelcastError):
    """Invalid kernel parameters."""


def kernel_matrix(kind: str, dists: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Apply one kernel columnwise to a distance matrix.

    kinds:
      linear   k(d, s) = d
      gaussian k(d, s) = exp(-d / s)
      sigmoid  k(d, s) = 1 / (1 + exp(s - d))   (increases with distance)
      cauchy   k(d, s) = 1 / (1 + d / s)
    """
    if kind not in KERNEL_KINDS:
        raise KernelError(f"unknown kernel {kind!r}; expected one of {KERNEL_KINDS}")
    dists = np.asarray(dists, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if not np.isfinite(sigmas).all() or (sigmas <= 0.0).any():
        raise KernelError("sigma must be finite and strictly positive")
    if kind == "linear":
        return dists.copy()
    if kind == "gaussian":
        return np.exp(np.clip(-dists / sigmas, -_EXP_CLAMP, _EXP_CLAMP))
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(np.clip(sigmas - dists, -_EXP_CLAMP, _EXP_CLAMP)))
    return 1.0 / (1.0 + dists / sigmas)


def map_matrix(features: np.ndarray, refs: ReferenceSet, kernel: str,
               dists: np.ndarray | None = None) -> np.ndarray:
    """Map a raw feature matrix into kernel space against a reference set.

    ``dists`` are the rows' ``pairwise`` distances to the references, if at hand.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != refs.dim:
        raise KernelError(
            f"feature width {features.shape[-1]} does not match reference width {refs.dim}")
    # The sampler's own rows come with their distances; kernel_matrix copies.
    if dists is None:
        dists = (refs.fitted_dists if features is refs.fitted_rows
                 else geometry.pairwise(refs.distance_used, features, refs.refs))
    return kernel_matrix(kernel, dists, refs.sigmas)


def map_dataset(ds: Dataset, refs: ReferenceSet, kernel: str) -> Dataset:
    """Map a Dataset into kernel space, carrying labels and label names through."""
    return Dataset(map_matrix(ds.features, refs, kernel), ds.labels, ds.label_names)
