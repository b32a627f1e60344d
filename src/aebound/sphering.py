"""Input normalization for the sigmoid autoencoder.

Each vector, or each row of a (B, n) batch, is centered on its own mean,
truncated at three global standard deviations, and rescaled into [0.1, 0.9].
The global scale is estimated once from the training set and shipped with
the model, so both ends of the link apply the same mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError


@dataclass(frozen=True)
class SpheringScale:
    """Global standard deviation of mean-centered training entries."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def _centered(arr: np.ndarray) -> np.ndarray:
    """A vector, or each row of a batch, minus its own mean.

    Sums then divides, as `arr.mean()` does, so a vector and the same row of
    a batch get bit-identical results; skips `mean`'s per-call overhead.
    """
    if arr.ndim < 1:
        raise ValueError(f"expected a vector (n,) or a batch (B, n), got shape {arr.shape}")
    return arr - np.add.reduce(arr, axis=-1, keepdims=True) / arr.shape[-1]


def estimate_sigma(training) -> SpheringScale:
    """Population standard deviation of all per-vector-centered training entries.

    `training` is a (B, n) batch, or a sequence of B length-n vectors.
    """
    X = np.asarray(training, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a batch (B, n), got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    sigma = float(np.sqrt(np.mean(_centered(X) ** 2)))  # each row has zero mean once centered
    if sigma == 0.0:
        raise DegenerateDataError("all centered training entries are zero")
    return SpheringScale(sigma=sigma)


def normalize(p, sigma: SpheringScale) -> np.ndarray:
    """Map a raw vector, or each row of a (B, n) batch, into [0.1, 0.9] with 3-sigma truncation."""
    arr = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("input contains non-finite entries")
    s3 = 3.0 * sigma.sigma
    centered = np.clip(_centered(arr), -s3, s3)
    # the final clip pins boundary values that float rounding would push
    # a few ulps outside the advertised range
    return np.clip(0.5 + (0.4 / s3) * centered, 0.1, 0.9)


def denormalize(x, m, sigma: SpheringScale) -> np.ndarray:
    """Inverse of `normalize` (up to truncated outliers) given the vector mean.

    For a (B, n) batch, `m` is the (B, 1) column of row means.
    """
    arr = np.asarray(x, dtype=np.float64)
    return (3.0 * sigma.sigma / 0.4) * (arr - 0.5) + m
