"""Residual coding: the mechanism that turns a lossy codec into a bounded one.

Reconstruction errors whose magnitude exceeds the configured bound are
transmitted verbatim alongside an indicator bitmap; adding them back on the
receiver caps the per-index error at the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError


@dataclass(frozen=True)
class ResidualCode:
    """Indicator bitmap over N positions plus the transmitted residuals."""

    indicator: np.ndarray  # bool, length N
    values: np.ndarray  # one per set bit, ascending index order

    def __post_init__(self):
        indicator = np.asarray(self.indicator, dtype=bool)
        values = np.asarray(self.values)
        object.__setattr__(self, "indicator", indicator)
        object.__setattr__(self, "values", values)
        if indicator.ndim != 1 or values.ndim != 1:
            raise FormatError("indicator and values must be 1-D")
        if int(indicator.sum()) != values.shape[0]:
            raise FormatError(
                f"{int(indicator.sum())} set bits but {values.shape[0]} residual values"
            )

    @property
    def count(self) -> int:
        return self.values.shape[0]


def residual_code(r, bound: float) -> ResidualCode:
    """Select every residual with |r_i| > bound for transmission."""
    r = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual vector contains non-finite entries")
    if not bound >= 0:  # also rejects NaN, which would patch nothing
        raise ValueError(f"bound must be nonnegative, got {bound}")
    indicator = np.abs(r) > bound
    return ResidualCode(indicator=indicator, values=r[indicator])


def residual_decode(code: ResidualCode, n: int) -> np.ndarray:
    """Expand a residual code back to a length-n vector (zeros elsewhere)."""
    if code.indicator.shape[0] != n:
        raise FormatError(f"indicator length {code.indicator.shape[0]} != {n}")
    out = np.zeros(n)
    out[code.indicator] = code.values.astype(np.float64)
    return out
