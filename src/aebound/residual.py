"""Residual coding: the mechanism that turns a lossy codec into a bounded one.

Reconstruction errors whose magnitude exceeds the configured bound are
transmitted alongside an indicator bitmap; patching them back in on the
receiver caps the per-index error at the bound. This module holds the
codec's one patch rule, for every transform model (AE, PCA, DCT): `patches`
encodes, `apply` decodes and `size_bits` charges. A patch is a float32
residual added to the reconstruction, or, at bound 0 and wherever float32
cannot hold the bound, the float64 reading itself, written in its place:
that round trip is exact by construction, so every nonnegative bound holds.
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


def patches(p, q, bound: float) -> ResidualCode:
    """The patches that bring reconstructions q within `bound` of readings p, both raveled.

    At a positive bound the patches are float32 residuals when every patched
    reading, rebuilt as `apply` adds its residual back, stays within the
    bound. Otherwise, at bound 0 or a bound finer than float32 resolution,
    the whole batch goes as the float64 readings themselves, exact at any
    bound. At bound 0 a reading is patched wherever its bits and its
    reconstruction's differ, so a -0.0 comes back as -0.0.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if bound == 0.0:
        patched = p.view(np.uint64) != q.view(np.uint64)
        return ResidualCode(indicator=patched, values=p[patched])
    code = residual_code(p - q, bound)
    patched = code.indicator
    with np.errstate(over="ignore"):  # a residual that overflows float32 rebuilds with an infinite error
        values = code.values.astype(np.float32)
    err = np.abs(p[patched] - (q[patched] + values.astype(np.float64)))
    if not np.any(err > bound):
        return ResidualCode(indicator=patched, values=values)
    return ResidualCode(indicator=patched, values=p[patched])


def apply(code: ResidualCode, q: np.ndarray) -> np.ndarray:
    """Patch the float64 reconstructions q in place and return them.

    A float64 patch replaces its reading; a float32 one is added to it.
    """
    if code.values.dtype == np.float64:
        q[code.indicator.reshape(q.shape)] = code.values
    else:
        q += residual_decode(code, q.size).reshape(q.shape)
    return q


def size_bits(code: ResidualCode) -> int:
    """Residual bits of a batch: an indicator bit per reading, 8 * itemsize per patch."""
    return code.indicator.size + 8 * code.values.nbytes
