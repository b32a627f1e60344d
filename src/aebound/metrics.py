"""Evaluation metrics: mean absolute error, relative error, compression ratio."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalRow:
    """One benchmark result row (CSV schema in the report writer)."""

    method: str
    epsilon_bound: float
    cr: float  # percent
    eps_abs: float
    eps_rel: float  # percent
    bits_code: int
    bits_residual: int
    bits_raw: int
    wall_time: float
    status: str = "ok"


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("inputs must be finite")
    return p, q


def mean_abs_error(p, q) -> float:
    p, q = _pair(p, q)
    return float(np.mean(np.abs(p - q)))


def relative_errors(P, Q) -> np.ndarray:
    """Percent, per row of a (B, n) batch: sum of squared differences over sum of squared readings.

    A row whose readings are all zero has no relative error; its entry is NaN.
    """
    P, Q = _pair(P, Q)
    if P.ndim != 2:
        raise ValueError(f"expected (B, n) batches, got shape {P.shape}")
    denom = np.sum(P**2, axis=1)
    return np.divide(100.0 * np.sum((P - Q) ** 2, axis=1), denom, out=np.full(len(P), np.nan), where=denom > 0)


def relative_error(p, q) -> float:
    """Percent: sum of squared differences over sum of squared readings."""
    p, q = _pair(p, q)
    (rel,) = relative_errors(p.reshape(1, -1), q.reshape(1, -1))
    if np.isnan(rel):
        raise ValueError("relative error undefined for an all-zero reference")
    return float(rel)


def compression_ratio(bits_code: int, bits_residual: int, bits_raw: int) -> float:
    """Percent reduction; negative values (expansion) are allowed."""
    if bits_raw <= 0:
        raise ValueError(f"bits_raw must be positive, got {bits_raw}")
    return (1.0 - (bits_code + bits_residual) / bits_raw) * 100.0
