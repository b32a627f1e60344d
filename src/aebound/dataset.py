"""Sensor data ingestion, gap filling, windowing, fold splitting and synthesis.

Readings live in a sensor x timestep matrix; missing values are carried as
NaN until `fill_missing` interpolates them. Compression operates on fixed
length vectors cut from the matrix either along time (one sensor's
consecutive readings) or across space (all sensors at one instant).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientDataError, ParseError, SchemaError, WindowError

_MISSING_TOKENS = {"", "nan", "NaN", "NAN"}


@dataclass(frozen=True)
class SensorMatrix:
    """Aligned table of readings: one row per sensor, one column per timestamp."""

    values: np.ndarray
    sensor_ids: tuple[str, ...]
    timestamps: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        timestamps = np.asarray(self.timestamps, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "sensor_ids", tuple(self.sensor_ids))
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array (sensors x timesteps)")
        if values.shape[0] != len(self.sensor_ids):
            raise ValueError("row count must match sensor_ids")
        if values.shape[1] != timestamps.shape[0]:
            raise ValueError("column count must match timestamps")
        if timestamps.shape[0] > 1 and not np.all(np.diff(timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FoldSplit:
    """Assignment of dataset indices to k folds."""

    fold_assignment: np.ndarray
    k: int
    seed: int

    def indices_of(self, fold: int) -> np.ndarray:
        return np.nonzero(self.fold_assignment == fold)[0]


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for `load_csv`.

    `readings` of None means: every non-timestamp column is a sensor.
    """

    timestamp: str
    readings: Sequence[str] | None = None


def load_csv(path, schema: CsvSchema) -> SensorMatrix:
    """Read a headered CSV of sensor readings into a SensorMatrix.

    Empty cells and NaN tokens become missing markers (NaN); rows are
    aligned on the union of timestamps.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row")
        header = [h.strip() for h in header]
        if schema.timestamp not in header:
            raise SchemaError(f"no timestamp column {schema.timestamp!r} in header {header}")
        ts_col = header.index(schema.timestamp)
        if schema.readings is None:
            reading_names = [h for h in header if h != schema.timestamp]
        else:
            reading_names = list(schema.readings)
            for name in reading_names:
                if name not in header:
                    raise SchemaError(f"no reading column {name!r} in header {header}")
        if not reading_names:
            raise SchemaError("schema must name at least one reading column")
        reading_cols = [header.index(name) for name in reading_names]

        rows: dict[int, np.ndarray] = {}
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if ts_col >= len(row):
                raise ParseError(f"line {lineno}: missing timestamp cell")
            raw_ts = row[ts_col].strip()
            try:
                ts = int(raw_ts)
            except ValueError:
                raise ParseError(f"line {lineno}: bad timestamp {raw_ts!r}")
            if ts in rows:
                raise ParseError(f"line {lineno}: duplicate timestamp {ts}")
            vals = np.full(len(reading_cols), np.nan)
            for j, col in enumerate(reading_cols):
                cell = row[col].strip() if col < len(row) else ""
                if cell in _MISSING_TOKENS:
                    continue
                try:
                    vals[j] = float(cell)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad reading {cell!r} in column {header[col]!r}")
            rows[ts] = vals

    if not rows:
        raise ParseError(f"{path}: no data rows")
    timestamps = np.array(sorted(rows), dtype=np.int64)
    values = np.stack([rows[t] for t in timestamps], axis=1)  # sensors x steps
    return SensorMatrix(values=values, sensor_ids=tuple(reading_names), timestamps=timestamps)


def fill_missing(m: SensorMatrix) -> SensorMatrix:
    """Replace NaN entries by linear interpolation along each sensor's row.

    Leading/trailing gaps are filled by extending the nearest observed value.
    Idempotent: a matrix without NaNs is returned unchanged in value.
    """
    values = np.array(m.values, dtype=np.float64)
    idx = np.arange(m.n_steps)
    for s in range(m.n_sensors):
        row = values[s]
        good = np.isfinite(row)
        n_good = int(good.sum())
        if n_good == m.n_steps:
            continue
        if n_good < 2:
            raise InsufficientDataError(
                f"sensor {m.sensor_ids[s]!r}: {n_good} observed values, need at least 2"
            )
        values[s] = np.interp(idx, idx[good], row[good])
    return SensorMatrix(values=values, sensor_ids=m.sensor_ids, timestamps=m.timestamps)


def make_windows(m: SensorMatrix, mode: str, n: int, stride: int | None = None) -> np.ndarray:
    """Cut input vectors out of the matrix, one per row of a (B, n) float64 array.

    temporal: length-n strided slices of each sensor's row, sensor by sensor
    (trailing partial windows dropped). spatial: one row per timestamp
    holding all sensors' readings, n must equal the sensor count. The array
    is always a fresh C-contiguous copy, never a view of `m.values`.
    """
    if not np.all(np.isfinite(m.values)):
        raise ValueError("matrix contains missing values; call fill_missing first")
    if mode == "temporal":
        if stride is None:
            stride = n
        if stride < 1:
            raise ValueError("stride must be positive")
        if n < 1 or n > m.n_steps:
            raise WindowError(f"window size {n} does not fit {m.n_steps} timesteps")
        # np.array copies: a bare reshape can return a read-only view
        return np.array(sliding_window_view(m.values, n, axis=1)[:, ::stride]).reshape(-1, n)
    if mode == "spatial":
        if n != m.n_sensors:
            raise WindowError(f"spatial mode needs n == sensor count ({m.n_sensors}), got {n}")
        return m.values.T.copy()
    raise ValueError(f"unknown mode {mode!r}")


def split_folds(count: int, k: int, seed: int) -> FoldSplit:
    """Seeded random partition of `count` indices into k near-equal folds."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if count < k:
        raise ValueError(f"cannot split {count} items into {k} folds")
    perm = np.random.default_rng(seed).permutation(count)
    assignment = np.empty(count, dtype=np.int64)
    assignment[perm] = np.arange(count) % k
    return FoldSplit(fold_assignment=assignment, k=k, seed=seed)


def synth_dataset(
    sensors: int,
    steps: int,
    seed: int,
    noise_sd: float = 0.05,
    *,
    base_level: float = 15.0,
    period_range: tuple[float, float] = (20.0, 300.0),
    amp_range: tuple[float, float] = (1.0, 6.0),
) -> SensorMatrix:
    """Generate a correlated synthetic temperature-like matrix.

    Every sensor shares a base signal (2-4 sinusoids plus slow drift) and
    adds its own constant spatial offset plus white noise, so rows are both
    temporally and spatially correlated. Deterministic per seed.
    """
    if sensors < 1 or steps < 1:
        raise ValueError("sensors and steps must be >= 1")
    rng = np.random.default_rng(seed)
    n_waves = int(rng.integers(2, 5))
    periods = rng.uniform(period_range[0], period_range[1], n_waves)
    amps = rng.uniform(amp_range[0], amp_range[1], n_waves)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_waves)
    drift_rate = rng.uniform(-0.5, 0.5) / 1000.0
    offsets = rng.uniform(-3.0, 3.0, sensors)

    t = np.arange(steps, dtype=np.float64)
    base = base_level + drift_rate * t
    for p, a, ph in zip(periods, amps, phases):
        base = base + a * np.sin(2.0 * math.pi * t / p + ph)
    noise = rng.normal(0.0, noise_sd, (sensors, steps)) if noise_sd > 0 else np.zeros((sensors, steps))
    values = base[None, :] + offsets[:, None] + noise
    timestamps = 1_600_000_000 + 60 * np.arange(steps, dtype=np.int64)
    ids = tuple(f"s{i:02d}" for i in range(sensors))
    return SensorMatrix(values=values, sensor_ids=ids, timestamps=timestamps)
