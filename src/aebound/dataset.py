"""Sensor data ingestion, gap filling, windowing, fold splitting and synthesis.

Readings live in a sensor x timestep matrix; missing values are carried as
NaN until `fill_missing` interpolates them. Compression operates on fixed
length vectors cut from the matrix either along time (one sensor's
consecutive readings) or across space (all sensors at one instant).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParseError, SchemaError, WindowError

_MISSING_TOKENS = {"", "nan", "NaN", "NAN"}
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
MODES = ("temporal", "spatial")  # the ways `make_windows` cuts a matrix into windows


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
        if not np.all(timestamps[1:] > timestamps[:-1]):  # np.diff can wrap around in int64
            raise ValueError("timestamps must be strictly increasing")

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


def load_csv(path, timestamp: str) -> SensorMatrix:
    """Read a headered CSV of sensor readings into a SensorMatrix.

    Every column but `timestamp` is a sensor. Empty cells and NaN tokens
    become missing markers (NaN); rows are aligned on the union of timestamps.
    A regular body (full-width rows of numbers, unique integer timestamps) is
    parsed in one `np.loadtxt` pass; anything else goes through the row
    parser, which raises every SchemaError/ParseError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, ts_col = _read_header(reader, path, timestamp)
        reading_cols = [j for j in range(len(header)) if j != ts_col]
        parsed = None
        if fh.seekable():  # the row parser can re-read the body if the fast path gives up
            parsed = _parse_regular(fh, ts_col, reading_cols)
            if parsed is None:
                fh.seek(0)
                next(reader)  # past the header again
        if parsed is None:
            parsed = _parse_rows(reader, path, header, ts_col, reading_cols)
    timestamps, values = parsed
    return SensorMatrix(values=values, sensor_ids=[header[j] for j in reading_cols], timestamps=timestamps)


def _read_header(reader, path, timestamp: str) -> tuple[list[str], int]:
    """The stripped column names and the timestamp's column index."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, no header row")
    header = [h.strip() for h in header]
    if timestamp not in header:
        raise SchemaError(f"no timestamp column {timestamp!r} in header {header}")
    if len(header) < 2:
        raise SchemaError("schema must name at least one reading column")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise SchemaError(f"column {name!r} appears more than once in header {header}")
        seen.add(name)
    return header, header.index(timestamp)


def _parse_regular(fh, ts_col: int, reading_cols: list[int]) -> tuple[np.ndarray, np.ndarray] | None:
    """(timestamps, sensors x steps values) of a regular body, or None.

    One `np.loadtxt` pass reads the lines after the header into a structured
    array, int64 at the timestamp column and float64 elsewhere. Whatever that
    pass accepts, `int()`/`float()` accept with the same value, so the result
    equals the row parser's. It returns None on any loader exception or
    warning (numpy < 2 parses "12.0" as an int64 with a DeprecationWarning;
    an empty body warns), and on duplicate timestamps, so the row parser
    names the error.
    """
    n_cols = len(reading_cols) + 1
    dtype = np.dtype([(f"c{j}", np.int64 if j == ts_col else np.float64) for j in range(n_cols)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except Exception:  # which errors the loader raises varies with the numpy version
        return None
    stamps = table[f"c{ts_col}"]
    order = np.argsort(stamps, kind="stable")
    timestamps = stamps[order]
    if timestamps.size == 0 or not np.all(timestamps[1:] > timestamps[:-1]):
        return None
    values = np.empty((len(reading_cols), timestamps.size))
    for row, j in zip(values, reading_cols):
        np.take(table[f"c{j}"], order, out=row)
    return timestamps, values


def _parse_rows(reader, path, header: list[str], ts_col: int, reading_cols: list[int]):
    """(timestamps, sensors x steps values) from a csv reader, row by row."""
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
        if not _INT64_MIN <= ts <= _INT64_MAX:
            raise ParseError(f"line {lineno}: timestamp {raw_ts!r} does not fit in int64")
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
    return timestamps, np.stack([rows[t] for t in timestamps], axis=1)  # sensors x steps


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


def make_windows(m: SensorMatrix, mode: str, n: int) -> np.ndarray:
    """Cut input vectors out of the matrix, one per row of a (B, n) float64 array.

    temporal: consecutive non-overlapping length-n slices of each sensor's
    row, sensor by sensor (a trailing partial window is dropped). spatial: one
    row per timestamp holding all sensors' readings, n must equal the sensor
    count. The array is always a fresh C-contiguous copy, never a view of `m.values`.
    """
    if not np.all(np.isfinite(m.values)):
        raise ValueError("matrix contains missing values; call fill_missing first")
    if mode == "temporal":
        if n < 1 or n > m.n_steps:
            raise WindowError(f"window size {n} does not fit {m.n_steps} timesteps")
        # np.array copies once; reshaping its C-contiguous result is a view of that copy
        return np.array(m.values[:, : m.n_steps // n * n]).reshape(-1, n)
    if mode == "spatial":
        if n != m.n_sensors:
            raise WindowError(f"spatial mode needs n == sensor count ({m.n_sensors}), got {n}")
        return m.values.T.copy()
    raise ValueError(f"unknown mode {mode!r}")


def split_folds(count: int, k: int, seed: int) -> np.ndarray:
    """Seeded random partition of `count` indices into k near-equal folds: the int64 fold of each index."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if count < k:
        raise ValueError(f"cannot split {count} items into {k} folds")
    perm = np.random.default_rng(seed).permutation(count)
    fold_of = np.empty(count, dtype=np.int64)
    fold_of[perm] = np.arange(count) % k
    return fold_of


def synth_dataset(
    sensors: int,
    steps: int,
    seed: int,
    noise_sd: float = 0.05,
    *,
    period_range: tuple[float, float] = (20.0, 300.0),
    amp_range: tuple[float, float] = (1.0, 6.0),
) -> SensorMatrix:
    """Generate a correlated synthetic temperature-like matrix.

    Every sensor shares a base signal (level 15, 2-4 sinusoids, slow drift) and
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
    base = 15.0 + drift_rate * t
    for p, a, ph in zip(periods, amps, phases):
        base = base + a * np.sin(2.0 * math.pi * t / p + ph)
    noise = rng.normal(0.0, noise_sd, (sensors, steps)) if noise_sd > 0 else np.zeros((sensors, steps))
    values = base[None, :] + offsets[:, None] + noise
    timestamps = 1_600_000_000 + 60 * np.arange(steps, dtype=np.int64)
    ids = tuple(f"s{i:02d}" for i in range(sensors))
    return SensorMatrix(values=values, sensor_ids=ids, timestamps=timestamps)
