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


def csv_rows(first_index: int, block: np.ndarray) -> bytes:
    """The CSV lines `i,v0,...,v{n-1}` of a (rows, n) block, numbered from first_index >= 0.

    Each reading is written as `repr` writes it: the shortest decimal that
    reads back as the same float64 and, of those, the nearest to it. numpy
    formats the whole block at once (`_shortest`); a nonzero reading outside
    1e-4 <= |x| < 1e15, and one whose digits `_shortest` cannot certify, go
    through `repr`. The text is built as a uint8 matrix, one slot of columns
    per reading with NUL where a reading has no character, and the NULs are
    then dropped.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, n = block.shape
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)  # in repr's fixed notation
    digits, point, sure = _shortest(np.where(fast, a, 1.5))
    zero = a == 0
    digits[zero], point[zero] = 0, 0  # "0.0"
    sure = (sure & fast) | zero
    back = np.flatnonzero(~sure)
    texts = [repr(v).encode("ascii") for v in x[back].tolist()]

    # the columns of a reading's slot: sign, "0.000" before a leading digit below
    # 1, the 17 digits with a point column after each position a reading uses
    cols = [np.signbit(x) * np.uint8(ord("-"))]
    used = np.bincount(point[sure] + 4, minlength=19).astype(bool)  # points -4..14 in use
    if used[:4].any():
        under_one = point < 0
        cols += [under_one * np.uint8(ord("0")), under_one * np.uint8(ord("."))]
        cols += [(point < -z) * np.uint8(ord("0")) for z in range(1, 4) if used[: 4 - z].any()]
    top = digits // 10**9  # two halves below 2**32: uint32 division is faster
    digit_cols = _digit_columns(top.astype(np.uint32), 8) + _digit_columns((digits - top * 10**9).astype(np.uint32), 9)
    significant = np.zeros(x.size, dtype=bool)
    point8 = point.astype(np.int8)
    for i in range(16, -1, -1):  # drop trailing zeros, but keep one digit after the point
        significant |= digit_cols[i] != 0
        digit_cols[i] = (digit_cols[i] + np.uint8(ord("0"))) * (significant | (point8 >= i - 1))
    for i, col in enumerate(digit_cols):
        cols.append(col)
        if i < 15 and used[i + 4]:
            cols.append((point == i) * np.uint8(ord(".")))

    width = 1 + max([len(cols)] + [len(t) for t in texts])  # a comma, then the reading
    index = np.arange(first_index, first_index + rows, dtype=np.int64)
    index_width = len(str(first_index + rows - 1))
    buf = np.zeros((rows, index_width + n * width + 1), dtype=np.uint8)
    for i, col in enumerate(_digit_columns(index, index_width)):
        leading = (index >= 10 ** (index_width - 1 - i)) | (i == index_width - 1)
        buf[:, i] = (col + np.uint8(ord("0"))) * leading
    slots = buf[:, index_width : index_width + n * width].reshape(rows, n, width)
    slots[:, :, 0] = ord(",")
    for j, col in enumerate(cols, start=1):
        slots[:, :, j] = col.reshape(rows, n)
    for g, text in zip(back.tolist(), texts):
        slot = slots[g // n, g % n, 1:]
        slot[:] = 0
        slot[: len(text)] = np.frombuffer(text, dtype=np.uint8)
    buf[:, -1] = ord("\n")
    flat = buf.ravel()
    return flat[flat != 0].tobytes()


_POW10 = 10.0 ** np.arange(23)  # exact doubles
_VELTKAMP = 2.0**27 + 1


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p + e == a * b exactly (Dekker)."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v as hi + lo, each with at most 26 significant bits (Veltkamp)."""
    c = _VELTKAMP * v
    hi = c - (c - v)
    return hi, v - hi


def _near_int(v: np.ndarray) -> np.ndarray:
    return np.abs(v - np.rint(v)) < 1e-6


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, point, sure): the shortest decimal of each double in 1e-4 <= a < 1e15.

    The decimal is `digits * 10**(point - 16)`, digits an int64 in [1e16,
    1e17): its significant digits, then zeros. Where `sure` is False the
    digits are not certified. The method follows Loitsch's Grisu3 (PLDI
    2010): an exact scaling, and a test that tells when it cannot decide.
    y = a * 10**(16 - point) is formed exactly as a double-double. Every
    decimal from y - below to y + above reads back as a: half the gaps to
    a's neighbours, scaled alike, exact, and equal except at a power of two.
    The shortest is the multiple of the largest power of ten in that
    interval; where there are more, the one nearest y, and on a tie the one
    with an even last digit, as `repr` picks. An interval end within 1e-6
    of an integer leaves the comparisons unsure.
    """
    point = np.floor(np.log10(a)).astype(np.int64)  # can be one off near a power of ten
    scale = _POW10[16 - point]
    hi, lo = _two_prod(a, scale)
    off = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64) - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    if off.any():
        point += off
        scale = _POW10[16 - point]
        hi, lo = _two_prod(a, scale)
    bits = a.view(np.uint64)
    above = np.ldexp(scale, ((bits >> np.uint64(52)).astype(np.int64) - 1076).astype(np.int32))
    below = np.where(bits & np.uint64((1 << 52) - 1) == 0, 0.5 * above, above)
    fl = np.floor(lo)
    y = hi.astype(np.int64) + fl.astype(np.int64)  # floor of y: hi is an integer, lo is small
    f = lo - fl  # y's fraction, to within 2**-53
    q10 = y // 10
    q100 = q10 // 10
    ones = y - 10 * q10
    tens = q10 - 10 * q100
    t = f + (10 * tens + ones)  # y mod 100
    r = f + ones  # y mod 10
    # below + above < 23, so one multiple of 100 at most is in the interval
    low, high = t <= below, t >= 100 - above
    down10, up10 = r <= below, r >= 10 - above
    by10 = ~(low | high) & (down10 | up10)
    by1 = ~(low | high | by10)
    # round up to the multiple above y where it is nearer, or as near with an odd digit
    # below, or where the multiple below is outside the interval
    half = fl + 0.5
    nearer10 = (ones > 5) | ((ones == 5) & ((lo > fl) | ((lo == fl) & (tens & 1 == 1))))
    nearer1 = (lo > half) | ((lo == half) & (ones & 1 == 1))
    digits = 100 * (q100 + high)
    digits = np.where(by10, 10 * (q10 + (up10 & (nearer10 | ~down10))), digits)
    digits = np.where(by1, y + ((f >= 1 - above) & (nearer1 | (f > below))), digits)
    sure = ~(_near_int(f - below) | _near_int(f + above)) & (digits < 10**17)
    return digits, point, sure


def _digit_columns(v: np.ndarray, count: int) -> list[np.ndarray]:
    """The `count` low decimal digits of nonnegative integers v, most significant first, as uint8."""
    out = [None] * count
    for i in range(count - 1, -1, -1):
        q = v // 10
        out[i] = (v - q * 10).astype(np.uint8)
        v = q
    return out


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
