"""Reference codecs benchmarked against the autoencoder pipeline.

LTC: greedy piecewise-linear fit with a per-point error corridor.
Truncated LZW: fixed-point quantization to meet the bound, then classic
12-bit LZW over the packed bit stream.
PCA / DCT: linear transform coders keeping k coefficients; they carry no
native error bound and are wrapped with the residual mechanism by the
benchmark harness when a bound is required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct as _scipy_dct, idct as _scipy_idct

from .errors import FormatError, RangeError

# ---------------------------------------------------------------------------
# LTC (lightweight temporal compression)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LtcSegment:
    start_index: int
    end_index: int
    start_value: float
    end_value: float

    def __post_init__(self):
        if self.end_index <= self.start_index:
            raise ValueError("segment must span at least one step")


def ltc_compress(series, bound: float) -> list[LtcSegment]:
    """Greedy corridor segmentation; every sample stays within +-bound."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.shape[0] < 2:
        raise ValueError("series must be 1-D with at least 2 samples")
    if not bound > 0:  # also rejects NaN
        raise ValueError(f"bound must be positive, got {bound}")

    segments: list[LtcSegment] = []
    si = 0
    sv = float(series[0])
    lo, hi = -math.inf, math.inf
    j = 1
    while j < series.shape[0]:
        dt = j - si
        nlo = (series[j] - bound - sv) / dt
        nhi = (series[j] + bound - sv) / dt
        tlo, thi = max(lo, nlo), min(hi, nhi)
        if tlo <= thi:
            lo, hi = tlo, thi
            j += 1
            continue
        # corridor emptied at j: close the segment at j-1 and restart there
        slope = 0.5 * (lo + hi)
        ev = sv + slope * (j - 1 - si)
        segments.append(LtcSegment(si, j - 1, sv, float(ev)))
        si, sv = j - 1, float(ev)
        lo, hi = -math.inf, math.inf
    slope = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else 0.0
    last = series.shape[0] - 1
    segments.append(LtcSegment(si, last, sv, float(sv + slope * (last - si))))
    return segments


def ltc_decompress(segments: list[LtcSegment]) -> np.ndarray:
    """Linear interpolation inside each segment; segments must tile contiguously."""
    if not segments:
        raise FormatError("no segments")
    prev_end = segments[0].start_index
    for seg in segments:
        if seg.start_index != prev_end:
            raise FormatError(
                f"segments do not tile: expected start {prev_end}, got {seg.start_index}"
            )
        prev_end = seg.end_index
    n = segments[-1].end_index - segments[0].start_index + 1
    out = np.empty(n)
    base = segments[0].start_index
    for seg in segments:
        idx = np.arange(seg.start_index, seg.end_index + 1) - seg.start_index
        span = seg.end_index - seg.start_index
        out[seg.start_index - base : seg.end_index + 1 - base] = (
            seg.start_value + (seg.end_value - seg.start_value) * idx / span
        )
    return out


def ltc_bits(segments: list[LtcSegment]) -> int:
    """Wire cost: one 32-bit start value, then 32-bit end index + value per segment."""
    return 32 + 64 * len(segments)


# ---------------------------------------------------------------------------
# Classic LZW over bytes (12-bit codes, dictionary reset at 4096 entries)
# ---------------------------------------------------------------------------

_DICT_LIMIT = 4096
_BYTES = [bytes([i]) for i in range(256)]
_ENCODE_ROOTS = {b: i for i, b in enumerate(_BYTES)}  # copied per table, not rebuilt
_DECODE_ROOTS = dict(enumerate(_BYTES))


def _lzw_encode(data: bytes) -> list[int]:
    table = _ENCODE_ROOTS.copy()
    nxt = 256
    codes: list[int] = []
    w = b""
    for byte in data:
        c = _BYTES[byte]
        wc = w + c
        if wc in table:
            w = wc
            continue
        codes.append(table[w])
        if nxt < _DICT_LIMIT:
            table[wc] = nxt
            nxt += 1
        else:
            table = _ENCODE_ROOTS.copy()
            nxt = 256
        w = c
    if w:
        codes.append(table[w])
    return codes


def _lzw_decode(codes: list[int]) -> bytes:
    if not codes:
        return b""
    table = _DECODE_ROOTS.copy()
    nxt = 256
    first = codes[0]
    if first not in table:
        raise FormatError(f"invalid initial LZW code {first}")
    w = table[first]
    out = [w]
    for code in codes[1:]:
        if code in table:
            entry = table[code]
        elif code == nxt:
            entry = w + w[:1]
        else:
            raise FormatError(f"invalid LZW code {code}")
        out.append(entry)
        if nxt < _DICT_LIMIT:
            table[nxt] = w + entry[:1]
            nxt += 1
        else:
            table = _DECODE_ROOTS.copy()
            nxt = 256
        w = entry
    return b"".join(out)


def _to_bits(words: np.ndarray, width: int) -> np.ndarray:
    """The low `width` bits of each nonnegative word, MSB first, as one flat 0/1 array."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((words.astype(np.uint64).reshape(-1, 1) >> shifts) & 1).astype(np.uint8).ravel()


def _from_bits(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of `_to_bits`: rows of `width` bits, MSB first, back to uint64 words."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return np.bitwise_or.reduce(bits.reshape(-1, width).astype(np.uint64) << shifts, axis=1)


def _pack_codes(codes: list[int]) -> bytes:
    return np.packbits(_to_bits(np.asarray(codes, dtype=np.int64), 12)).tobytes()


def _unpack_codes(data: bytes) -> list[int]:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return _from_bits(bits[: 12 * (bits.shape[0] // 12)], 12).tolist()


# ---------------------------------------------------------------------------
# Truncated LZW: fixed-point quantization + LZW
# ---------------------------------------------------------------------------


_MAX_FRACTION_BITS = 24
_MAX_WIDTH = 63  # sign + integer + fraction bits of one reading, so a reading fits an int64


def _fraction_bits(bound: float) -> int:
    if not bound >= 0:  # also rejects NaN
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if bound == 0.0:
        return _MAX_FRACTION_BITS  # lossless intent; quantization still limits precision to 2^-24
    if bound >= 0.5:
        return 0  # rounding to integers already errs by at most 0.5; log2 of 1/inf fails
    return min(_MAX_FRACTION_BITS, max(0, math.ceil(math.log2(1.0 / (2.0 * bound)))))


def lzw_truncated_compress(p, bound: float, integer_bits: int = 16) -> bytes:
    """Quantize readings to sign + integer + fraction bits, then LZW the stream.

    The fraction width is the smallest making the round-to-nearest error at
    most `bound`. Output: 2 header bytes (fraction bits, integer bits) + the
    packed 12-bit LZW codes.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("input contains non-finite entries")
    f = _fraction_bits(bound)
    width = 1 + integer_bits + f
    if integer_bits < 0 or width > _MAX_WIDTH:
        raise ValueError(
            f"integer_bits must be in [0, {_MAX_WIDTH - 1 - f}] with {f} fraction bits, got {integer_bits}"
        )
    scale = 1 << f
    rounded = np.rint(p * scale)
    # |q| <= 2^(integer_bits + f) - 1, checked on the floats: casting one beyond int64 would wrap
    if np.any(np.abs(rounded) >= 2.0 ** (integer_bits + f)):
        limit = (1 << (integer_bits + f)) - 1
        raise RangeError(
            f"reading outside fixed-point range +-{limit / scale} "
            f"(integer_bits={integer_bits}, fraction_bits={f})"
        )
    q = rounded.astype(np.int64)
    words = (q < 0).astype(np.int64) << (width - 1) | np.abs(q)
    codes = _lzw_encode(np.packbits(_to_bits(words, width)).tobytes())
    return bytes([f, integer_bits]) + _pack_codes(codes)


def lzw_truncated_decompress(data: bytes, count: int) -> np.ndarray:
    """Inverse of lzw_truncated_compress for `count` readings."""
    if count == 0:
        return np.zeros(0)
    if len(data) < 2:
        raise FormatError("missing truncated-LZW header")
    f, integer_bits = data[0], data[1]
    width = 1 + integer_bits + f
    if f > _MAX_FRACTION_BITS or width > _MAX_WIDTH:
        raise FormatError(
            f"header fraction_bits={f}, integer_bits={integer_bits}: need at most "
            f"{_MAX_FRACTION_BITS} fraction bits and a {_MAX_WIDTH}-bit width"
        )
    payload = _lzw_decode(_unpack_codes(data[2:]))
    need_bytes = (width * count + 7) // 8
    if len(payload) < need_bytes:
        raise FormatError(f"LZW payload too short: {len(payload)} bytes, need {need_bytes}")
    words = _from_bits(np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=width * count), width)
    sign = np.where(words >> np.uint64(width - 1) != 0, -1.0, 1.0)
    mag = words & np.uint64((1 << (width - 1)) - 1)
    return sign * mag.astype(np.float64) / float(1 << f)


def lzw_code_bits(data: bytes) -> int:
    """Emitted 12-bit code count x 12, excluding the 2 header bytes and padding."""
    payload_bits = 8 * (len(data) - 2)
    return 12 * (payload_bits // 12)


# ---------------------------------------------------------------------------
# PCA and DCT transform coders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearBasisModel:
    mean: np.ndarray
    components: np.ndarray  # k x n, orthonormal rows
    kind: str  # "pca" or "dct"


def pca_fit(training, k: int) -> LinearBasisModel:
    """Top-k right singular vectors of the mean-centered training matrix."""
    X = np.asarray(training, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a (B, n) training matrix, got shape {X.shape}")
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} training vectors, got {X.shape[0]}")
    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    tol = s[0] * max(X.shape) * np.finfo(np.float64).eps if s.size else 0.0
    rank = int(np.sum(s > tol))
    if k > rank:
        raise ValueError(f"k={k} exceeds data rank {rank}")
    return LinearBasisModel(mean=mean, components=vt[:k], kind="pca")


def _matvecs(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`w @ v` for one vector v (n,) or for each row v of a (B, n) batch.

    Every row runs the one-vector (gemv) kernel, so a batch row keeps the
    bits of its vector alone; `x @ w.T` would run gemm, whose sums differ.
    """
    return np.matmul(w, x[..., None])[..., 0]


def pca_compress(p, model: LinearBasisModel) -> np.ndarray:
    """Coefficients of one vector (n,), or of each row of a (B, n) batch."""
    p = np.asarray(p, dtype=np.float64)
    return _matvecs(model.components, p - model.mean)


def pca_decompress(coeffs, model: LinearBasisModel) -> np.ndarray:
    """Inverse of `pca_compress`, for (k,) or (B, k) coefficients."""
    return model.mean + _matvecs(model.components.T, np.asarray(coeffs, dtype=np.float64))


def dct_compress_batch(P, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II of each row of a (B, n) batch; keep its k largest-magnitude coefficients.

    Returns (B, k) coefficient indices, ascending per row, and their values.
    Ties keep the lower index.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError(f"expected a (B, n) batch, got shape {P.shape}")
    n = P.shape[1]
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range [1, {n}]")
    spectrum = _scipy_dct(P, norm="ortho", axis=-1)
    idx = np.sort(np.argsort(-np.abs(spectrum), axis=1, kind="stable")[:, :k], axis=1)
    return idx, np.take_along_axis(spectrum, idx, axis=1)


def dct_compress(p, k: int) -> list[tuple[int, float]]:
    """One vector's `dct_compress_batch`, as (index, value) pairs."""
    idx, coeffs = dct_compress_batch(np.asarray(p, dtype=np.float64)[None], k)
    return list(zip(idx[0].tolist(), coeffs[0].tolist()))


def dct_decompress_batch(idx, coeffs, n: int) -> np.ndarray:
    """Inverse DCT of each row's kept coefficients; (B, k) indices and values -> (B, n)."""
    idx = np.asarray(idx, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise FormatError(f"coefficient index {bad[0]} out of range [0, {n})")
    spectrum = np.zeros((idx.shape[0], n))
    np.put_along_axis(spectrum, idx, np.asarray(coeffs, dtype=np.float64), axis=1)
    return _scipy_idct(spectrum, norm="ortho", axis=-1)


def dct_decompress(pairs, n: int) -> np.ndarray:
    """One vector's `dct_decompress_batch`, from (index, value) pairs."""
    idx = np.array([[i for i, _ in pairs]], dtype=np.int64)
    coeffs = np.array([[c for _, c in pairs]], dtype=np.float64)
    return dct_decompress_batch(idx, coeffs, n)[0]
