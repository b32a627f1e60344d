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


def _lzw_encode(data: bytes) -> list[int]:
    table = {bytes([i]): i for i in range(256)}
    nxt = 256
    codes: list[int] = []
    w = b""
    for byte in data:
        wc = w + bytes([byte])
        if wc in table:
            w = wc
            continue
        codes.append(table[w])
        if nxt < _DICT_LIMIT:
            table[wc] = nxt
            nxt += 1
        else:
            table = {bytes([i]): i for i in range(256)}
            nxt = 256
        w = bytes([byte])
    if w:
        codes.append(table[w])
    return codes


def _lzw_decode(codes: list[int]) -> bytes:
    if not codes:
        return b""
    table = {i: bytes([i]) for i in range(256)}
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
            table = {i: bytes([i]) for i in range(256)}
            nxt = 256
        w = entry
    return b"".join(out)


def _pack_codes(codes: list[int]) -> bytes:
    bits = np.zeros(12 * len(codes), dtype=np.uint8)
    for i, code in enumerate(codes):
        for b in range(12):
            bits[12 * i + b] = (code >> (11 - b)) & 1
    return np.packbits(bits).tobytes()


def _unpack_codes(data: bytes) -> list[int]:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    n_codes = bits.shape[0] // 12
    codes = []
    for i in range(n_codes):
        chunk = bits[12 * i : 12 * i + 12]
        codes.append(int(chunk @ (1 << np.arange(11, -1, -1))))
    return codes


# ---------------------------------------------------------------------------
# Truncated LZW: fixed-point quantization + LZW
# ---------------------------------------------------------------------------


def _fraction_bits(bound: float) -> int:
    if not bound >= 0:  # also rejects NaN
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if bound == 0.0:
        return 24  # lossless intent; quantization still limits precision to 2^-24
    return min(24, max(0, math.ceil(math.log2(1.0 / (2.0 * bound)))))


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
    scale = 1 << f
    q = np.rint(p * scale).astype(np.int64)
    limit = (1 << (integer_bits + f)) - 1
    if np.any(np.abs(q) > limit):
        raise RangeError(
            f"reading outside fixed-point range +-{limit / scale} "
            f"(integer_bits={integer_bits}, fraction_bits={f})"
        )
    width = 1 + integer_bits + f
    bits = np.zeros(width * q.shape[0], dtype=np.uint8)
    for i, qi in enumerate(q):
        mag = int(abs(qi))
        off = width * i
        bits[off] = 1 if qi < 0 else 0
        for b in range(integer_bits + f):
            bits[off + 1 + b] = (mag >> (integer_bits + f - 1 - b)) & 1
    payload = np.packbits(bits).tobytes()
    codes = _lzw_encode(payload)
    return bytes([f, integer_bits]) + _pack_codes(codes)


def lzw_truncated_decompress(data: bytes, count: int) -> np.ndarray:
    """Inverse of lzw_truncated_compress for `count` readings."""
    if count == 0:
        return np.zeros(0)
    if len(data) < 2:
        raise FormatError("missing truncated-LZW header")
    f, integer_bits = data[0], data[1]
    payload = _lzw_decode(_unpack_codes(data[2:]))
    width = 1 + integer_bits + f
    need_bytes = (width * count + 7) // 8
    if len(payload) < need_bytes:
        raise FormatError(f"LZW payload too short: {len(payload)} bytes, need {need_bytes}")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    out = np.empty(count)
    scale = float(1 << f)
    for i in range(count):
        off = width * i
        sign = -1.0 if bits[off] else 1.0
        mag = int(bits[off + 1 : off + width] @ (1 << np.arange(width - 2, -1, -1)))
        out[i] = sign * mag / scale
    return out


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


def pca_compress(p, model: LinearBasisModel) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    return model.components @ (p - model.mean)


def pca_decompress(coeffs, model: LinearBasisModel) -> np.ndarray:
    return model.mean + model.components.T @ np.asarray(coeffs, dtype=np.float64)


def dct_compress(p, k: int) -> list[tuple[int, float]]:
    """Orthonormal DCT-II; keep the k largest-magnitude coefficients."""
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range [1, {n}]")
    spectrum = _scipy_dct(p, norm="ortho")
    order = np.argsort(-np.abs(spectrum), kind="stable")[:k]
    order = np.sort(order)
    return [(int(i), float(spectrum[i])) for i in order]


def dct_decompress(pairs, n: int) -> np.ndarray:
    spectrum = np.zeros(n)
    for i, c in pairs:
        if not (0 <= i < n):
            raise FormatError(f"coefficient index {i} out of range [0, {n})")
        spectrum[i] = c
    return _scipy_idct(spectrum, norm="ortho")
