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

from .autoencoder import matvecs
from .errors import FormatError, RangeError

# ---------------------------------------------------------------------------
# LTC (lightweight temporal compression)
# ---------------------------------------------------------------------------


def ltc_compress(series, bound: float, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Greedy corridor segmentation; every sample stays within +-bound.

    Returns the knots of the fit: int64 sample indices (0 first, n-1 last,
    strictly increasing) and their float64 values. Raises RangeError when
    float64 arithmetic cannot keep the decode within the bound, e.g. for
    readings many orders of magnitude above it. The decode made for that check
    is written to `out` when one is given, so a round trip need not decode twice.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.shape[0] < 2:
        raise ValueError("series must be 1-D with at least 2 samples")
    if not bound > 0:  # also rejects NaN
        raise ValueError(f"bound must be positive, got {bound}")

    si, sv = 0, float(series[0])
    indices, values = [si], [sv]
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
        # corridor emptied at j: put a knot at j-1 and restart there
        slope = 0.5 * (lo + hi)
        si, sv = j - 1, float(sv + slope * (j - 1 - si))
        indices.append(si)
        values.append(sv)
        lo, hi = -math.inf, math.inf
    slope = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else 0.0
    last = series.shape[0] - 1
    knots = np.array([*indices, last], dtype=np.int64), np.array([*values, sv + slope * (last - si)])
    # the corridor arithmetic loses the bound when readings dwarf it (1e17 +- 0.1
    # rounds to 1e17), so the bound is checked on what the decoder will produce
    decoded = ltc_decompress(knots)
    if not np.all(np.abs(decoded - series) <= bound):
        raise RangeError(f"LTC decode misses the bound {bound}: readings non-finite or too large "
                         "for its float64 arithmetic")
    if out is not None:
        out[...] = decoded
    return knots


def ltc_decompress(knots) -> np.ndarray:
    """Linear interpolation between consecutive knots `(indices, values)`, from the first index to the last."""
    if len(knots) != 2:
        raise FormatError(f"knots must be an (indices, values) pair, got {len(knots)} arrays")
    idx, values = np.asarray(knots[0]), np.asarray(knots[1], dtype=np.float64)
    if idx.ndim != 1 or idx.shape != values.shape or idx.shape[0] < 2:
        raise FormatError(f"knots must be two 1-D arrays of one length >= 2, got shapes {idx.shape} and {values.shape}")
    if idx.dtype.kind not in "iu" or not np.all(idx[1:] > idx[:-1]):
        raise FormatError("knot indices must be integers in strictly increasing order")
    start, end, v0, v1 = idx[:-1], idx[1:], values[:-1], values[1:]
    pos = np.arange(start[0], end[-1] + 1)
    which = np.searchsorted(start, pos, side="right") - 1  # a shared knot takes the later segment's value
    return v0[which] + (v1 - v0)[which] * (pos - start[which]) / (end - start)[which]


def ltc_bits(knots) -> int:
    """Wire cost: one 32-bit start value, then 32-bit index + value per further knot."""
    return 32 + 64 * (len(knots[0]) - 1)


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
_INTEGER_BITS = 16  # the writer's; a reader takes the width from the header
_MAX_WIDTH = 63  # sign + integer + fraction bits of one reading, so a reading fits an int64


def _fraction_bits(bound: float) -> int:
    if not bound >= 0:  # also rejects NaN
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if bound == 0.0:
        return _MAX_FRACTION_BITS  # lossless intent; quantization still limits precision to 2^-24
    if bound >= 0.5:
        return 0  # rounding to integers already errs by at most 0.5; log2 of 1/inf fails
    return min(_MAX_FRACTION_BITS, max(0, math.ceil(math.log2(1.0 / (2.0 * bound)))))


def lzw_truncated_compress(p, bound: float) -> bytes:
    """Quantize readings to sign + 16 integer + fraction bits, then LZW the stream.

    The fraction width is the smallest making the round-to-nearest error at
    most `bound`. Output: 2 header bytes (fraction bits, integer bits) + the
    packed 12-bit LZW codes.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("input contains non-finite entries")
    f = _fraction_bits(bound)
    width = 1 + _INTEGER_BITS + f
    scale = 1 << f
    rounded = np.rint(p * scale)
    # |q| <= 2^(16 + f) - 1, checked on the floats: casting one beyond int64 would wrap
    if np.any(np.abs(rounded) >= 2.0 ** (_INTEGER_BITS + f)):
        limit = (1 << (_INTEGER_BITS + f)) - 1
        raise RangeError(
            f"reading outside fixed-point range +-{limit / scale} "
            f"(integer_bits={_INTEGER_BITS}, fraction_bits={f})"
        )
    q = rounded.astype(np.int64)
    words = (q < 0).astype(np.int64) << (width - 1) | np.abs(q)
    codes = _lzw_encode(np.packbits(_to_bits(words, width)).tobytes())
    return bytes([f, _INTEGER_BITS]) + _pack_codes(codes)


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
    return LinearBasisModel(mean=mean, components=vt[:k])


def pca_compress(p, model: LinearBasisModel) -> np.ndarray:
    """Coefficients of one vector (n,), or of each row of a (B, n) batch."""
    p = np.asarray(p, dtype=np.float64)
    return matvecs(model.components, p - model.mean)


def pca_decompress(coeffs, model: LinearBasisModel) -> np.ndarray:
    """Inverse of `pca_compress`, for (k,) or (B, k) coefficients."""
    return model.mean + matvecs(model.components.T, np.asarray(coeffs, dtype=np.float64))


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
