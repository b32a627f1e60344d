"""Reference codecs benchmarked against the autoencoder pipeline.

LTC: greedy piecewise-linear fit with a per-point error corridor.
Truncated LZW: fixed-point quantization to meet the bound, then classic
12-bit LZW over the packed bit stream.
PCA / DCT: linear transform coders keeping k coefficients; they carry no
native error bound and are wrapped with the residual mechanism by the
benchmark harness when a bound is required.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct as _scipy_dct, idct as _scipy_idct

from .autoencoder import matvecs
from .errors import FormatError, RangeError

# ---------------------------------------------------------------------------
# LTC (lightweight temporal compression)
# ---------------------------------------------------------------------------


def _narrow(x, bound, sv, dt, lo, hi):
    """One corridor step for a batch of rows: the narrowed (lo, hi) and the rows it left empty."""
    nlo = (x - bound - sv) / dt
    nhi = (x + bound - sv) / dt
    # Python's max(lo, nlo) and min(hi, nhi), which np.maximum/np.minimum differ from on -0.0 and NaN
    tlo, thi = np.where(nlo > lo, nlo, lo), np.where(nhi < hi, nhi, hi)
    return tlo, thi, ~(tlo <= thi)


def ltc_compress_batch(P, bound: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy corridor segmentation of each row of a (B, n) batch; every sample stays within +-bound.

    Returns the (B, n) knot mask (each row's first and last samples are
    knots), the knot values (0 off the knots) and their decode. A row's
    knots and decode are those of a corridor loop over that row alone. Raises
    RangeError when float64 arithmetic cannot keep a row's decode within the
    bound, e.g. for readings many orders of magnitude above it.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] < 2:
        raise ValueError(f"expected a (B, n) batch with n >= 2, got shape {P.shape}")
    if not bound > 0:  # also rejects NaN
        raise ValueError(f"bound must be positive, got {bound}")
    B, n = P.shape
    knots = np.zeros((B, n), dtype=bool)
    knots[:, [0, -1]] = True
    values = np.zeros((B, n))
    values[:, 0] = P[:, 0]
    sv = P[:, 0].copy()
    si = np.zeros(B, dtype=np.int64)
    lo, hi = np.full(B, -math.inf), np.full(B, math.inf)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite arithmetic fails the bound check below
        for j in range(1, n):
            lo_j, hi_j, empty = _narrow(P[:, j], bound, sv, j - si, lo, hi)
            r = np.flatnonzero(empty)
            if r.size:
                # corridor emptied at j: put a knot at j-1 and restart there; a restarted
                # corridor never empties at its first step, as x - bound <= x + bound
                sv[r] = sv[r] + 0.5 * (lo[r] + hi[r]) * (j - 1 - si[r])
                si[r] = j - 1
                knots[r, j - 1] = True
                values[r, j - 1] = sv[r]
                lo_j[r], hi_j[r], _ = _narrow(P[r, j], bound, sv[r], 1, -math.inf, math.inf)
            lo, hi = lo_j, hi_j
        finite = np.isfinite(lo) & np.isfinite(hi)
        slope = np.zeros(B)
        slope[finite] = 0.5 * (lo[finite] + hi[finite])
        values[:, -1] = sv + slope * (n - 1 - si)
        # the corridor arithmetic loses the bound when readings dwarf it (1e17 +- 0.1
        # rounds to 1e17), so the bound is checked on what the decoder will produce
        decoded = ltc_decompress_batch(knots, values)
        if not np.all(np.abs(decoded - P) <= bound):
            raise RangeError(f"LTC decode misses the bound {bound}: readings non-finite or too large "
                             "for its float64 arithmetic")
    return knots, values, decoded


def ltc_compress(series, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """One series' `ltc_compress_batch`, as its knots: int64 sample indices and float64 values.

    The indices run from 0 to n-1, strictly increasing.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.shape[0] < 2:
        raise ValueError("series must be 1-D with at least 2 samples")
    knots, values, _ = ltc_compress_batch(series[None], bound)
    idx = np.flatnonzero(knots[0])
    return idx, values[0, idx]


def ltc_decompress_batch(knots, values) -> np.ndarray:
    """Linear interpolation between each row's knots: a (B, n) knot mask and the values at it -> (B, n).

    Every row's first and last samples must be knots; values off the knots are
    not read. A shared knot takes the later segment's value.
    """
    knots, values = np.asarray(knots), np.asarray(values, dtype=np.float64)
    if knots.dtype != bool or knots.ndim != 2 or knots.shape != values.shape or knots.shape[1] < 2:
        raise FormatError(f"expected a boolean (B, n) knot mask with n >= 2 and values of its shape, "
                          f"got {knots.dtype} {knots.shape} and {values.shape}")
    if not (np.all(knots[:, 0]) and np.all(knots[:, -1])):
        raise FormatError("every row's first and last samples must be knots")
    n = knots.shape[1]
    pos = np.arange(n)
    # a sample's segment starts at the last knot at or before it, the last sample's
    # at the knot before it, and ends at the next knot after its start
    start = np.maximum.accumulate(np.where(knots[:, :-1], pos[:-1], 0), axis=1)
    start = np.concatenate([start, start[:, -1:]], axis=1)
    following = np.minimum.accumulate(np.where(knots, pos, n)[:, ::-1], axis=1)[:, ::-1]
    end = np.concatenate([following[:, 1:], following[:, -1:]], axis=1)
    v0, v1 = np.take_along_axis(values, start, axis=1), np.take_along_axis(values, end, axis=1)
    return v0 + (v1 - v0) * (pos - start) / (end - start)


def ltc_decompress(knots) -> np.ndarray:
    """One series' `ltc_decompress_batch`, from knots `(indices, values)`, over the first index to the last."""
    if len(knots) != 2:
        raise FormatError(f"knots must be an (indices, values) pair, got {len(knots)} arrays")
    idx, values = np.asarray(knots[0]), np.asarray(knots[1], dtype=np.float64)
    if idx.ndim != 1 or idx.shape != values.shape or idx.shape[0] < 2:
        raise FormatError(f"knots must be two 1-D arrays of one length >= 2, got shapes {idx.shape} and {values.shape}")
    if idx.dtype.kind not in "iu" or not np.all(idx[1:] > idx[:-1]):
        raise FormatError("knot indices must be integers in strictly increasing order")
    at = idx - idx[0]
    mask = np.zeros((1, int(at[-1]) + 1), dtype=bool)
    mask[0, at] = True
    row = np.zeros(mask.shape)
    row[0, at] = values
    return ltc_decompress_batch(mask, row)[0]


def ltc_bits(knots) -> int:
    """Wire cost: one 32-bit start value, then 32-bit index + value per further knot."""
    return 32 + 64 * (len(knots[0]) - 1)


def ltc_bits_batch(knots) -> np.ndarray:
    """`ltc_bits` of each row of a (B, n) knot mask."""
    return 32 + 64 * (np.count_nonzero(knots, axis=1) - 1)


# ---------------------------------------------------------------------------
# Classic LZW over bytes (12-bit codes, dictionary reset at 4096 entries)
# ---------------------------------------------------------------------------

_DICT_LIMIT = 4096
_BYTES = [bytes([i]) for i in range(256)]  # the decoder's root entries; code i is byte i


def _lzw_encode(data: bytes) -> list[int]:
    # the table maps (prefix code << 8 | next byte) to the code of the extended
    # string; single bytes are their own codes and need no entries
    table: dict[int, int] = {}
    nxt = 256
    codes: list[int] = []
    if not data:
        return codes
    w = data[0]  # code of the longest prefix matched so far
    for byte in data[1:]:
        key = w << 8 | byte
        code = table.get(key)
        if code is not None:
            w = code
            continue
        codes.append(w)
        if nxt < _DICT_LIMIT:
            table[key] = nxt
            nxt += 1
        else:
            table = {}
            nxt = 256
        w = byte
    codes.append(w)
    return codes


def _lzw_decode(codes: list[int]) -> bytes:
    if not codes:
        return b""
    table = _BYTES.copy()  # entry i is the string of code i
    first = codes[0]
    if not 0 <= first < 256:
        raise FormatError(f"invalid initial LZW code {first}")
    w = table[first]
    out = [w]
    for code in codes[1:]:
        nxt = len(table)
        if 0 <= code < nxt:
            entry = table[code]
        elif code == nxt:
            entry = w + w[:1]
        else:
            raise FormatError(f"invalid LZW code {code}")
        out.append(entry)
        if nxt < _DICT_LIMIT:
            table.append(w + entry[:1])
        else:
            table = _BYTES.copy()
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


def _pack_code_rows(rows: list[list[int]]) -> list[bytes]:
    """Each row of 12-bit codes, MSB first, zero-padded to a whole byte; all rows packed in one pass."""
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    # a row of an odd count takes one zero code more, so that every row starts on a byte
    padded = counts + (counts & 1)
    flat = np.zeros(int(padded.sum()), dtype=np.int64)
    total = int(counts.sum())
    shift = np.repeat(np.cumsum(padded) - padded - (np.cumsum(counts) - counts), counts)
    flat[np.arange(total) + shift] = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=total)
    data = np.packbits(_to_bits(flat, 12)).tobytes()
    starts = (3 * (np.cumsum(padded) - padded) // 2).tolist()
    return [data[s : s + size] for s, size in zip(starts, ((3 * counts + 1) // 2).tolist())]


def _unpack_code_rows(data: bytes, starts, stops) -> list[list[int]]:
    """The whole 12-bit codes, MSB first, of each byte span `data[start:stop]`; all spans unpacked in one pass."""
    starts, stops = np.asarray(starts, dtype=np.int64), np.asarray(stops, dtype=np.int64)
    counts = 8 * (stops - starts) // 12
    ends = np.cumsum(counts)
    first_bit = np.repeat(8 * starts - 12 * (ends - counts), counts) + 12 * np.arange(int(counts.sum()))
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    codes = _from_bits(bits[first_bit[:, None] + np.arange(12)], 12).tolist()
    return [codes[e - c : e] for e, c in zip(ends.tolist(), counts.tolist())]


# ---------------------------------------------------------------------------
# Truncated LZW: fixed-point quantization + LZW
# ---------------------------------------------------------------------------


_MAX_FRACTION_BITS = 24
_INTEGER_BITS = 16  # the writer's; a reader takes the width from the header
_MAX_WIDTH = 63  # sign + integer + fraction bits of one reading, so a reading fits an int64


def _fraction_bits(bound: float) -> int:
    if not bound >= 0:  # also rejects NaN
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if bound <= 2.0 ** -(_MAX_FRACTION_BITS + 1):
        # bound 0 is lossless intent, and quantization still limits precision to 2^-24;
        # at a subnormal bound 1 / (2 * bound) would overflow
        return _MAX_FRACTION_BITS
    if bound >= 0.5:
        return 0  # rounding to integers already errs by at most 0.5; log2 of 1/inf fails
    return min(_MAX_FRACTION_BITS, max(0, math.ceil(math.log2(1.0 / (2.0 * bound)))))


def lzw_truncated_compress_batch(P, bound: float) -> list[bytes]:
    """Quantize each row of a (B, n) batch to sign + 16 integer + fraction bits, then LZW each row's stream.

    The fraction width is the smallest making the round-to-nearest error at
    most `bound`. Each row's blob: 2 header bytes (fraction bits, integer
    bits) + the packed 12-bit LZW codes.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValueError(f"expected a (B, n) batch, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("input contains non-finite entries")
    f = _fraction_bits(bound)
    width = 1 + _INTEGER_BITS + f
    scale = 1 << f
    rounded = np.rint(P * scale)
    # |q| <= 2^(16 + f) - 1, checked on the floats: casting one beyond int64 would wrap
    if np.any(np.abs(rounded) >= 2.0 ** (_INTEGER_BITS + f)):
        limit = (1 << (_INTEGER_BITS + f)) - 1
        raise RangeError(
            f"reading outside fixed-point range +-{limit / scale} "
            f"(integer_bits={_INTEGER_BITS}, fraction_bits={f})"
        )
    q = rounded.astype(np.int64)
    words = (q < 0).astype(np.int64) << (width - 1) | np.abs(q)
    streams = np.packbits(_to_bits(words, width).reshape(P.shape[0], P.shape[1] * width), axis=1)
    header = bytes([f, _INTEGER_BITS])
    return [header + codes for codes in _pack_code_rows([_lzw_encode(row.tobytes()) for row in streams])]


def lzw_truncated_compress(p, bound: float) -> bytes:
    """One vector's `lzw_truncated_compress_batch`."""
    return lzw_truncated_compress_batch(np.asarray(p, dtype=np.float64).reshape(1, -1), bound)[0]


def lzw_truncated_decompress_batch(blobs, count: int) -> np.ndarray:
    """Inverse of lzw_truncated_compress_batch: blobs of `count` readings each, under one header -> (B, count)."""
    if count == 0 or not blobs:
        return np.zeros((len(blobs), count))
    if len(blobs[0]) < 2:
        raise FormatError("missing truncated-LZW header")
    header = blobs[0][:2]
    f, integer_bits = header
    width = 1 + integer_bits + f
    if f > _MAX_FRACTION_BITS or width > _MAX_WIDTH:
        raise FormatError(
            f"header fraction_bits={f}, integer_bits={integer_bits}: need at most "
            f"{_MAX_FRACTION_BITS} fraction bits and a {_MAX_WIDTH}-bit width"
        )
    need_bytes = (width * count + 7) // 8
    sizes = np.array([len(blob) for blob in blobs], dtype=np.int64)
    stops = np.cumsum(sizes)
    starts = stops - sizes
    payloads = []
    for blob, codes in zip(blobs, _unpack_code_rows(b"".join(blobs), np.minimum(starts + 2, stops), stops)):
        if len(blob) < 2:
            raise FormatError("missing truncated-LZW header")
        if blob[:2] != header:
            raise FormatError(f"a batch's blobs must share one header, got {blob[:2].hex()} after {header.hex()}")
        payload = _lzw_decode(codes)
        if len(payload) < need_bytes:
            raise FormatError(f"LZW payload too short: {len(payload)} bytes, need {need_bytes}")
        payloads.append(payload[:need_bytes])
    streams = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(len(blobs), need_bytes)
    words = _from_bits(np.unpackbits(streams, axis=1, count=width * count), width).reshape(len(blobs), count)
    sign = np.where(words >> np.uint64(width - 1) != 0, -1.0, 1.0)
    mag = words & np.uint64((1 << (width - 1)) - 1)
    return sign * mag.astype(np.float64) / float(1 << f)


def lzw_truncated_decompress(data: bytes, count: int) -> np.ndarray:
    """One blob's `lzw_truncated_decompress_batch`: its `count` readings."""
    return lzw_truncated_decompress_batch([data], count)[0]


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
