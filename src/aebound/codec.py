"""Online compression/decompression pipelines, wire format, model persistence.

A packet carries the hidden code y, the per-vector mean m, and the residual
code. The encoder forms residuals against the reconstruction computed from
the *wire-precision* (32-bit) y and m -- exactly what the decoder will see --
so float quantization can never break the error bound. Residual values go on
the wire as 32-bit floats, except in lossless mode (bound = 0, agreed at the
model level) where they are 64-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autoencoder import ModelParams, sigmoid
from .errors import FormatError, PrecisionError, UnsupportedVersionError
from .residual import ResidualCode, residual_code, residual_decode
from .sphering import SpheringScale, denormalize, normalize

MODEL_MAGIC = b"AEB1"
MODEL_VERSION = 1


@dataclass(frozen=True)
class Packet:
    """One compressed vector: code y, per-vector mean m, residual code."""

    y: np.ndarray  # float32, length k
    m: np.float32
    eps: ResidualCode

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float32)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "m", np.float32(self.m))
        if y.ndim != 1:
            raise FormatError("y must be 1-D")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.y.tobytes() == other.y.tobytes()
            and self.m.tobytes() == other.m.tobytes()
            and np.array_equal(self.eps.indicator, other.eps.indicator)
            and self.eps.values.dtype == other.eps.values.dtype
            and self.eps.values.tobytes() == other.eps.values.tobytes()
        )


def _wire_reconstruction(y32: np.ndarray, m32: np.float32, model: ModelParams) -> np.ndarray:
    """Reconstruction from wire-precision code and mean, in float64 arithmetic.

    Bitwise identical on both sides of the link because the inputs are the
    quantized values and the computation order is fixed.
    """
    z = sigmoid(model.w_dec @ y32.astype(np.float64) + model.b_dec)
    return denormalize(z, float(m32), model.sigma)


def _exact_residuals(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Residuals r with q + r == p exactly in float64 (lossless mode).

    p - q can round, leaving the decoder one ulp off; walk the residual a few
    ulps until the addition reproduces p bit-exactly.
    """
    r = p - q
    for i in range(r.shape[0]):
        if q[i] + r[i] == p[i]:
            continue
        fixed = False
        for direction in (np.inf, -np.inf):
            cand = r[i]
            for _ in range(4):
                cand = np.nextafter(cand, direction)
                if q[i] + cand == p[i]:
                    r[i] = cand
                    fixed = True
                    break
            if fixed:
                break
        if not fixed:
            raise PrecisionError(
                f"cannot represent residual exactly at index {i} "
                "(magnitudes too disparate for lossless mode)"
            )
    return r


def compress(p, model: ModelParams, bound: float, wide_residuals: bool | None = None) -> Packet:
    """Encode one raw vector into a packet honoring the error bound."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (model.n,):
        raise ValueError(f"input shape {p.shape} != ({model.n},)")
    if not np.all(np.isfinite(p)):
        raise ValueError("input contains non-finite entries")
    if not bound >= 0:  # also rejects NaN
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if wide_residuals is None:
        wide_residuals = bound == 0.0

    m = float(p.mean())
    x = normalize(p, model.sigma)
    y = sigmoid(model.w_enc @ x + model.b_enc)
    y32 = y.astype(np.float32)
    m32 = np.float32(m)
    q = _wire_reconstruction(y32, m32, model)

    code = residual_code(p - q, bound)
    idx = np.nonzero(code.indicator)[0]
    if wide_residuals:
        values = _exact_residuals(p[idx], q[idx])
    else:
        values = code.values.astype(np.float32)
        err = np.abs(p[idx] - (q[idx] + values.astype(np.float64)))
        if not np.all(np.isfinite(values)) or np.any(err > bound):
            raise PrecisionError(
                "32-bit residual quantization exceeds the bound; "
                "use lossless mode (bound=0) or a larger bound"
            )
    eps = ResidualCode(indicator=code.indicator, values=values)
    return Packet(y=y32, m=m32, eps=eps)


def decompress(packet: Packet, model: ModelParams) -> np.ndarray:
    """Decode a packet back to a length-n reading vector."""
    if packet.y.shape != (model.k,):
        raise FormatError(f"code length {packet.y.shape[0]} != model k {model.k}")
    if packet.eps.indicator.shape[0] != model.n:
        raise FormatError(
            f"indicator length {packet.eps.indicator.shape[0]} != model n {model.n}"
        )
    q = _wire_reconstruction(packet.y, packet.m, model)
    r = residual_decode(packet.eps, model.n)
    return q + r


def serialize_packet(packet: Packet, n: int, k: int, wide_residuals: bool = False) -> bytes:
    """Bit-exact little-endian wire layout.

    k x f32 code, f32 mean, ceil(n/8) indicator bytes (LSB-first), then one
    float per set bit in ascending index order (f64 in lossless mode).
    """
    if packet.y.shape != (k,):
        raise FormatError(f"code length {packet.y.shape[0]} != {k}")
    if packet.eps.indicator.shape[0] != n:
        raise FormatError(f"indicator length {packet.eps.indicator.shape[0]} != {n}")
    parts = [
        packet.y.astype("<f4").tobytes(),
        np.float32(packet.m).astype("<f4").tobytes(),
        np.packbits(packet.eps.indicator, bitorder="little").tobytes(),
        packet.eps.values.astype("<f8" if wide_residuals else "<f4").tobytes(),
    ]
    return b"".join(parts)


def deserialize_packet(data: bytes, n: int, k: int, wide_residuals: bool = False) -> Packet:
    """Inverse of serialize_packet; rejects truncated or oversized buffers."""
    ind_bytes = (n + 7) // 8
    base = 4 * k + 4 + ind_bytes
    if len(data) < base:
        raise FormatError(f"packet truncated: {len(data)} bytes, need at least {base}")
    y = np.frombuffer(data, dtype="<f4", count=k)
    m = np.frombuffer(data, dtype="<f4", count=1, offset=4 * k)[0]
    raw_ind = np.frombuffer(data, dtype=np.uint8, count=ind_bytes, offset=4 * k + 4)
    indicator = np.unpackbits(raw_ind, bitorder="little")[:n].astype(bool)
    count = int(indicator.sum())
    value_size = 8 if wide_residuals else 4
    expected = base + value_size * count
    if len(data) != expected:
        raise FormatError(f"packet length {len(data)} != expected {expected}")
    values = np.frombuffer(
        data, dtype="<f8" if wide_residuals else "<f4", count=count, offset=base
    )
    return Packet(y=y.copy(), m=np.float32(m), eps=ResidualCode(indicator=indicator, values=values.copy()))


def packet_size_bits(packet: Packet, n: int, k: int) -> tuple[int, int]:
    """(code bits, residual bits): mean is charged to the code side."""
    if packet.y.shape != (k,):
        raise FormatError(f"code length {packet.y.shape[0]} != {k}")
    if packet.eps.indicator.shape[0] != n:
        raise FormatError(f"indicator length {packet.eps.indicator.shape[0]} != {n}")
    value_bits = 64 if packet.eps.values.dtype == np.float64 else 32
    return 32 * k + 32, n + value_bits * packet.eps.count


def write_packet_stream(packets, n: int, k: int, path, wide_residuals: bool = False) -> None:
    """Write packets length-prefixed (u32 LE byte count) to a file."""
    with open(path, "wb") as fh:
        for pkt in packets:
            blob = serialize_packet(pkt, n, k, wide_residuals)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def read_packet_stream(path, n: int, k: int, wide_residuals: bool = False) -> list[Packet]:
    """Read a length-prefixed packet stream; names the failing packet index."""
    packets = []
    with open(path, "rb") as fh:
        index = 0
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) < 4:
                raise FormatError(f"packet {index}: truncated length prefix")
            (length,) = struct.unpack("<I", head)
            blob = fh.read(length)
            if len(blob) < length:
                raise FormatError(f"packet {index}: truncated body ({len(blob)}/{length} bytes)")
            try:
                packets.append(deserialize_packet(blob, n, k, wide_residuals))
            except FormatError as exc:
                raise FormatError(f"packet {index}: {exc}") from exc
            index += 1
    return packets


def save_model(model: ModelParams, bound: float, path) -> None:
    """Persist parameters, sigma, and the default bound; 64-bit floats throughout."""
    header = MODEL_MAGIC + struct.pack(
        "<HIIdd", MODEL_VERSION, model.n, model.k, model.sigma.sigma, float(bound)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (model.w_enc, model.b_enc, model.w_dec, model.b_dec):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> tuple[ModelParams, float]:
    """Load a model file; returns (params, default error bound)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_size = 4 + struct.calcsize("<HIIdd")
    if len(data) < head_size:
        raise FormatError(f"model file truncated: {len(data)} bytes")
    if data[:4] != MODEL_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MODEL_MAGIC!r}")
    version, n, k, sigma, bound = struct.unpack("<HIIdd", data[4:head_size])
    if version > MODEL_VERSION:
        raise UnsupportedVersionError(f"model file version {version} > supported {MODEL_VERSION}")
    if not (np.isfinite(bound) and bound >= 0):
        raise FormatError(f"model default bound must be nonnegative and finite, got {bound}")
    counts = [k * n, k, n * k, n]
    expected = head_size + 8 * sum(counts)
    if len(data) != expected:
        raise FormatError(f"model file length {len(data)} != expected {expected}")
    arrays = []
    offset = head_size
    for count in counts:
        arrays.append(np.frombuffer(data, dtype="<f8", count=count, offset=offset).copy())
        offset += 8 * count
    try:  # a bad sigma, non-finite weights or n = 0 / k = 0
        model = ModelParams(
            w_enc=arrays[0].reshape(k, n),
            b_enc=arrays[1],
            w_dec=arrays[2].reshape(n, k),
            b_dec=arrays[3],
            n=n,
            k=k,
            sigma=SpheringScale(sigma),
        )
    except ValueError as exc:
        raise FormatError(f"bad model file: {exc}") from exc
    return model, bound
