"""Online compression/decompression pipelines, wire format, model persistence.

A packet carries the hidden code y, the per-vector mean m, and the residual
code. The encoder forms residuals against the reconstruction computed from
the *wire-precision* (32-bit) y and m -- exactly what the decoder will see --
so float quantization of the code can never break the error bound. Patches
follow `residual`'s rule: a 32-bit residual added to the reconstruction,
except at bound 0, or where 32 bits cannot hold the bound, where it is the
64-bit reading itself, written in place of the reconstruction. A stream says
which: the top bit of each packet's length prefix is set when its patches
are 64-bit.

The codec works on batches: `compress_batch` encodes a (B, n) window matrix
into one `Packets`, `decompress_batch` decodes it, and packet streams are
written and read whole. A packet is a one-row `Packets`: `compress` and
`deserialize_packet` return one, and `decompress`, `serialize_packet` and
`packet_size_bits` take one and raise ValueError for any other length. They
run the same code as the batch functions, so a batch row is bit-identical to
the packet of that row alone.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .autoencoder import ModelParams, matvecs, sigmoid
from . import residual
from .errors import FormatError, UnsupportedVersionError
from .residual import ResidualCode
from .sphering import SpheringScale, denormalize, normalize

MODEL_MAGIC = b"AEB1"
MODEL_VERSION = 1
WIDE_FLAG = 1 << 31  # length-prefix bit: this packet's patches are float64 readings


@dataclass(frozen=True)
class Packets:
    """B compressed vectors as arrays: codes y, means m, one residual code.

    The residual code runs over the B*n readings in row-major order, so its
    values are the per-packet values concatenated. A packet is a one-row
    `Packets`. Equality is bitwise: shapes, bytes and the patch dtype.
    """

    y: np.ndarray  # float32, (B, k)
    m: np.ndarray  # float32, (B,)
    eps: ResidualCode

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float32)
        m = np.asarray(self.m, dtype=np.float32)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "m", m)
        if y.ndim != 2 or m.shape != y.shape[:1]:
            raise FormatError(f"codes {y.shape} and means {m.shape} must be (B, k) and (B,)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Packets):
            return NotImplemented
        return (
            self.y.shape == other.y.shape
            and self.y.tobytes() == other.y.tobytes()
            and self.m.tobytes() == other.m.tobytes()
            and np.array_equal(self.eps.indicator, other.eps.indicator)
            and self.eps.values.dtype == other.eps.values.dtype
            and self.eps.values.tobytes() == other.eps.values.tobytes()
        )

    def __len__(self) -> int:
        return self.y.shape[0]

    def __iter__(self) -> Iterator[Packets]:
        """The rows, one packet each."""
        count = len(self)
        indicator = self.eps.indicator.reshape(count, self.eps.indicator.shape[0] // max(count, 1))
        start = 0
        for i, row in enumerate(indicator):
            end = start + int(row.sum())
            yield Packets(y=self.y[i:i + 1], m=self.m[i:i + 1], eps=ResidualCode(row, self.eps.values[start:end]))
            start = end


def _check_one(packet: Packets) -> None:
    if len(packet) != 1:
        raise ValueError(f"expected one packet, got {len(packet)}; use the batch functions")


def _wire_reconstruction(y32: np.ndarray, m32: np.ndarray, model: ModelParams) -> np.ndarray:
    """Reconstructions (B, n) from wire-precision codes (B, k) and means (B,), in float64.

    Bitwise identical on both sides of the link because the inputs are the
    quantized values and the computation order is fixed.
    """
    z = sigmoid(matvecs(model.w_dec, y32.astype(np.float64)) + model.b_dec)
    return denormalize(z, m32.astype(np.float64)[:, None], model.sigma)


def compress_batch(P, model: ModelParams, bound: float) -> Packets:
    """Encode each row of a (B, n) batch into a packet honoring the error bound.

    Row i is bit-identical to `compress(P[i])`. The patches are
    `residual.patches`: float32 residuals at a positive bound that float32
    can hold, else float64 readings for the whole batch, so every
    nonnegative bound holds.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != model.n:
        raise ValueError(f"input shape {P.shape} != (B, {model.n})")
    if not np.all(np.isfinite(P)):
        raise ValueError("input contains non-finite entries")
    if not bound >= 0:  # also rejects NaN
        raise ValueError(f"bound must be nonnegative, got {bound}")

    m32 = (np.add.reduce(P, axis=1) / model.n).astype(np.float32)  # the bits of `p.mean()`
    y32 = sigmoid(matvecs(model.w_enc, normalize(P, model.sigma)) + model.b_enc).astype(np.float32)
    eps = residual.patches(P, _wire_reconstruction(y32, m32, model), bound)
    return Packets(y=y32, m=m32, eps=eps)


def compress(p, model: ModelParams, bound: float) -> Packets:
    """Encode one raw vector into a one-row `Packets` honoring the error bound."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (model.n,):
        raise ValueError(f"input shape {p.shape} != ({model.n},)")
    return compress_batch(p[None], model, bound)


def _check_shapes(packets: Packets, n: int, k: int) -> None:
    if packets.y.shape[1] != k:
        raise FormatError(f"code length {packets.y.shape[1]} != model k {k}")
    if packets.eps.indicator.shape[0] != len(packets) * n:
        raise FormatError(
            f"indicator length {packets.eps.indicator.shape[0]} != {len(packets)} packets x model n {n}"
        )


def decompress_batch(packets: Packets, model: ModelParams) -> np.ndarray:
    """Decode B packets back to a (B, n) array of readings."""
    _check_shapes(packets, model.n, model.k)
    return residual.apply(packets.eps, _wire_reconstruction(packets.y, packets.m, model))


def decompress(packet: Packets, model: ModelParams) -> np.ndarray:
    """Decode one packet back to a length-n reading vector."""
    _check_one(packet)
    return decompress_batch(packet, model)[0]


def _stream_bytes(packets: Packets, n: int, k: int) -> np.ndarray:
    """Packets in the wire layout, each prefixed by its u32 LE byte count.

    Packet body: k x f32 code, f32 mean, ceil(n/8) indicator bytes
    (LSB-first), then one patch per set bit in ascending index order, as f32
    or f64 like the values' dtype, all little-endian. The prefix's low 31 bits
    are the body's byte count; its top bit, `WIDE_FLAG`, is set for f64 patches.
    """
    _check_shapes(packets, n, k)
    values = packets.eps.values
    if values.dtype not in (np.float32, np.float64):
        raise ValueError(f"patch values must be float32 or float64, got {values.dtype}")
    count = len(packets)
    value_size = values.dtype.itemsize
    indicator = packets.eps.indicator.reshape(count, n)
    value_bytes = value_size * indicator.sum(axis=1)
    lengths = 4 * k + 4 + (n + 7) // 8 + value_bytes
    if count and lengths.max() >= WIDE_FLAG:
        raise ValueError(f"packet body of {lengths.max()} bytes does not fit the 31-bit length prefix")
    prefixes = lengths + (WIDE_FLAG if value_size == 8 else 0)
    heads = np.concatenate([
        prefixes.astype("<u4")[:, None].view(np.uint8),
        packets.y.astype("<f4").view(np.uint8),
        packets.m.astype("<f4")[:, None].view(np.uint8),
        np.packbits(indicator, axis=1, bitorder="little"),
    ], axis=1)
    # each packet is its head (prefix, code, mean, indicator), then its values
    in_head = np.repeat(
        np.tile([True, False], count),
        np.column_stack([np.full(count, heads.shape[1]), value_bytes]).ravel(),
    )
    out = np.empty(in_head.shape[0], dtype=np.uint8)
    out[in_head] = heads.ravel()
    out[~in_head] = values.astype(f"<f{value_size}").view(np.uint8)
    return out


def _parse_stream(data: np.ndarray, prefixes: list[int], n: int, k: int) -> Packets:
    """Inverse of `_stream_bytes`, given each packet's u32 length prefix.

    `data` holds exactly the prefixes and bodies. Each body's length is
    checked against its own prefix's patch width, and every width must be
    packet 0's; the first bad packet is named by its index.
    """
    prefixes = np.asarray(prefixes, dtype=np.int64)
    wide = prefixes >= WIDE_FLAG
    lengths = prefixes & (WIDE_FLAG - 1)
    base = 4 * k + 4 + (n + 7) // 8
    short = np.flatnonzero(lengths < base)
    whole = int(short[0]) if short.size else len(lengths)  # packets with a whole head
    # each packet is its prefix, its head (code, mean, indicator), then its values
    part = np.repeat(
        np.tile(np.arange(3, dtype=np.uint8), whole),
        np.column_stack([np.full(whole, 4), np.full(whole, base), lengths[:whole] - base]).ravel(),
    )
    data = data[: part.shape[0]]
    heads = data[part == 1].reshape(whole, base)
    indicator = np.unpackbits(heads[:, 4 * k + 4:], axis=1, count=n, bitorder="little").astype(bool)
    bits = np.where(wide[:whole], 64, 32)
    expected = base + bits // 8 * indicator.sum(axis=1)
    mixed = wide[:whole] != wide[:1]
    wrong = np.flatnonzero((lengths[:whole] != expected) | mixed)
    if wrong.size:
        i = int(wrong[0])
        if mixed[i]:
            raise FormatError(f"packet {i}: {bits[i]}-bit patches in a stream of {bits[0]}-bit ones")
        raise FormatError(f"packet {i}: length {lengths[i]} != expected {expected[i]}")
    if whole < len(lengths):
        raise FormatError(f"packet {whole}: truncated: {lengths[whole]} bytes, need at least {base}")
    values = data[part == 2].view("<f8" if wide[:1].any() else "<f4")
    return Packets(
        y=heads[:, : 4 * k].copy().view("<f4"),
        m=heads[:, 4 * k: 4 * k + 4].copy().view("<f4")[:, 0],
        eps=ResidualCode(indicator=indicator.ravel(), values=values),
    )


def serialize_packet(packet: Packets, n: int, k: int) -> bytes:
    """Bit-exact little-endian wire layout of one packet (see `_stream_bytes`)."""
    _check_one(packet)
    return _stream_bytes(packet, n, k)[4:].tobytes()


def deserialize_packet(data: bytes, n: int, k: int, wide_residuals: bool = False) -> Packets:
    """Inverse of serialize_packet, as a one-row `Packets`; rejects truncated or oversized buffers.

    A lone packet has no length prefix to carry its patch width, so the
    caller names it: float64 patches when `wide_residuals`, else float32.
    Float64 patches come from bound 0 or from any bound float32 cannot hold.
    """
    prefix = len(data) | (WIDE_FLAG if wide_residuals else 0)
    stream = np.frombuffer(struct.pack("<I", prefix) + bytes(data), dtype=np.uint8)
    return _parse_stream(stream, [prefix], n, k)


def packets_size_bits(packets: Packets, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-packet (code bits, residual bits) as two (B,) arrays; the mean is charged to the code side."""
    _check_shapes(packets, n, k)
    return np.full(len(packets), 32 * k + 32), residual.row_bits(packets.eps, n)


def packet_size_bits(packet: Packets, n: int, k: int) -> tuple[int, int]:
    """(code bits, residual bits) of one packet: its `packets_size_bits`."""
    _check_one(packet)
    code, res = packets_size_bits(packet, n, k)
    return int(code[0]), int(res[0])


def write_packet_stream(packets: Packets, n: int, k: int, path) -> None:
    """Write packets length-prefixed (u32 LE byte count, top bit for f64 patches) to a file."""
    data = _stream_bytes(packets, n, k)
    with open(path, "wb") as fh:
        fh.write(data)


def read_packet_stream(path, n: int, k: int) -> Packets:
    """Read a length-prefixed packet stream; names the failing packet index."""
    with open(path, "rb") as fh:
        data = fh.read()
    unpack_prefix = struct.Struct("<I").unpack_from
    prefixes = []
    offset, size, walk_error = 0, len(data), None
    while offset < size:
        if size - offset < 4:
            walk_error = f"packet {len(prefixes)}: truncated length prefix"
            break
        (prefix,) = unpack_prefix(data, offset)
        length = prefix & (WIDE_FLAG - 1)
        if size - offset - 4 < length:
            walk_error = f"packet {len(prefixes)}: truncated body ({size - offset - 4}/{length} bytes)"
            break
        prefixes.append(prefix)
        offset += 4 + length
    packets = _parse_stream(np.frombuffer(data, dtype=np.uint8, count=offset), prefixes, n, k)
    if walk_error is not None:  # only after every earlier packet parsed
        raise FormatError(walk_error)
    return packets


def save_model(model: ModelParams, bound: float, path) -> None:
    """Persist parameters, sigma, and the default bound; 64-bit floats throughout."""
    bound = float(bound)
    if not (np.isfinite(bound) and bound >= 0):  # load_model would refuse the file
        raise ValueError(f"model default bound must be nonnegative and finite, got {bound}")
    header = MODEL_MAGIC + struct.pack(
        "<HIIdd", MODEL_VERSION, model.n, model.k, model.sigma.sigma, bound
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
    if version != MODEL_VERSION:
        raise FormatError(f"model file version {version} != {MODEL_VERSION}")
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
