"""Online compression/decompression pipelines, wire format, model persistence.

One codec serves every transform model: the autoencoder's `ModelParams` and
`baselines`' PCA and DCT models. A model has `n`, `code_width`, `code_bits`
per row, `encode` ((B, n) readings to a float64 code) and `decode` (wire
code to float64 readings). Patches are formed against the decode of the
float32 wire code -- exactly what the decoder will see -- so quantizing the
code can never break the error bound. They follow `residual`'s rule: a
32-bit residual added to the reconstruction, except at bound 0, or where 32
bits cannot hold the bound, where it is the 64-bit reading itself, written
in place of the reconstruction. The wire layout is the autoencoder's: (n, k)
give its shape, and the top bit of each packet's length prefix is set when
its patches are 64-bit. A lone packet is a one-packet stream, prefix and all.

The codec works on batches: `compress_batch` encodes a (B, n) window matrix
into one `Packets`, `decompress_batch` decodes it, and packet streams are
written and read whole. A packet is a one-row `Packets`: `compress` and
`deserialize_packet` return one, and `decompress` and `serialize_packet`
take one and raise ValueError for any other length. They run the same code
as the batch functions, so a batch row is bit-identical to the packet of
that row alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .autoencoder import ModelParams, flatten_params, unflatten_params
from .dataset import MODES
from . import residual
from .errors import FormatError, UnsupportedVersionError
from .residual import ResidualCode
from .sphering import SpheringScale

MODEL_MAGIC = b"AEB1"
# 2: the decoder's sigmoid is `autoencoder.sigmoid`'s, whose bits differ from
# version 1's (libm `exp`) by up to 2 ulps. 3: a byte after the default bound
# is the index in `dataset.MODES` of the windowing the model was trained on.
MODEL_VERSION = 3
WIDE_FLAG = 1 << 31  # length-prefix bit: this packet's patches are float64 readings


@dataclass(frozen=True)
class Packets:
    """B compressed vectors as arrays: the (B, c) float32 wire code, one residual code.

    The residual code runs over the B*n readings in row-major order, so its
    values are the per-packet values concatenated. A packet is a one-row
    `Packets`. Equality is bitwise: shapes, bytes and, where there are
    patches, their dtype; no patches carry no width.
    """

    code: np.ndarray  # float32, (B, c); the autoencoder's is y, then the mean
    eps: ResidualCode

    def __post_init__(self):
        code = np.asarray(self.code, dtype=np.float32)
        object.__setattr__(self, "code", code)
        if code.ndim != 2:
            raise FormatError(f"code {code.shape} must be (B, c)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Packets):
            return NotImplemented
        return (
            self.code.shape == other.code.shape
            and self.code.tobytes() == other.code.tobytes()
            and np.array_equal(self.eps.indicator, other.eps.indicator)
            and self.eps.values.tobytes() == other.eps.values.tobytes()
            and (self.eps.values.dtype == other.eps.values.dtype or not self.eps.values.size)
        )

    def __len__(self) -> int:
        return self.code.shape[0]


def _check_one(packet: Packets) -> None:
    if len(packet) != 1:
        raise ValueError(f"expected one packet, got {len(packet)}; use the batch functions")


def compress_batch(P, model, bound: float) -> Packets:
    """Encode each row of a (B, n) batch with a transform model into packets honoring the error bound.

    Row i is bit-identical to `compress(P[i])`. The patches are
    `residual.patches` against `model.decode` of the wire code: float32
    residuals at a positive bound that float32 can hold, else float64
    readings for the whole batch, so every nonnegative bound holds for every
    finite reading. The wire code is the model's code cast to float32, NaN
    pinned to 0 and values past float32's range to its largest finite value.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != model.n:
        raise ValueError(f"input shape {P.shape} != (B, {model.n})")
    if not np.all(np.isfinite(P)):
        raise ValueError("input contains non-finite entries")
    if not bound >= 0:  # also rejects NaN
        raise ValueError(f"bound must be nonnegative, got {bound}")
    with np.errstate(over="ignore", invalid="ignore"):  # readings near float64's range overflow the transform
        code = np.nan_to_num(model.encode(P).astype(np.float32), copy=False)  # NaN to 0, +-inf to +-float32 max
    return Packets(code=code, eps=residual.patches(P, model.decode(code), bound))


def compress(p, model: ModelParams, bound: float) -> Packets:
    """Encode one raw vector into a one-row `Packets` honoring the error bound."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (model.n,):
        raise ValueError(f"input shape {p.shape} != ({model.n},)")
    return compress_batch(p[None], model, bound)


def _check_shapes(packets: Packets, n: int, width: int) -> None:
    if packets.code.shape[1] != width:
        raise FormatError(f"code width {packets.code.shape[1]} != model code width {width}")
    if packets.eps.indicator.shape[0] != len(packets) * n:
        raise FormatError(
            f"indicator length {packets.eps.indicator.shape[0]} != {len(packets)} packets x model n {n}"
        )


def decompress_batch(packets: Packets, model) -> np.ndarray:
    """Decode B packets back to a (B, n) array of readings with their transform model."""
    _check_shapes(packets, model.n, model.code_width)
    return residual.apply(packets.eps, model.decode(packets.code))


def decompress(packet: Packets, model: ModelParams) -> np.ndarray:
    """Decode one packet back to a length-n reading vector."""
    _check_one(packet)
    return decompress_batch(packet, model)[0]


def _head_size(n: int, k: int) -> int:
    """Bytes of a packet before its patches: u32 prefix, k x f32 code, f32 mean, indicator."""
    return 4 + 4 * k + 4 + (n + 7) // 8


def _head_mask(head: int, value_bytes: np.ndarray) -> np.ndarray:
    """Per stream byte, True in a packet's head and False in its patches, for packets laid out head, then values."""
    count = value_bytes.shape[0]
    return np.repeat(np.tile([True, False], count), np.column_stack([np.full(count, head), value_bytes]).ravel())


def _stream_bytes(packets: Packets, n: int, k: int) -> np.ndarray:
    """Packets in the wire layout, each prefixed by its u32 LE byte count.

    Packet body: k x f32 code, f32 mean, ceil(n/8) indicator bytes
    (LSB-first, zero-padded), then one patch per set bit in ascending index
    order, as f32 or f64 like the values' dtype, all little-endian. The
    prefix's low 31 bits are the body's byte count; its top bit, `WIDE_FLAG`,
    is set for f64 patches.
    """
    _check_shapes(packets, n, k + 1)
    values = packets.eps.values
    if values.dtype not in (np.float32, np.float64):
        raise ValueError(f"patch values must be float32 or float64, got {values.dtype}")
    if not (np.isfinite(packets.code).all() and np.isfinite(values).all()):  # the reader would refuse them
        raise ValueError("code words and patches must be finite")
    count = len(packets)
    value_size = values.dtype.itemsize
    indicator = packets.eps.indicator.reshape(count, n)
    head = _head_size(n, k)
    value_bytes = value_size * indicator.sum(axis=1)
    lengths = head - 4 + value_bytes
    if count and lengths.max() >= WIDE_FLAG:
        raise ValueError(f"packet body of {lengths.max()} bytes does not fit the 31-bit length prefix")
    prefixes = lengths + (WIDE_FLAG if value_size == 8 else 0)
    heads = np.concatenate([
        prefixes.astype("<u4")[:, None].view(np.uint8),
        packets.code.astype("<f4").view(np.uint8),
        np.packbits(indicator, axis=1, bitorder="little"),
    ], axis=1)
    in_head = _head_mask(head, value_bytes)
    out = np.empty(in_head.shape[0], dtype=np.uint8)
    out[in_head] = heads.ravel()
    out[~in_head] = values.astype(f"<f{value_size}").view(np.uint8)
    return out


def _parse_stream(data: bytes, n: int, k: int) -> Packets:
    """Inverse of `_stream_bytes`; the first bad packet is named by its index.

    Each body's length is checked against its own prefix's patch width, every
    width must be packet 0's, and the indicator's padding bits must be zero.
    The walk over the prefixes stops at a truncated packet or a body shorter
    than a head, which is reported once every packet before it parsed. Only
    then are code words and patches checked: each must be finite.
    """
    head = _head_size(n, k)
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
        if length < head - 4:
            walk_error = f"packet {len(prefixes)}: truncated: {length} bytes, need at least {head - 4}"
            break
        prefixes.append(prefix)
        offset += 4 + length
    prefixes = np.array(prefixes, dtype=np.int64)
    count = prefixes.shape[0]
    wide = prefixes >= WIDE_FLAG
    lengths = prefixes & (WIDE_FLAG - 1)
    stream = np.frombuffer(data, dtype=np.uint8, count=offset)
    in_head = _head_mask(head, lengths - (head - 4))
    heads = stream[in_head].reshape(count, head)
    bits = np.unpackbits(heads[:, 4 * k + 8:], axis=1, bitorder="little")
    indicator = bits[:, :n].astype(bool)
    padded = bits[:, n:].any(axis=1)
    patch_bits = np.where(wide, 64, 32)
    expected = head - 4 + patch_bits // 8 * indicator.sum(axis=1)
    mixed = wide != wide[:1]
    wrong = np.flatnonzero((lengths != expected) | mixed | padded)
    if wrong.size:
        i = int(wrong[0])
        if mixed[i]:
            raise FormatError(f"packet {i}: {patch_bits[i]}-bit patches in a stream of {patch_bits[0]}-bit ones")
        if padded[i]:
            raise FormatError(f"packet {i}: indicator padding bits past reading {n} are set")
        raise FormatError(f"packet {i}: length {lengths[i]} != expected {expected[i]}")
    if walk_error is not None:
        raise FormatError(walk_error)
    code = heads[:, 4: 4 * k + 8].copy().view("<f4")
    values = stream[~in_head].view("<f8" if wide[:1].any() else "<f4")
    bad_rows = np.flatnonzero(~np.isfinite(code).all(axis=1))
    bad_patches = np.flatnonzero(~np.isfinite(values))
    if bad_rows.size or bad_patches.size:
        owners = np.searchsorted(np.cumsum(indicator.sum(axis=1)), bad_patches[:1], side="right")
        raise FormatError(f"packet {int(np.concatenate([bad_rows[:1], owners]).min())}: "
                          "non-finite code word or patch")
    return Packets(code=code, eps=ResidualCode(indicator=indicator.ravel(), values=values))


def serialize_packet(packet: Packets, n: int, k: int) -> bytes:
    """Bit-exact wire layout of one packet: a one-packet stream, its prefix included (see `_stream_bytes`)."""
    _check_one(packet)
    return _stream_bytes(packet, n, k).tobytes()


def deserialize_packet(data: bytes, n: int, k: int) -> Packets:
    """Inverse of serialize_packet: `_parse_stream` of exactly one packet, as a one-row `Packets`."""
    packet = _parse_stream(bytes(data), n, k)
    if len(packet) != 1:
        raise FormatError(f"expected one packet, got {len(packet)}")
    return packet


def packets_size_bits(packets: Packets, model) -> tuple[int, int]:
    """(code bits, residual bits) of a batch: `model.code_bits` per packet, and the patches' bits."""
    _check_shapes(packets, model.n, model.code_width)
    return len(packets) * model.code_bits, residual.size_bits(packets.eps)


def write_packet_stream(packets: Packets, n: int, k: int, path) -> None:
    """Write packets length-prefixed (u32 LE byte count, top bit for f64 patches) to a file."""
    data = _stream_bytes(packets, n, k)
    with open(path, "wb") as fh:
        fh.write(data)


def read_packet_stream(path, n: int, k: int) -> Packets:
    """Read a length-prefixed packet stream; names the failing packet index."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_stream(data, n, k)


def save_model(model: ModelParams, bound: float, mode: str, path) -> None:
    """Persist parameters, sigma, the default bound and the windowing mode; 64-bit floats throughout."""
    bound = float(bound)
    if not (np.isfinite(bound) and bound >= 0):  # load_model would refuse the file
        raise ValueError(f"model default bound must be nonnegative and finite, got {bound}")
    if mode not in MODES:
        raise ValueError(f"model mode must be one of {MODES}, got {mode!r}")
    header = MODEL_MAGIC + struct.pack(
        "<HIIddB", MODEL_VERSION, model.n, model.k, model.sigma.sigma, bound, MODES.index(mode)
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flatten_params(model).astype("<f8").tobytes())  # w_enc, b_enc, w_dec, b_dec


def load_model(path) -> tuple[ModelParams, float, str]:
    """Load a model file; returns (params, default error bound, windowing mode)."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_size = 4 + struct.calcsize("<HIIddB")
    if len(data) < head_size:
        raise FormatError(f"model file truncated: {len(data)} bytes")
    if data[:4] != MODEL_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MODEL_MAGIC!r}")
    version, n, k, sigma, bound, mode = struct.unpack("<HIIddB", data[4:head_size])
    if version > MODEL_VERSION:
        raise UnsupportedVersionError(f"model file version {version} > supported {MODEL_VERSION}")
    if version < MODEL_VERSION:
        raise FormatError(f"model file version {version} != {MODEL_VERSION}: it does not say how its windows "
                          "are cut, and a version 1 decoder's sigmoid differs; retrain the model")
    if not (np.isfinite(bound) and bound >= 0):
        raise FormatError(f"model default bound must be nonnegative and finite, got {bound}")
    if mode >= len(MODES):
        raise FormatError(f"model mode byte {mode} is none of {dict(enumerate(MODES))}")
    expected = head_size + 8 * (2 * k * n + k + n)
    if len(data) != expected:
        raise FormatError(f"model file length {len(data)} != expected {expected}")
    try:  # a bad sigma, non-finite weights or n = 0 / k = 0
        params = np.frombuffer(data, dtype="<f8", offset=head_size).astype(np.float64)
        model = unflatten_params(params, n, k, SpheringScale(sigma))
    except ValueError as exc:
        raise FormatError(f"bad model file: {exc}") from exc
    return model, bound, MODES[mode]
