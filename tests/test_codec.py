import hashlib
import itertools
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aebound import autoencoder as ae, baselines, codec, dataset
from aebound.errors import FormatError, UnsupportedVersionError
from aebound.residual import ResidualCode, patches, residual_decode
from aebound.sphering import SpheringScale, estimate_sigma, normalize
from oracle import ordered_matvec


@pytest.fixture
def model():
    theta = ae.init_params(8, 3, seed=0)
    return ae.ModelParams(
        w_enc=theta.w_enc, b_enc=theta.b_enc, w_dec=theta.w_dec, b_dec=theta.b_dec,
        n=8, k=3, sigma=SpheringScale(2.0),
    )


def random_packet(rng, n, k, n_resid=None, wide=False):
    if n_resid is None:
        n_resid = int(rng.integers(0, n + 1))
    indicator = np.zeros(n, dtype=bool)
    indicator[rng.choice(n, size=n_resid, replace=False)] = True
    return codec.Packets(
        code=np.column_stack([rng.uniform(0, 1, (1, k)), [rng.normal()]]),
        eps=ResidualCode(indicator=indicator,
                         values=rng.normal(size=n_resid).astype(np.float64 if wide else np.float32)),
    )


def packet_bits(pkt, n, k) -> tuple[int, int]:
    """(code bits, residual bits) of one AE packet, from the batch count."""
    return codec.packets_size_bits(pkt, SimpleNamespace(n=n, code_width=k + 1, code_bits=32 * (k + 1)))


def stream_prefixes(data: bytes) -> list[int]:
    """The u32 length prefixes of a packet stream, walked by their low 31 bits."""
    prefixes, offset = [], 0
    while offset < len(data):
        (prefix,) = struct.unpack_from("<I", data, offset)
        prefixes.append(prefix)
        offset += 4 + (prefix & (codec.WIDE_FLAG - 1))
    return prefixes


class TestCompressDecompress:
    def test_huge_bound_empty_residual(self, model):
        p = np.arange(8.0)
        pkt = codec.compress(p, model, 1e12)
        assert pkt.eps.count == 0
        bc, br = packet_bits(pkt, 8, 3)
        assert bc == 32 * 3 + 32
        assert br == 8

    def test_constant_vector_bound_zero(self, model):
        p = np.full(8, 42.0)
        pkt = codec.compress(p, model, 0.0)
        q = codec.decompress(pkt, model)
        np.testing.assert_array_equal(q, p)  # lossless mode repairs everything
        # lossless patches are the patched readings themselves
        np.testing.assert_array_equal(pkt.eps.values, p[pkt.eps.indicator])

    def test_adversarial_outlier_bound_holds(self, model):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.normal(0, 3, 8)
            p[int(rng.integers(0, 8))] += 10 * model.sigma.sigma  # 10-sigma outlier
            bound = float(rng.uniform(0.01, 2.0))
            q = codec.decompress(codec.compress(p, model, bound), model)
            assert np.max(np.abs(p - q)) <= bound

    def test_contract_through_wire(self, model):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.normal(5, 4, 8)
            bound = float(rng.uniform(0.05, 1.0))
            pkt = codec.compress(p, model, bound)
            blob = codec.serialize_packet(pkt, 8, 3)
            q = codec.decompress(codec.deserialize_packet(blob, 8, 3), model)
            assert np.max(np.abs(p - q)) <= bound

    def test_empty_residual_pure_decode(self, model):
        p = np.linspace(0, 7, 8)
        pkt = codec.compress(p, model, 1e12)
        q = codec.decompress(pkt, model)
        z = ae.sigmoid(ordered_matvec(model.w_dec, pkt.code[0, :3]) + model.b_dec)
        expected = (3 * model.sigma.sigma / 0.4) * (z - 0.5) + float(pkt.code[0, 3])
        np.testing.assert_array_equal(q, expected)

    def test_hand_built_packet(self):
        m2 = ae.ModelParams(
            w_enc=np.zeros((1, 2)), b_enc=np.zeros(1), w_dec=np.zeros((2, 1)),
            b_dec=np.zeros(2), n=2, k=1, sigma=SpheringScale(1.0),
        )
        pkt = codec.Packets(
            code=np.array([[0.7, 5.0]], dtype=np.float32),
            eps=ResidualCode(indicator=np.array([False, True]), values=np.array([0.3], dtype=np.float32)),
        )
        q = codec.decompress(pkt, m2)
        # zero weights: z = sigmoid(0) = 0.5 -> q = [5, 5], plus residual at index 1
        np.testing.assert_allclose(q, [5.0, 5.0 + np.float32(0.3)], atol=1e-12)

    def test_shape_errors(self, model):
        with pytest.raises(ValueError):
            codec.compress(np.zeros(7), model, 0.1)
        with pytest.raises(ValueError):
            codec.compress(np.array([np.nan] * 8), model, 0.1)
        pkt = codec.compress(np.zeros(8) + 1.0, model, 0.1)
        bad = codec.Packets(code=pkt.code[:, 1:], eps=pkt.eps)
        with pytest.raises(FormatError):
            codec.decompress(bad, model)

    def test_bound_below_float32_resolution_falls_back_to_readings(self, model, tmp_path):
        """Near 15-30, float32 residuals round by ~1e-7: at 1e-9 the batch goes as float64 readings."""
        P = np.random.default_rng(13).uniform(15.0, 30.0, (20, 8))
        packets = codec.compress_batch(P, model, 1e-9)
        assert packets.eps.values.dtype == np.float64 and packets.eps.count > 0
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 8, 3, path)
        assert all(prefix & codec.WIDE_FLAG for prefix in stream_prefixes(path.read_bytes()))
        decoded = codec.decompress_batch(codec.read_packet_stream(path, 8, 3), model)
        assert np.max(np.abs(decoded - P)) <= 1e-9

    @pytest.mark.filterwarnings("ignore:code dimension k")  # k >= n is a valid model
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8), n=st.integers(1, 12),
           k=st.integers(1, 4), sigma=st.floats(0.1, 10.0), offset=st.floats(-1e300, 1e300),
           log_bound=st.floats(-12.0, 0.0))
    def test_every_positive_bound_holds_through_a_stream(self, tmp_path_factory, seed, count, n, k,
                                                         sigma, offset, log_bound):
        rng = np.random.default_rng(seed)
        theta = ae.init_params(n, k, seed=int(rng.integers(1000)))
        model = ae.ModelParams(w_enc=theta.w_enc, b_enc=theta.b_enc, w_dec=theta.w_dec,
                               b_dec=theta.b_dec, n=n, k=k, sigma=SpheringScale(sigma))
        P = offset + rng.normal(0, 3 * sigma, (count, n))
        bound = 10.0 ** log_bound
        packets = codec.compress_batch(P, model, bound)
        path = tmp_path_factory.mktemp("bound") / "packets.bin"
        codec.write_packet_stream(packets, n, k, path)
        decoded = codec.decompress_batch(codec.read_packet_stream(path, n, k), model)
        assert np.max(np.abs(decoded - P)) <= bound

    def test_bits_monotone_in_bound(self, model):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = rng.normal(0, 5, 8)
            b1, b2 = sorted(rng.uniform(0.01, 3.0, 2))
            pk1 = codec.compress(p, model, b1)
            pk2 = codec.compress(p, model, b2)
            assert sum(packet_bits(pk1, 8, 3)) >= sum(packet_bits(pk2, 8, 3))


class TestOnePacket:
    """A packet is a one-row `Packets`: the one-packet functions return one and take only one."""

    @pytest.mark.parametrize("bound", [0.0, 0.05, 1e12])
    def test_compress_is_the_batch_row(self, model, bound):
        p = np.random.default_rng(13).normal(0, 3, 8)
        pkt = codec.compress(p, model, bound)
        assert isinstance(pkt, codec.Packets) and len(pkt) == 1
        assert pkt == codec.compress_batch(p[None], model, bound)

    @pytest.mark.parametrize("bound", [0.0, 0.2])
    def test_serialize_roundtrip_of_rows(self, model, bound):
        for p in np.random.default_rng(14).normal(0, 3, (20, 8)):
            row = codec.compress(p, model, bound)
            back = codec.deserialize_packet(codec.serialize_packet(row, 8, 3), 8, 3)
            assert isinstance(back, codec.Packets) and back == row

    @pytest.mark.parametrize("call", [
        lambda pkt, model: codec.decompress(pkt, model),
        lambda pkt, model: codec.serialize_packet(pkt, 8, 3),
    ], ids=["decompress", "serialize_packet"])
    def test_two_rows_rejected(self, model, call):
        two = codec.compress_batch(np.random.default_rng(15).normal(0, 3, (2, 8)), model, 0.1)
        with pytest.raises(ValueError, match="expected one packet, got 2"):
            call(two, model)

    def test_equality_compares_shapes(self):
        def empty(k):
            return codec.Packets(code=np.empty((0, k + 1)), eps=ResidualCode(np.zeros(0, bool), np.zeros(0, np.float32)))
        assert empty(3) == empty(3)
        assert empty(3) != empty(4)

    def test_equality_ignores_the_width_of_no_patches(self):
        pkt = random_packet(np.random.default_rng(17), 8, 3, n_resid=0)
        wide = codec.Packets(code=pkt.code, eps=ResidualCode(pkt.eps.indicator, np.zeros(0)))
        assert pkt == wide
        patched = random_packet(np.random.default_rng(17), 8, 3, n_resid=2)
        assert patched != codec.Packets(code=patched.code, eps=ResidualCode(
            patched.eps.indicator, patched.eps.values.astype(np.float64)))


class TestSerialization:
    def test_empty_eps_byte_count(self):
        rng = np.random.default_rng(4)
        pkt = random_packet(rng, 8, 2, n_resid=0)
        assert len(codec.serialize_packet(pkt, 8, 2)) == 17  # 4 + 2*4 + 4 + 1

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 10))
            pkt = random_packet(rng, n, k)
            blob = codec.serialize_packet(pkt, n, k)
            assert codec.deserialize_packet(blob, n, k) == pkt

    def test_truncated_buffer(self):
        rng = np.random.default_rng(6)
        pkt = random_packet(rng, 10, 3)
        blob = codec.serialize_packet(pkt, 10, 3)
        with pytest.raises(FormatError):
            codec.deserialize_packet(blob[:-1], 10, 3)

    def test_trailing_bytes(self):
        rng = np.random.default_rng(7)
        pkt = random_packet(rng, 10, 3)
        blob = codec.serialize_packet(pkt, 10, 3)
        with pytest.raises(FormatError):
            codec.deserialize_packet(blob + b"\x00", 10, 3)

    def test_wide_residual_roundtrip(self):
        indicator = np.array([True, False, True])
        pkt = codec.Packets(
            code=np.array([[0.25, 1.5]], dtype=np.float32),
            eps=ResidualCode(indicator=indicator, values=np.array([0.1, -0.3])),
        )
        blob = codec.serialize_packet(pkt, 3, 1)
        back = codec.deserialize_packet(blob, 3, 1)
        assert back == pkt

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(1, 10), wide=st.booleans(),
           no_patches=st.booleans())
    def test_either_width_roundtrips_with_no_width_given(self, seed, n, k, wide, no_patches):
        rng = np.random.default_rng(seed)
        pkt = random_packet(rng, n, k, n_resid=0 if no_patches else None, wide=wide)
        blob = codec.serialize_packet(pkt, n, k)
        assert codec.deserialize_packet(blob, n, k) == pkt

    def test_bound_below_float32_resolution_lone_packet(self):
        """At 1e-9 on readings near 15 the packet carries float64 readings; its length says so."""
        model = ae.init_params(16, 4, seed=0, sigma=SpheringScale(1.0))
        p = 15.0 + np.random.default_rng(18).normal(0, 0.5, 16)
        pkt = codec.compress(p, model, 1e-9)
        assert pkt.eps.values.dtype == np.float64 and pkt.eps.count > 0
        back = codec.deserialize_packet(codec.serialize_packet(pkt, 16, 4), 16, 4)
        assert back == pkt
        assert np.max(np.abs(codec.decompress(back, model) - p)) <= 1e-9

    def test_nonzero_indicator_padding_rejected(self, tmp_path):
        # n=12, k=4: 4 prefix bytes, 16 code bytes, 4 mean bytes, 2 indicator bytes whose top 4 bits are padding
        pkt = random_packet(np.random.default_rng(19), 12, 4, n_resid=0)
        blob = bytearray(codec.serialize_packet(pkt, 12, 4))
        assert len(blob) == 26
        blob[-1] |= 0xF0
        with pytest.raises(FormatError, match=r"^packet 0: indicator padding bits"):
            codec.deserialize_packet(bytes(blob), 12, 4)
        path = tmp_path / "packets.bin"
        path.write_bytes(codec.serialize_packet(pkt, 12, 4) + bytes(blob))
        with pytest.raises(FormatError, match=r"^packet 1: indicator padding bits"):
            codec.read_packet_stream(path, 12, 4)

    def test_bits_match_serialized_length(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 33))
            k = int(rng.integers(1, 6))
            pkt = random_packet(rng, n, k)
            bc, br = packet_bits(pkt, n, k)
            padding = 8 * ((n + 7) // 8) - n
            assert bc + br == 8 * len(codec.serialize_packet(pkt, n, k)) - 32 - padding  # no prefix bits


class TestPacketSizeBits:
    def test_arithmetic(self):
        rng = np.random.default_rng(9)
        pkt = random_packet(rng, 23, 4, n_resid=0)
        assert packet_bits(pkt, 23, 4) == (160, 23)
        pkt = random_packet(rng, 23, 4, n_resid=1)
        assert packet_bits(pkt, 23, 4) == (160, 55)


class TestModelFile:
    def test_roundtrip_bitwise(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.25, "spatial", path)
        loaded, bound, mode = codec.load_model(path)
        assert (bound, mode) == (0.25, "spatial")
        assert loaded.n == model.n and loaded.k == model.k
        assert loaded.sigma.sigma == model.sigma.sigma
        for name in ("w_enc", "b_enc", "w_dec", "b_dec"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()

    def test_corrupt_magic(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, "temporal", path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            codec.load_model(path)

    def test_future_version(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, "temporal", path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # version field, little-endian u16
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersionError):
            codec.load_model(path)

    def test_version_zero(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, "temporal", path)
        data = bytearray(path.read_bytes())
        data[4] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 0") as raised:
            codec.load_model(path)
        assert not isinstance(raised.value, UnsupportedVersionError)

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_one_is_rejected(self, model, tmp_path, version):
        """Versions 1 and 2 do not record their windowing mode, and version 1 decoded with libm's `exp`."""
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, "temporal", path)
        data = bytearray(path.read_bytes())
        assert data[4:6] == bytes([3, 0])
        data[4] = version
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"version {version} != 3.*retrain the model") as raised:
            codec.load_model(path)
        assert not isinstance(raised.value, UnsupportedVersionError)

    def test_unknown_mode_byte(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, "spatial", path)
        data = bytearray(path.read_bytes())
        data[30] = 2  # the mode byte, after the f64 bound at 22
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="mode byte 2"):
            codec.load_model(path)

    def test_unknown_mode_not_saved(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        with pytest.raises(ValueError, match="mode"):
            codec.save_model(model, 0.1, "bogus", path)
        assert not path.exists()

    def test_truncated_file(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, "temporal", path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            codec.load_model(path)

    @pytest.mark.parametrize("bound", [np.nan, -1.0, np.inf])
    def test_bad_bound_not_saved(self, model, tmp_path, bound):
        path = tmp_path / "model.aeb"
        with pytest.raises(ValueError, match="bound"):
            codec.save_model(model, bound, "temporal", path)
        assert not path.exists()

    # header: magic (4 bytes), u16 version, u32 n, u32 k, f64 sigma at 14, f64 bound at 22, u8 mode at 30
    @pytest.mark.parametrize(
        "offset, value",
        [(14, np.nan), (14, 0.0), (14, -1.0), (14, np.inf), (22, np.nan), (22, -1.0), (22, np.inf)],
        ids=["sigma-nan", "sigma-0", "sigma-neg", "sigma-inf", "bound-nan", "bound-neg", "bound-inf"],
    )
    def test_bad_header_value(self, model, tmp_path, offset, value):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, "temporal", path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, offset, value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            codec.load_model(path)


class TestLossless:
    """At bound 0 the patches are the readings, so the round trip is exact whatever the data."""

    @pytest.fixture(scope="class")
    def windows(self):
        return dataset.make_windows(dataset.synth_dataset(6, 3000, seed=3), "temporal", 16)

    @pytest.fixture(scope="class")
    def wide_model(self):
        return ae.init_params(16, 4, seed=1, sigma=SpheringScale(2.0))

    def test_every_window_exact(self, windows, wide_model):
        # readings far finer than their reconstruction: no float64 r gives q + r == p for some
        packets = codec.compress_batch(windows, wide_model, 0.0)
        assert len(packets) == 1122 and packets.eps.values.dtype == np.float64
        np.testing.assert_array_equal(packets.eps.values, windows.ravel()[packets.eps.indicator])
        decoded = codec.decompress_batch(packets, wide_model)
        assert np.array_equal(decoded.view(np.uint64), windows.view(np.uint64))

    def test_default_writers_keep_the_readings(self, tmp_path, windows, wide_model):
        packets = codec.compress_batch(windows, wide_model, 0.0)
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 16, 4, path)
        back = codec.read_packet_stream(path, 16, 4)
        decoded = codec.decompress_batch(back, wide_model)
        assert np.array_equal(decoded.view(np.uint64), windows.view(np.uint64))
        blob = codec.serialize_packet(codec.compress(windows[0], wide_model, 0.0), 16, 4)
        one = codec.deserialize_packet(blob, 16, 4)
        assert np.array_equal(codec.decompress(one, wide_model), windows[0])

    def test_unflagged_lossless_stream_rejected(self, tmp_path, windows, wide_model):
        # the layout before the length prefix carried the width: 8-byte patches, no flag
        blobs = [bytearray(codec.serialize_packet(codec.compress(p, wide_model, 0.0), 16, 4)) for p in windows[:5]]
        for blob in blobs:
            blob[3] &= 0x7F  # the top bit of the u32 LE prefix, WIDE_FLAG
        path = tmp_path / "packets.bin"
        path.write_bytes(b"".join(blobs))
        with pytest.raises(FormatError, match=r"^packet 0: length \d+ != expected"):
            codec.read_packet_stream(path, 16, 4)

    def test_writers_reject_other_widths(self, tmp_path):
        pkt = random_packet(np.random.default_rng(12), 8, 3, n_resid=2)
        half = codec.Packets(code=pkt.code,
                             eps=ResidualCode(pkt.eps.indicator, pkt.eps.values.astype(np.float16)))
        with pytest.raises(ValueError, match="float32 or float64"):
            codec.serialize_packet(half, 8, 3)
        path = tmp_path / "packets.bin"
        with pytest.raises(ValueError, match="float32 or float64"):
            codec.write_packet_stream(half, 8, 3, path)
        assert not path.exists()


class TestPacketStream:
    def test_roundtrip(self, model, tmp_path):
        rng = np.random.default_rng(10)
        packets = codec.compress_batch(rng.normal(0, 3, (7, 8)), model, 0.2)
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 8, 3, path)
        back = codec.read_packet_stream(path, 8, 3)
        assert len(back) == 7 and back == packets

    @pytest.mark.parametrize("first_wide", [False, True])
    def test_mixed_widths_name_the_first_that_differs(self, tmp_path, first_wide):
        rng = np.random.default_rng(16)
        widths = [first_wide, first_wide, not first_wide, first_wide]
        data = b"".join(codec.serialize_packet(random_packet(rng, 8, 3, n_resid=2, wide=wide), 8, 3) for wide in widths)
        path = tmp_path / "packets.bin"
        path.write_bytes(data)
        bits = (64, 32) if first_wide else (32, 64)
        with pytest.raises(FormatError, match=rf"^packet 2: {bits[1]}-bit patches in a stream of {bits[0]}-bit ones"):
            codec.read_packet_stream(path, 8, 3)

    def test_lengthened_to_the_other_width_names_its_packet(self, tmp_path):
        """4 more bytes per float32 patch is a float64 body's length; the unflagged prefix still names it."""
        rng = np.random.default_rng(21)
        blobs = [codec.serialize_packet(random_packet(rng, 8, 3, n_resid=2), 8, 3) for _ in range(3)]
        body = len(blobs[0]) - 4
        with pytest.raises(FormatError):
            codec.deserialize_packet(blobs[0] + bytes(8), 8, 3)
        data = bytearray(b"".join(blobs))
        struct.pack_into("<I", data, 0, body + 8)
        with pytest.raises(FormatError, match=rf"^packet 0: length {body + 8} != expected {body}"):
            codec.deserialize_packet(bytes(data[:len(blobs[0]) + 8]), 8, 3)
        path = tmp_path / "packets.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=rf"^packet 0: length {body + 8} != expected {body}"):
            codec.read_packet_stream(path, 8, 3)

    def test_truncated_stream_names_packet_index(self, model, tmp_path):
        rng = np.random.default_rng(11)
        packets = codec.compress_batch(rng.normal(0, 3, (3, 8)), model, 0.2)
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 8, 3, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="packet 2"):
            codec.read_packet_stream(path, 8, 3)


class TestNonFinite:
    """The encoder writes finite code words and patches only, so the readers refuse any other and the writers too."""

    @staticmethod
    def blobs():
        rng = np.random.default_rng(22)
        return [bytearray(codec.serialize_packet(random_packet(rng, 8, 3, n_resid=2), 8, 3)) for _ in range(3)]

    # n=8, k=3 with 2 float32 patches: u32 prefix, 3 code words and the mean at 4, the indicator at 20, patches at 21
    @pytest.mark.parametrize("offset, value", [(4, np.nan), (8, -np.inf), (25, np.inf)],
                             ids=["nan-code-word", "inf-code-word", "inf-patch"])
    def test_readers_name_the_packet(self, tmp_path, offset, value):
        blobs = self.blobs()
        struct.pack_into("<f", blobs[1], offset, value)
        with pytest.raises(FormatError, match=r"^packet 0: non-finite code word or patch"):
            codec.deserialize_packet(bytes(blobs[1]), 8, 3)
        path = tmp_path / "packets.bin"
        path.write_bytes(b"".join(blobs))
        with pytest.raises(FormatError, match=r"^packet 1: non-finite code word or patch"):
            codec.read_packet_stream(path, 8, 3)

    def test_structural_errors_are_named_first(self, tmp_path):
        blobs = self.blobs()
        struct.pack_into("<f", blobs[0], 4, np.nan)
        path = tmp_path / "packets.bin"
        path.write_bytes(b"".join(blobs)[:-1])
        with pytest.raises(FormatError, match=r"^packet 2: truncated"):
            codec.read_packet_stream(path, 8, 3)

    @pytest.mark.parametrize("where, value, dtype", [("code", np.nan, np.float32), ("code", np.inf, np.float32),
                                                     ("patch", np.inf, np.float32), ("patch", np.nan, np.float64)])
    def test_writers_refuse_what_the_readers_would(self, tmp_path, where, value, dtype):
        pkt = random_packet(np.random.default_rng(23), 8, 3, n_resid=2)
        code, values = pkt.code.copy(), pkt.eps.values.astype(dtype)
        (code[0] if where == "code" else values)[1] = value
        bad = codec.Packets(code=code, eps=ResidualCode(pkt.eps.indicator, values))
        with pytest.raises(ValueError, match="must be finite"):
            codec.serialize_packet(bad, 8, 3)
        path = tmp_path / "packets.bin"
        with pytest.raises(ValueError, match="must be finite"):
            codec.write_packet_stream(bad, 8, 3, path)
        assert not path.exists()


class TestEveryFiniteReading:
    """Bound 0 is lossless for every finite reading: a code past float32's range is pinned, and its decode patched."""

    N, K = 16, 4

    @pytest.fixture(scope="class")
    def models(self):
        X = dataset.make_windows(dataset.synth_dataset(6, 3000, seed=3), "temporal", self.N)[:600]
        return {"ae": ae.init_params(self.N, self.K, seed=0, sigma=estimate_sigma(X)),
                "pca": baselines.pca_fit(X, self.K), "dct": baselines.DctModel(self.N, self.K)}

    @pytest.mark.parametrize("method", ["ae", "pca", "dct"])
    @settings(max_examples=100, deadline=None)
    @given(P=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(N)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_bound_zero_round_trips_bitwise(self, tmp_path_factory, models, method, P):
        model = models[method]
        n, k = self.N, model.code_width - 1  # the wire's k: the code words before the last
        path = tmp_path_factory.mktemp("finite") / "packets.bin"
        codec.write_packet_stream(codec.compress_batch(P, model, 0.0), n, k, path)
        decoded = codec.decompress_batch(codec.read_packet_stream(path, n, k), model)
        assert np.array_equal(decoded.view(np.uint64), P.view(np.uint64))
        for p in P:
            blob = codec.serialize_packet(codec.compress(p, model, 0.0), n, k)
            q = codec.decompress(codec.deserialize_packet(blob, n, k), model)
            assert np.array_equal(q.view(np.uint64), p.view(np.uint64))


def reference_compress(p, model, bound, wide):
    """The per-vector encoder written out, its products in the format's order."""
    m32 = np.float32(p.mean())
    y32 = ae.sigmoid(ordered_matvec(model.w_enc, normalize(p, model.sigma)) + model.b_enc).astype(np.float32)
    q = reference_reconstruction(y32, m32, model)
    indicator = np.abs(p - q) > bound
    if wide:
        values = p[indicator]
    else:
        values = (p - q)[indicator].astype(np.float32)
    return codec.Packets(code=[[*y32, m32]], eps=ResidualCode(indicator=indicator, values=values))


def reference_reconstruction(y32, m32, model):
    z = ae.sigmoid(ordered_matvec(model.w_dec, y32) + model.b_dec)
    return (3.0 * model.sigma.sigma / 0.4) * (z - 0.5) + float(m32)


def reference_decompress(pkt, model):
    """The per-vector decoder: 64-bit patches replace readings, 32-bit ones add to them."""
    q = reference_reconstruction(pkt.code[0, :-1], pkt.code[0, -1], model)
    if pkt.eps.values.dtype == np.float64:
        q[pkt.eps.indicator] = pkt.eps.values
        return q
    return q + residual_decode(pkt.eps, model.n)


class TestBatchParity:
    """The batch path against the per-vector codec, bit for bit."""

    @pytest.mark.parametrize("mode", ["temporal", "spatial"])
    @pytest.mark.parametrize("bound", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("count", [1, 2, 7, 1000])
    def test_rows_stream_and_decode(self, tmp_path, mode, bound, count):
        rng = np.random.default_rng([count, int(100 * bound), mode == "spatial"])
        n, k = (6, 2) if mode == "spatial" else (16, 4)
        matrix = dataset.synth_dataset(6, 3000, seed=int(rng.integers(1000)))
        P = dataset.make_windows(matrix, mode, n)[:count]
        theta = ae.init_params(n, k, seed=int(rng.integers(1000)))
        model = ae.ModelParams(w_enc=theta.w_enc, b_enc=theta.b_enc, w_dec=theta.w_dec,
                               b_dec=theta.b_dec, n=n, k=k, sigma=SpheringScale(float(rng.uniform(0.5, 4))))
        wide = bound == 0.0

        packets = codec.compress_batch(P, model, bound)
        rows = [codec.compress(p, model, bound) for p in P]
        assert len(packets) == count
        assert rows == [reference_compress(p, model, bound, wide) for p in P]

        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, n, k, path)
        assert path.read_bytes() == b"".join(codec.serialize_packet(pkt, n, k) for pkt in rows)

        decoded = codec.decompress_batch(codec.read_packet_stream(path, n, k), model)
        one_by_one = np.array([codec.decompress(pkt, model) for pkt in rows])
        reference = np.array([reference_decompress(pkt, model) for pkt in rows])
        assert np.array_equal(decoded.view(np.uint64), one_by_one.view(np.uint64))
        assert np.array_equal(decoded.view(np.uint64), reference.view(np.uint64))
        assert np.max(np.abs(decoded - P)) <= bound

    def test_empty_batch(self, model, tmp_path):
        packets = codec.compress_batch(np.empty((0, 8)), model, 0.1)
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 8, 3, path)
        assert path.read_bytes() == b""
        back = codec.read_packet_stream(path, 8, 3)
        assert len(back) == 0 and back == packets
        assert codec.decompress_batch(back, model).shape == (0, 8)

    def test_wrong_width_rejected(self, model):
        with pytest.raises(ValueError, match="input shape"):
            codec.compress_batch(np.zeros((4, 7)), model, 0.1)
        with pytest.raises(ValueError, match="input shape"):
            codec.compress_batch(np.zeros(8), model, 0.1)


class TestTransformModels:
    """The AE, PCA and DCT go through one codec, patched against the decode of their float32 wire code."""

    N, K = 16, 4

    @pytest.fixture(scope="class")
    def windows(self):
        X = dataset.make_windows(dataset.synth_dataset(6, 3000, seed=3), "temporal", self.N)
        return X[:600], X[600:]

    @pytest.mark.parametrize("bound", [0.0, 1e-9, 1e-6, 0.02, 0.1])
    @pytest.mark.parametrize("method, code_bits", [("ae", 32 * (K + 1)), ("pca", 32 * K), ("dct", K * (32 + 4))])
    def test_decoder_holding_only_the_wire_code_meets_the_bound(self, windows, method, code_bits, bound):
        train_X, P = windows
        model = {
            "ae": lambda: ae.init_params(self.N, self.K, seed=0, sigma=estimate_sigma(train_X)),
            "pca": lambda: baselines.pca_fit(train_X, self.K),
            "dct": lambda: baselines.DctModel(self.N, self.K),
        }[method]()
        packets = codec.compress_batch(P, model, bound)
        received = codec.Packets(code=packets.code.copy(),
                                 eps=ResidualCode(packets.eps.indicator.copy(), packets.eps.values.copy()))
        assert np.max(np.abs(codec.decompress_batch(received, model) - P)) <= bound
        assert received == codec.Packets(code=received.code, eps=patches(P, model.decode(received.code), bound))
        bits_code, _ = codec.packets_size_bits(received, model)
        assert bits_code == code_bits * len(P)


def _host_digests() -> str:
    """sha256 digests of the sigmoid on seeded draws and of lossy AE, DCT and PCA round trips, one per line.

    The inputs are built from normal draws and arithmetic only: numpy's
    float64 `sin` or `exp` would make the inputs themselves depend on the host.
    The PCA basis is DCT rows, not `pca_fit`'s, whose SVD runs on LAPACK.
    """
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(-750.0, 750.0, 50_000), rng.normal(0.0, 4.0, 50_000)])
    digests = [hashlib.sha256(ae.sigmoid(x).tobytes()).hexdigest()]
    P = 15.0 + np.cumsum(rng.normal(0.0, 0.3, (2000, 16)), axis=1)
    models = (ae.init_params(16, 4, seed=0, sigma=estimate_sigma(P)), baselines.DctModel(16, 4),
              baselines.LinearBasisModel(np.full(16, 15.0), baselines.dct_matrix(16)[1:5].copy()))
    for model, bound in itertools.product(models, (0.02, 0.1)):
        packets = codec.compress_batch(P, model, bound)
        h = hashlib.sha256(packets.code.tobytes() + packets.eps.indicator.tobytes() + packets.eps.values.tobytes())
        h.update(codec.decompress_batch(packets, model).tobytes())
        digests.append(h.hexdigest())
    return "\n".join(digests)


class TestHostIndependence:
    # the AVX-512 targets of numpy's float64 `exp`, whose last bit differs from libm's
    AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

    def test_same_bits_without_avx512(self):
        """The sigmoid and the lossy codecs give the same bits on numpy's and OpenBLAS's pre-AVX-512 kernels.

        The child turns off the AVX-512 targets this numpy dispatches and runs
        OpenBLAS on its Prescott (SSE3) core. On a host without AVX-512, or a
        numpy that names its targets otherwise, no numpy target is turned off.
        `OPENBLAS_CORETYPE` bites only on an OpenBLAS built with DYNAMIC_ARCH,
        as numpy's wheels are; elsewhere the child keeps the parent's BLAS
        kernels, and the test shows nothing about them.
        """
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        dispatched = getattr(umath, "__cpu_dispatch__", ())
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(f for f in self.AVX512 if f in dispatched),
                   OPENBLAS_CORETYPE="Prescott",
                   PYTHONPATH=os.pathsep.join([str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, "-c", "import test_codec; print(test_codec._host_digests())"],
                               env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == _host_digests()


class TestFuzz:
    """Arbitrary or corrupted bytes make the readers raise FormatError and nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=120), n=st.integers(1, 20), k=st.integers(1, 6))
    def test_deserialize_packet(self, data, n, k):
        try:
            packet = codec.deserialize_packet(data, n, k)
        except FormatError:
            return
        assert codec.serialize_packet(packet, n, k) == data

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=300), n=st.integers(1, 20), k=st.integers(1, 6))
    def test_read_packet_stream(self, tmp_path_factory, data, n, k):
        path = tmp_path_factory.mktemp("fuzz") / "packets.bin"
        path.write_bytes(data)
        try:
            packets = codec.read_packet_stream(path, n, k)
        except FormatError:
            return
        codec.write_packet_stream(packets, n, k, path)
        assert path.read_bytes() == data

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(codec.MODEL_MAGIC.__add__)))
    def test_load_model_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "model.aeb"
        path.write_bytes(data)
        try:
            codec.load_model(path)
        except FormatError:
            pass

    @pytest.mark.filterwarnings("ignore:code dimension k")  # k >= n is a valid model
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 6),
           edits=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 255)), min_size=1, max_size=6))
    def test_load_model_mutated_header(self, tmp_path_factory, n, k, edits):
        path = tmp_path_factory.mktemp("fuzz") / "model.aeb"
        codec.save_model(ae.init_params(n, k, seed=0, sigma=SpheringScale(1.5)), 0.1, "temporal", path)
        data = bytearray(path.read_bytes())
        for offset, byte in edits:  # header: magic, u16 version, u32 n, u32 k, f64 sigma, f64 bound, u8 mode
            data[offset] = byte
        path.write_bytes(bytes(data))
        try:
            codec.load_model(path)
        except FormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), n=st.integers(1, 20),
           k=st.integers(1, 6), wide=st.booleans(), cut=st.booleans())
    def test_first_bad_packet_named(self, tmp_path_factory, seed, count, n, k, wide, cut):
        rng = np.random.default_rng(seed)
        blobs = [codec.serialize_packet(random_packet(rng, n, k, wide=wide), n, k)
                 for _ in range(count)]
        bad = int(rng.integers(count))
        start = sum(len(blob) for blob in blobs[:bad])
        data = bytearray(b"".join(blobs))
        if cut:  # end the file inside the bad packet
            data = data[: start + int(rng.integers(1, len(blobs[bad])))]
        else:  # give the bad packet a wrong length prefix: any, a little long, one short
            true_length = len(blobs[bad]) - 4
            length = [int(rng.integers(0, 2**32 - 1)), true_length + int(rng.integers(1, 9)),
                      true_length - 1][int(rng.integers(3))]
            struct.pack_into("<I", data, start, length + (length == true_length))
        path = tmp_path_factory.mktemp("fuzz") / "packets.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=rf"^packet {bad}: "):
            codec.read_packet_stream(path, n, k)
