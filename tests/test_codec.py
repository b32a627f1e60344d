import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aebound import autoencoder as ae, codec, dataset
from aebound.errors import FormatError, UnsupportedVersionError
from aebound.residual import ResidualCode, residual_decode
from aebound.sphering import SpheringScale, normalize


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
        y=rng.uniform(0, 1, (1, k)).astype(np.float32),
        m=[np.float32(rng.normal())],
        eps=ResidualCode(indicator=indicator,
                         values=rng.normal(size=n_resid).astype(np.float64 if wide else np.float32)),
    )


def stream_prefixes(data: bytes) -> list[int]:
    """The u32 length prefixes of a packet stream, walked by their low 31 bits."""
    prefixes, offset = [], 0
    while offset < len(data):
        (prefix,) = struct.unpack_from("<I", data, offset)
        prefixes.append(prefix)
        offset += 4 + (prefix & (codec.WIDE_FLAG - 1))
    return prefixes


def stream_of(blobs, wide=False) -> bytes:
    """Packet bodies joined with their u32 length prefixes, flagged when the patches are float64."""
    return b"".join(struct.pack("<I", len(blob) | (codec.WIDE_FLAG if wide else 0)) + blob for blob in blobs)


class TestCompressDecompress:
    def test_huge_bound_empty_residual(self, model):
        p = np.arange(8.0)
        pkt = codec.compress(p, model, 1e12)
        assert pkt.eps.count == 0
        bc, br = codec.packet_size_bits(pkt, 8, 3)
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
        z = ae.sigmoid(model.w_dec @ pkt.y[0].astype(np.float64) + model.b_dec)
        expected = (3 * model.sigma.sigma / 0.4) * (z - 0.5) + float(pkt.m[0])
        np.testing.assert_array_equal(q, expected)

    def test_hand_built_packet(self):
        m2 = ae.ModelParams(
            w_enc=np.zeros((1, 2)), b_enc=np.zeros(1), w_dec=np.zeros((2, 1)),
            b_dec=np.zeros(2), n=2, k=1, sigma=SpheringScale(1.0),
        )
        pkt = codec.Packets(
            y=np.array([[0.7]], dtype=np.float32),
            m=[np.float32(5.0)],
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
        bad = codec.Packets(y=pkt.y[:, :2], m=pkt.m, eps=pkt.eps)
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
           k=st.integers(1, 4), sigma=st.floats(0.1, 10.0), offset=st.floats(-1e6, 1e6),
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
            assert sum(codec.packet_size_bits(pk1, 8, 3)) >= sum(codec.packet_size_bits(pk2, 8, 3))


class TestOnePacket:
    """A packet is a one-row `Packets`: the one-packet functions return one and take only one."""

    @pytest.mark.parametrize("bound", [0.0, 0.05, 1e12])
    def test_compress_is_the_batch_row(self, model, bound):
        p = np.random.default_rng(13).normal(0, 3, 8)
        pkt = codec.compress(p, model, bound)
        assert isinstance(pkt, codec.Packets) and len(pkt) == 1
        (row,) = codec.compress_batch(p[None], model, bound)
        assert pkt == row == codec.compress_batch(p[None], model, bound)

    @pytest.mark.parametrize("bound", [0.0, 0.2])
    def test_serialize_roundtrip_of_rows(self, model, bound):
        packets = codec.compress_batch(np.random.default_rng(14).normal(0, 3, (20, 8)), model, bound)
        for row in packets:
            back = codec.deserialize_packet(codec.serialize_packet(row, 8, 3), 8, 3, wide_residuals=bound == 0)
            assert isinstance(back, codec.Packets) and back == row

    @pytest.mark.parametrize("call", [
        lambda pkt, model: codec.decompress(pkt, model),
        lambda pkt, model: codec.serialize_packet(pkt, 8, 3),
        lambda pkt, model: codec.packet_size_bits(pkt, 8, 3),
    ], ids=["decompress", "serialize_packet", "packet_size_bits"])
    def test_two_rows_rejected(self, model, call):
        two = codec.compress_batch(np.random.default_rng(15).normal(0, 3, (2, 8)), model, 0.1)
        with pytest.raises(ValueError, match="expected one packet, got 2"):
            call(two, model)

    def test_equality_compares_shapes(self):
        def empty(k):
            return codec.Packets(y=np.empty((0, k)), m=[], eps=ResidualCode(np.zeros(0, bool), np.zeros(0, np.float32)))
        assert empty(3) == empty(3)
        assert empty(3) != empty(4)


class TestSerialization:
    def test_empty_eps_byte_count(self):
        rng = np.random.default_rng(4)
        pkt = random_packet(rng, 8, 2, n_resid=0)
        assert len(codec.serialize_packet(pkt, 8, 2)) == 13  # 2*4 + 4 + 1

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
            y=np.array([[0.25]], dtype=np.float32), m=[np.float32(1.5)],
            eps=ResidualCode(indicator=indicator, values=np.array([0.1, -0.3])),
        )
        blob = codec.serialize_packet(pkt, 3, 1)
        back = codec.deserialize_packet(blob, 3, 1, wide_residuals=True)
        assert back == pkt

    def test_bits_match_serialized_length(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 33))
            k = int(rng.integers(1, 6))
            pkt = random_packet(rng, n, k)
            bc, br = codec.packet_size_bits(pkt, n, k)
            padding = 8 * ((n + 7) // 8) - n
            assert bc + br == 8 * len(codec.serialize_packet(pkt, n, k)) - padding


class TestPacketSizeBits:
    def test_arithmetic(self):
        rng = np.random.default_rng(9)
        pkt = random_packet(rng, 23, 4, n_resid=0)
        assert codec.packet_size_bits(pkt, 23, 4) == (160, 23)
        pkt = random_packet(rng, 23, 4, n_resid=1)
        assert codec.packet_size_bits(pkt, 23, 4) == (160, 55)


class TestModelFile:
    def test_roundtrip_bitwise(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.25, path)
        loaded, bound = codec.load_model(path)
        assert bound == 0.25
        assert loaded.n == model.n and loaded.k == model.k
        assert loaded.sigma.sigma == model.sigma.sigma
        for name in ("w_enc", "b_enc", "w_dec", "b_dec"):
            assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()

    def test_corrupt_magic(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            codec.load_model(path)

    def test_future_version(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # version field, little-endian u16
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersionError):
            codec.load_model(path)

    def test_version_zero(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, path)
        data = bytearray(path.read_bytes())
        data[4] = 0
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version 0") as raised:
            codec.load_model(path)
        assert not isinstance(raised.value, UnsupportedVersionError)

    def test_truncated_file(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            codec.load_model(path)

    @pytest.mark.parametrize("bound", [np.nan, -1.0, np.inf])
    def test_bad_bound_not_saved(self, model, tmp_path, bound):
        path = tmp_path / "model.aeb"
        with pytest.raises(ValueError, match="bound"):
            codec.save_model(model, bound, path)
        assert not path.exists()

    # header: magic (4 bytes), u16 version, u32 n, u32 k, f64 sigma at 14, f64 bound at 22
    @pytest.mark.parametrize(
        "offset, value",
        [(14, np.nan), (14, 0.0), (14, -1.0), (14, np.inf), (22, np.nan), (22, -1.0), (22, np.inf)],
        ids=["sigma-nan", "sigma-0", "sigma-neg", "sigma-inf", "bound-nan", "bound-neg", "bound-inf"],
    )
    def test_bad_header_value(self, model, tmp_path, offset, value):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, path)
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
        one = codec.deserialize_packet(blob, 16, 4, wide_residuals=True)
        assert np.array_equal(codec.decompress(one, wide_model), windows[0])

    def test_unflagged_lossless_stream_rejected(self, tmp_path, windows, wide_model):
        # the layout before the length prefix carried the width: 8-byte patches, no flag
        blobs = [codec.serialize_packet(pkt, 16, 4) for pkt in codec.compress_batch(windows[:5], wide_model, 0.0)]
        path = tmp_path / "packets.bin"
        path.write_bytes(stream_of(blobs))
        with pytest.raises(FormatError, match=r"^packet 0: length \d+ != expected"):
            codec.read_packet_stream(path, 16, 4)

    def test_writers_reject_other_widths(self, tmp_path):
        pkt = random_packet(np.random.default_rng(12), 8, 3, n_resid=2)
        half = codec.Packets(y=pkt.y, m=pkt.m,
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
        assert len(back) == 7 and list(back) == list(packets)

    @pytest.mark.parametrize("first_wide", [False, True])
    def test_mixed_widths_name_the_first_that_differs(self, tmp_path, first_wide):
        rng = np.random.default_rng(16)
        widths = [first_wide, first_wide, not first_wide, first_wide]
        data = b"".join(stream_of([codec.serialize_packet(random_packet(rng, 8, 3, n_resid=2, wide=wide), 8, 3)], wide)
                        for wide in widths)
        path = tmp_path / "packets.bin"
        path.write_bytes(data)
        bits = (64, 32) if first_wide else (32, 64)
        with pytest.raises(FormatError, match=rf"^packet 2: {bits[1]}-bit patches in a stream of {bits[0]}-bit ones"):
            codec.read_packet_stream(path, 8, 3)

    def test_truncated_stream_names_packet_index(self, model, tmp_path):
        rng = np.random.default_rng(11)
        packets = codec.compress_batch(rng.normal(0, 3, (3, 8)), model, 0.2)
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 8, 3, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="packet 2"):
            codec.read_packet_stream(path, 8, 3)


def reference_compress(p, model, bound, wide):
    """The per-vector encoder written out with one-vector matrix products."""
    m32 = np.float32(p.mean())
    y32 = ae.sigmoid(model.w_enc @ normalize(p, model.sigma) + model.b_enc).astype(np.float32)
    q = reference_reconstruction(y32, m32, model)
    indicator = np.abs(p - q) > bound
    if wide:
        values = p[indicator]
    else:
        values = (p - q)[indicator].astype(np.float32)
    return codec.Packets(y=y32[None], m=[m32], eps=ResidualCode(indicator=indicator, values=values))


def reference_reconstruction(y32, m32, model):
    z = ae.sigmoid(model.w_dec @ y32.astype(np.float64) + model.b_dec)
    return (3.0 * model.sigma.sigma / 0.4) * (z - 0.5) + float(m32)


def reference_decompress(pkt, model):
    """The per-vector decoder: 64-bit patches replace readings, 32-bit ones add to them."""
    q = reference_reconstruction(pkt.y[0], pkt.m[0], model)
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
        rows = list(packets)
        assert len(packets) == len(rows) == count
        assert rows == [codec.compress(p, model, bound) for p in P]
        assert rows == [reference_compress(p, model, bound, wide) for p in P]

        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, n, k, path)
        assert path.read_bytes() == stream_of((codec.serialize_packet(pkt, n, k) for pkt in rows), wide)

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
        assert len(back) == 0 and list(back) == []
        assert codec.decompress_batch(back, model).shape == (0, 8)

    def test_wrong_width_rejected(self, model):
        with pytest.raises(ValueError, match="input shape"):
            codec.compress_batch(np.zeros((4, 7)), model, 0.1)
        with pytest.raises(ValueError, match="input shape"):
            codec.compress_batch(np.zeros(8), model, 0.1)


class TestFuzz:
    """Arbitrary or corrupted bytes make the readers raise FormatError and nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=120), n=st.integers(1, 20), k=st.integers(1, 6), wide=st.booleans())
    def test_deserialize_packet(self, data, n, k, wide):
        try:
            packet = codec.deserialize_packet(data, n, k, wide)
        except FormatError:
            return
        assert len(codec.serialize_packet(packet, n, k)) == len(data)

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
        assert path.stat().st_size == len(data)

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
           edits=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 255)), min_size=1, max_size=6))
    def test_load_model_mutated_header(self, tmp_path_factory, n, k, edits):
        path = tmp_path_factory.mktemp("fuzz") / "model.aeb"
        codec.save_model(ae.init_params(n, k, seed=0, sigma=SpheringScale(1.5)), 0.1, path)
        data = bytearray(path.read_bytes())
        for offset, byte in edits:  # header: magic, u16 version, u32 n, u32 k, f64 sigma, f64 bound
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
        start = sum(4 + len(blob) for blob in blobs[:bad])
        data = bytearray(stream_of(blobs, wide))
        if cut:  # end the file inside the bad packet
            data = data[: start + int(rng.integers(1, 4 + len(blobs[bad])))]
        else:  # give the bad packet a wrong length prefix: any, a little long, one short
            true_length = len(blobs[bad])
            length = [int(rng.integers(0, 2**32 - 1)), true_length + int(rng.integers(1, 9)),
                      true_length - 1][int(rng.integers(3))]
            struct.pack_into("<I", data, start, length + (length == true_length))
        path = tmp_path_factory.mktemp("fuzz") / "packets.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=rf"^packet {bad}: "):
            codec.read_packet_stream(path, n, k)
