import struct

import numpy as np
import pytest

from aebound import autoencoder as ae, codec
from aebound.errors import FormatError, UnsupportedVersionError
from aebound.residual import ResidualCode
from aebound.sphering import SpheringScale


@pytest.fixture
def model():
    theta = ae.init_params(8, 3, seed=0)
    return ae.ModelParams(
        w_enc=theta.w_enc, b_enc=theta.b_enc, w_dec=theta.w_dec, b_dec=theta.b_dec,
        n=8, k=3, sigma=SpheringScale(2.0),
    )


def random_packet(rng, n, k, n_resid=None):
    if n_resid is None:
        n_resid = int(rng.integers(0, n + 1))
    indicator = np.zeros(n, dtype=bool)
    indicator[rng.choice(n, size=n_resid, replace=False)] = True
    return codec.Packet(
        y=rng.uniform(0, 1, k).astype(np.float32),
        m=np.float32(rng.normal()),
        eps=ResidualCode(indicator=indicator, values=rng.normal(size=n_resid).astype(np.float32)),
    )


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
        # residuals cannot exceed half the denormalized output range
        if pkt.eps.count:
            assert np.max(np.abs(pkt.eps.values)) <= 1.5 * model.sigma.sigma / 0.4

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
        z = ae.sigmoid(model.w_dec @ pkt.y.astype(np.float64) + model.b_dec)
        expected = (3 * model.sigma.sigma / 0.4) * (z - 0.5) + float(pkt.m)
        np.testing.assert_array_equal(q, expected)

    def test_hand_built_packet(self):
        m2 = ae.ModelParams(
            w_enc=np.zeros((1, 2)), b_enc=np.zeros(1), w_dec=np.zeros((2, 1)),
            b_dec=np.zeros(2), n=2, k=1, sigma=SpheringScale(1.0),
        )
        pkt = codec.Packet(
            y=np.array([0.7], dtype=np.float32),
            m=np.float32(5.0),
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
        bad = codec.Packet(y=pkt.y[:2], m=pkt.m, eps=pkt.eps)
        with pytest.raises(FormatError):
            codec.decompress(bad, model)

    def test_bits_monotone_in_bound(self, model):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = rng.normal(0, 5, 8)
            b1, b2 = sorted(rng.uniform(0.01, 3.0, 2))
            pk1 = codec.compress(p, model, b1)
            pk2 = codec.compress(p, model, b2)
            assert sum(codec.packet_size_bits(pk1, 8, 3)) >= sum(codec.packet_size_bits(pk2, 8, 3))


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
        pkt = codec.Packet(
            y=np.array([0.25], dtype=np.float32), m=np.float32(1.5),
            eps=ResidualCode(indicator=indicator, values=np.array([0.1, -0.3])),
        )
        blob = codec.serialize_packet(pkt, 3, 1, wide_residuals=True)
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

    def test_truncated_file(self, model, tmp_path):
        path = tmp_path / "model.aeb"
        codec.save_model(model, 0.1, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            codec.load_model(path)

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


class TestPacketStream:
    def test_roundtrip(self, model, tmp_path):
        rng = np.random.default_rng(10)
        packets = [codec.compress(rng.normal(0, 3, 8), model, 0.2) for _ in range(7)]
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 8, 3, path)
        back = codec.read_packet_stream(path, 8, 3)
        assert back == packets

    def test_truncated_stream_names_packet_index(self, model, tmp_path):
        rng = np.random.default_rng(11)
        packets = [codec.compress(rng.normal(0, 3, 8), model, 0.2) for _ in range(3)]
        path = tmp_path / "packets.bin"
        codec.write_packet_stream(packets, 8, 3, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="packet 2"):
            codec.read_packet_stream(path, 8, 3)
