import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aebound import baselines
from aebound.errors import FormatError, RangeError


class TestLtc:
    def test_perfectly_linear_single_segment(self):
        series = np.linspace(0.0, 10.0, 50)
        for bound in (0.01, 0.5, 3.0):
            segs = baselines.ltc_compress(series, bound)
            assert len(segs) == 1

    def test_alternating_series_defeats_ltc(self):
        series = np.array([0.0, 1.0] * 20)
        segs = baselines.ltc_compress(series, 0.1)
        assert len(segs) >= len(series) - 2  # nearly one segment per step

    def test_per_index_error_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            series = rng.normal(0, 5, n)
            bound = float(rng.uniform(0.01, 2.0))
            segs = baselines.ltc_compress(series, bound)
            rec = baselines.ltc_decompress(segs)
            assert rec.shape == series.shape
            assert np.max(np.abs(rec - series)) <= bound + 1e-12

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            baselines.ltc_compress(np.array([1.0]), 0.1)

    def test_decompress_single_segment(self):
        segs = [baselines.LtcSegment(0, 10, 0.0, 5.0)]
        rec = baselines.ltc_decompress(segs)
        np.testing.assert_allclose(rec, np.linspace(0, 5, 11))

    def test_gap_rejected(self):
        segs = [baselines.LtcSegment(0, 3, 0.0, 1.0), baselines.LtcSegment(5, 8, 1.0, 2.0)]
        with pytest.raises(FormatError):
            baselines.ltc_decompress(segs)

    def test_overlap_rejected(self):
        segs = [baselines.LtcSegment(0, 4, 0.0, 1.0), baselines.LtcSegment(2, 8, 1.0, 2.0)]
        with pytest.raises(FormatError):
            baselines.ltc_decompress(segs)

    def test_fewer_segments_at_larger_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            series = np.cumsum(rng.normal(0, 1, 100))
            b1, b2 = sorted(rng.uniform(0.05, 2.0, 2))
            assert len(baselines.ltc_compress(series, b1)) >= len(baselines.ltc_compress(series, b2))


class TestLzwCore:
    @given(st.binary(max_size=2000))
    @settings(max_examples=200, deadline=None)
    def test_lossless_roundtrip(self, data):
        codes = baselines._lzw_encode(data)
        assert baselines._lzw_decode(codes) == data

    def test_dictionary_reset_roundtrip(self):
        rng = np.random.default_rng(2)
        # long enough to overflow the 4096-entry dictionary several times
        data = bytes(rng.integers(0, 256, 100_000, dtype=np.uint8))
        assert baselines._lzw_decode(baselines._lzw_encode(data)) == data

    def test_code_packing_roundtrip(self):
        rng = np.random.default_rng(3)
        codes = [int(c) for c in rng.integers(0, 4096, 500)]
        assert baselines._unpack_codes(baselines._pack_codes(codes)) == codes

    def test_invalid_code_rejected(self):
        with pytest.raises(FormatError):
            baselines._lzw_decode([0, 4000])  # far beyond the dictionary


class TestTruncatedLzw:
    def test_fraction_bits_hand_example(self):
        # at a 0.1 error bound, 10.51 needs at most 3 fractional bits:
        # round-to-nearest at 2^-3 leaves error <= 0.0625 <= 0.1
        f = baselines._fraction_bits(0.1)
        assert 0.5 / (1 << f) <= 0.1
        assert f == 3
        blob = baselines.lzw_truncated_compress(np.array([10.51]), 0.1)
        back = baselines.lzw_truncated_decompress(blob, 1)
        assert abs(back[0] - 10.51) <= 0.1

    def test_constant_vector_collapses(self):
        p = np.full(1000, 17.25)
        blob = baselines.lzw_truncated_compress(p, 0.1)
        assert len(blob) * 8 < 1000 * 32 / 4  # far smaller than raw

    def test_roundtrip_error_at_f24(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(-100, 100, 200)
        blob = baselines.lzw_truncated_compress(p, 0.0)
        back = baselines.lzw_truncated_decompress(blob, 200)
        assert np.max(np.abs(back - p)) <= 2.0**-25 * (1 << 1)  # half quantization step

    def test_bound_respected_across_bounds(self):
        rng = np.random.default_rng(5)
        for bound in (0.01, 0.1, 0.3, 0.5, 1.0, 5.0):
            p = rng.uniform(-1000, 1000, 100)
            blob = baselines.lzw_truncated_compress(p, bound)
            back = baselines.lzw_truncated_decompress(blob, 100)
            assert np.max(np.abs(back - p)) <= bound

    def test_range_error(self):
        with pytest.raises(RangeError):
            baselines.lzw_truncated_compress(np.array([1e9]), 0.1)

    def test_empty_stream(self):
        assert baselines.lzw_truncated_decompress(b"", 0).shape == (0,)

    def test_corrupt_stream(self):
        blob = baselines.lzw_truncated_compress(np.arange(50.0), 0.1)
        corrupt = blob[:2] + bytes([0xFA, 0x0F]) * 40
        with pytest.raises(FormatError):
            baselines.lzw_truncated_decompress(corrupt, 50)


class TestPca:
    def test_vector_rejected_with_shape(self):
        with pytest.raises(ValueError, match=r"\(B, n\)"):
            baselines.pca_fit(np.arange(8.0), 2)

    def test_exact_subspace(self):
        rng = np.random.default_rng(6)
        basis = np.linalg.qr(rng.normal(size=(6, 2)))[0].T  # 2 x 6 orthonormal
        data = rng.normal(size=(30, 2)) @ basis + rng.normal(size=6)
        model = baselines.pca_fit(list(data), 2)
        for p in data[:10]:
            rec = baselines.pca_decompress(baselines.pca_compress(p, model), model)
            assert np.max(np.abs(rec - p)) <= 1e-9

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 6))
        for k in (1, 2, 4):
            model = baselines.pca_fit(list(X), k)
            recon = np.stack(
                [baselines.pca_decompress(baselines.pca_compress(p, model), model) for p in X]
            )
            err = np.sum((X - recon) ** 2)
            # oracle: best rank-k approximation of the centered matrix
            mean = X.mean(axis=0)
            u, s, vt = np.linalg.svd(X - mean, full_matrices=False)
            oracle = mean + (u[:, :k] * s[:k]) @ vt[:k]
            err_oracle = np.sum((X - oracle) ** 2)
            assert abs(err - err_oracle) <= 1e-9

    def test_components_orthonormal(self):
        rng = np.random.default_rng(8)
        model = baselines.pca_fit(list(rng.normal(size=(20, 7))), 4)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-9)

    def test_full_basis_reconstructs_training_span(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 5))
        model = baselines.pca_fit(list(X), 5)
        for p in X[:5]:
            rec = baselines.pca_decompress(baselines.pca_compress(p, model), model)
            assert np.max(np.abs(rec - p)) <= 1e-9

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(25, 8))
        errs = []
        for k in range(1, 9):
            model = baselines.pca_fit(list(X), k)
            errs.append(
                sum(
                    float(np.sum((p - baselines.pca_decompress(baselines.pca_compress(p, model), model)) ** 2))
                    for p in X
                )
            )
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))

    def test_rank_error(self):
        X = np.outer(np.arange(5.0), np.ones(4))  # centered rank 1
        with pytest.raises(ValueError):
            baselines.pca_fit(list(X), 3)


class TestDct:
    def test_constant_vector_dc_only(self):
        p = np.full(16, 3.5)
        pairs = baselines.dct_compress(p, 1)
        assert pairs[0][0] == 0
        rec = baselines.dct_decompress(pairs, 16)
        np.testing.assert_allclose(rec, p, atol=1e-12)

    def test_full_spectrum_exact(self):
        rng = np.random.default_rng(11)
        p = rng.normal(size=12)
        rec = baselines.dct_decompress(baselines.dct_compress(p, 12), 12)
        assert np.max(np.abs(rec - p)) <= 1e-9

    def test_orthonormality(self):
        n = 16
        basis = np.stack([
            baselines.dct_decompress([(i, 1.0)], n) for i in range(n)
        ])  # rows = inverse transform of unit spectra = DCT basis vectors
        np.testing.assert_allclose(basis @ basis.T, np.eye(n), atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = rng.normal(size=20)
            pairs = baselines.dct_compress(p, 20)
            energy = sum(c * c for _, c in pairs)
            assert abs(energy - float(np.sum(p**2))) <= 1e-9

    def test_matches_cosine_sum_oracle(self):
        rng = np.random.default_rng(13)
        n = 10
        p = rng.normal(size=n)
        pairs = dict(baselines.dct_compress(p, n))
        for j in range(n):
            scale = math.sqrt(1.0 / n) if j == 0 else math.sqrt(2.0 / n)
            oracle = scale * sum(p[i] * math.cos(math.pi * j * (2 * i + 1) / (2 * n)) for i in range(n))
            assert pairs[j] == pytest.approx(oracle, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            baselines.dct_compress(np.zeros(4), 5)
        with pytest.raises(ValueError):
            baselines.dct_compress(np.zeros(4), 0)
