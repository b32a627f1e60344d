import numpy as np
import pytest
from hypothesis import given, strategies as st

from aebound import autoencoder as ae, baselines, codec, harness
from aebound.errors import FormatError
from aebound.residual import ResidualCode, residual_code, residual_decode


@pytest.mark.parametrize(
    "call",
    [
        lambda b: residual_code(np.ones(8), b),
        lambda b: codec.compress(np.arange(8.0), ae.init_params(8, 3, seed=0), b),
        lambda b: baselines.ltc_compress(np.arange(8.0), b),
        lambda b: baselines.lzw_truncated_compress(np.arange(8.0), b),
        lambda b: harness.BenchmarkConfig(bounds=(0.1, b)),
    ],
    ids=["residual_code", "codec.compress", "ltc_compress", "lzw_truncated_compress", "BenchmarkConfig"],
)
def test_nan_bound_rejected(call):
    with pytest.raises(ValueError, match="nan"):
        call(float("nan"))


class TestResidualCode:
    def test_single_out_of_bound_entry(self):
        code = residual_code(np.array([0.05, 0.5, 0.01]), 0.1)
        np.testing.assert_array_equal(code.indicator, [False, True, False])
        np.testing.assert_array_equal(code.values, [0.5])

    def test_negative_residual_selected_by_magnitude(self):
        code = residual_code(np.array([-0.5, 0.05]), 0.1)
        np.testing.assert_array_equal(code.indicator, [True, False])
        np.testing.assert_array_equal(code.values, [-0.5])

    def test_huge_bound_empty_code(self):
        code = residual_code(np.array([1e6, -1e6, 3.0]), 1e300)
        assert code.count == 0

    def test_entry_exactly_at_bound_not_transmitted(self):
        code = residual_code(np.array([0.1, -0.1]), 0.1)
        assert code.count == 0

    def test_bound_zero_transmits_nonzero(self):
        code = residual_code(np.array([0.0, 1e-300, -2.0]), 0.0)
        np.testing.assert_array_equal(code.indicator, [False, True, True])

    def test_mismatched_counts_rejected(self):
        with pytest.raises(FormatError):
            ResidualCode(indicator=np.array([True, True]), values=np.array([1.0]))


class TestResidualDecode:
    def test_definition(self):
        code = ResidualCode(indicator=np.array([False, True, False]), values=np.array([0.5]))
        np.testing.assert_array_equal(residual_decode(code, 3), [0.0, 0.5, 0.0])

    def test_empty_code_gives_zeros(self):
        code = ResidualCode(indicator=np.zeros(4, dtype=bool), values=np.zeros(0))
        np.testing.assert_array_equal(residual_decode(code, 4), np.zeros(4))

    def test_length_mismatch(self):
        code = ResidualCode(indicator=np.array([True, False]), values=np.array([1.0]))
        with pytest.raises(FormatError):
            residual_decode(code, 3)


class TestBoundGuaranteeKernel:
    @given(
        st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=64),
        st.floats(0, 1e6),
    )
    def test_infinity_norm_bound(self, r, bound):
        r = np.array(r)
        rec = residual_decode(residual_code(r, bound), r.shape[0])
        assert np.max(np.abs(r - rec)) <= bound

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=32), st.floats(0, 10))
    def test_decode_places_values_at_original_indices(self, r, bound):
        r = np.array(r)
        code = residual_code(r, bound)
        # brute-force reconstruction
        brute = np.array([ri if abs(ri) > bound else 0.0 for ri in r])
        np.testing.assert_array_equal(residual_decode(code, r.shape[0]), brute)

    def test_monotone_payload(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = rng.normal(0, 2, 30)
            b1, b2 = sorted(rng.uniform(0, 3, 2))
            assert residual_code(r, b1).count >= residual_code(r, b2).count
