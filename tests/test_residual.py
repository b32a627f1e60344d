import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aebound import autoencoder as ae, baselines, codec, harness
from aebound import residual
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


class TestPatchRule:
    """`patches` encodes, `apply` decodes and `row_bits` charges, for every patched codec."""

    P = np.array([[20.0, 21.5, 19.25], [18.0, 22.0, 20.125]])
    Q = np.array([[20.5, 21.5, 19.0], [18.0, 21.0, 20.0]])

    def test_narrow_patches_are_float32_residuals_added_back(self):
        code = residual.patches(self.P, self.Q, 0.2)
        assert code.values.dtype == np.float32
        np.testing.assert_array_equal(code.indicator, [True, False, True, False, True, False])
        np.testing.assert_array_equal(code.values, [-0.5, 0.25, 1.0])
        np.testing.assert_array_equal(residual.apply(code, self.Q.copy()), [[20.0, 21.5, 19.25], [18.0, 22.0, 20.0]])
        np.testing.assert_array_equal(residual.row_bits(code, 3), [3 + 2 * 32, 3 + 32])

    def test_wide_patches_are_readings_written_in_place(self):
        Q = self.Q + 1e-17  # no float64 residual repairs these exactly; the readings do
        code = residual.patches(self.P, Q, 0.0)
        assert code.values.dtype == np.float64
        np.testing.assert_array_equal(code.values, self.P.ravel()[code.indicator])
        assert residual.apply(code, Q).tobytes() == self.P.tobytes()
        np.testing.assert_array_equal(residual.row_bits(code, 3), 3 + 64 * code.indicator.reshape(2, 3).sum(axis=1))

    def test_empty_batch(self):
        code = residual.patches(np.zeros((0, 4)), np.zeros((0, 4)), 0.1)
        assert residual.row_bits(code, 4).shape == (0,)
        assert residual.apply(code, np.zeros((0, 4))).shape == (0, 4)

    @pytest.mark.parametrize("p, q, bound", [
        ([15.1, 15.0], [0.3, 15.0], 1e-9),  # float32 rounds the residual by more than the bound
        ([1e39, 1.0], [0.0, 1.0], 1.0),  # the residual overflows float32
    ], ids=["below-resolution", "overflow"])
    def test_what_float32_cannot_hold_goes_as_readings(self, p, q, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = residual.patches(p, q, bound)
        assert code.values.dtype == np.float64
        np.testing.assert_array_equal(code.values, np.array(p)[code.indicator])
        assert np.max(np.abs(residual.apply(code, np.array(q)) - p)) <= bound
