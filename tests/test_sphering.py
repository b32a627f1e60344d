import numpy as np
import pytest
from hypothesis import given, strategies as st

from aebound import sphering
from aebound.errors import DegenerateDataError
from aebound.sphering import SpheringScale


class TestEstimateSigma:
    def test_two_point_symmetric(self):
        assert sphering.estimate_sigma([np.array([1.0, 3.0])]).sigma == pytest.approx(1.0)

    def test_pooled_population_sd(self):
        # centered entries {0,0,0} and {-2,0,2}; population SD = sqrt(8/6)
        scale = sphering.estimate_sigma([np.array([0.0, 0.0, 0.0]), np.array([2.0, 4.0, 6.0])])
        assert scale.sigma == pytest.approx(np.sqrt(8.0 / 6.0))

    def test_all_constant_vectors(self):
        with pytest.raises(DegenerateDataError):
            sphering.estimate_sigma([np.array([5.0, 5.0]), np.array([1.0, 1.0])])

    def test_empty_training(self):
        with pytest.raises(ValueError):
            sphering.estimate_sigma([])


class TestNormalize:
    def test_mean_maps_to_center(self):
        x = sphering.normalize(np.array([4.0, 4.0, 4.0, 8.0]), SpheringScale(2.0))
        assert x[0] == pytest.approx(x[1])
        # the mean itself maps to 0.5
        p = np.array([1.0, 3.0])
        x = sphering.normalize(p, SpheringScale(1.0))
        assert sphering.normalize(np.array([2.0, 2.0 + 1e-12]), SpheringScale(1.0))[0] == pytest.approx(0.5)

    def test_three_sigma_endpoints(self):
        sigma = SpheringScale(1.0)
        p = np.array([-3.0, 3.0])  # mean 0, entries exactly at +-3 sigma
        x = sphering.normalize(p, sigma)
        assert x[0] == pytest.approx(0.1)
        assert x[1] == pytest.approx(0.9)

    def test_outlier_clamped(self):
        sigma = SpheringScale(1.0)
        p = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 50.0])
        x = sphering.normalize(p - p.mean(), sigma)  # keep mean at 0 for clarity
        assert np.max(x) == pytest.approx(0.9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sphering.normalize(np.array([1.0, np.inf]), SpheringScale(1.0))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50),
        st.floats(1e-3, 1e4),
    )
    def test_range_invariant(self, entries, sigma):
        x = sphering.normalize(np.array(entries), SpheringScale(sigma))
        assert np.all(x >= 0.1 - 1e-12) and np.all(x <= 0.9 + 1e-12)

    def test_monotone_within_vector(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.normal(0, 5, 20)
            x = sphering.normalize(p, SpheringScale(1.0))
            order = np.argsort(p)
            assert np.all(np.diff(x[order]) >= 0)


class TestBatch:
    def _windows(self):
        rng = np.random.default_rng(3)
        scale = rng.uniform(0.01, 1000, (5000, 1))
        return rng.normal(size=(5000, 16)) * scale + rng.uniform(-1e4, 1e4, (5000, 1))

    def test_normalize_batch_equals_per_vector(self):
        X = self._windows()
        sigma = SpheringScale(float(np.std(X[:, 0])))
        expected = np.stack([sphering.normalize(row, sigma) for row in X])
        assert np.array_equal(sphering.normalize(X, sigma), expected)

    def test_estimate_sigma_batch_equals_per_vector(self):
        X = self._windows()
        assert sphering.estimate_sigma(X).sigma == sphering.estimate_sigma(list(X)).sigma

    def test_non_finite_batch_rejected(self):
        X = np.ones((3, 4))
        X[2, 1] = np.nan
        with pytest.raises(ValueError):
            sphering.normalize(X, SpheringScale(1.0))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            sphering.estimate_sigma(np.zeros((0, 4)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sphering.normalize(3.0, SpheringScale(1.0)),
            lambda: sphering.estimate_sigma(np.array([1.0, 2.0])),
            lambda: sphering.estimate_sigma([1.0, 2.0]),
        ],
        ids=["normalize-scalar", "sigma-of-1d-array", "sigma-of-scalar-list"],
    )
    def test_scalar_input_rejected(self, call):
        with pytest.raises(ValueError, match=r"\(B, n\)"):
            call()


class TestDenormalize:
    def test_center_maps_to_mean(self):
        assert sphering.denormalize(np.array([0.5]), 7.0, SpheringScale(2.0))[0] == pytest.approx(7.0)

    def test_upper_rescale_point(self):
        assert sphering.denormalize(np.array([0.9]), 0.0, SpheringScale(1.0))[0] == pytest.approx(3.0)

    def test_roundtrip_on_inliers(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            sigma = SpheringScale(float(rng.uniform(0.1, 10)))
            p = rng.uniform(-2.0, 2.0, 12) * sigma.sigma  # centered spread < 3 sigma
            p += rng.uniform(-100, 100)
            x = sphering.normalize(p, sigma)
            back = sphering.denormalize(x, float(p.mean()), sigma)
            assert np.max(np.abs(back - p)) <= 1e-9

    def test_affine(self):
        rng = np.random.default_rng(2)
        sigma = SpheringScale(1.5)
        x1, x2 = rng.uniform(0.1, 0.9, 8), rng.uniform(0.1, 0.9, 8)
        for alpha in (0.0, 0.3, 1.0):
            lhs = sphering.denormalize(alpha * x1 + (1 - alpha) * x2, 5.0, sigma)
            rhs = alpha * sphering.denormalize(x1, 5.0, sigma) + (1 - alpha) * sphering.denormalize(
                x2, 5.0, sigma
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
