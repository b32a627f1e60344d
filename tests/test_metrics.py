import numpy as np
import pytest

from aebound import metrics


class TestMeanAbsError:
    def test_identity(self):
        p = np.arange(5.0)
        assert metrics.mean_abs_error(p, p) == 0.0

    def test_hand_arithmetic(self):
        assert metrics.mean_abs_error([0.0, 2.0], [1.0, 1.0]) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            p, q = rng.normal(size=n), rng.normal(size=n)
            brute = sum(abs(a - b) for a, b in zip(p, q)) / n
            assert abs(metrics.mean_abs_error(p, q) - brute) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            metrics.mean_abs_error(np.zeros(3), np.zeros(4))


class TestRelativeError:
    def test_identity(self):
        assert metrics.relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_arithmetic(self):
        assert metrics.relative_error([3.0, 4.0], [0.0, 0.0]) == pytest.approx(100.0)

    def test_all_zero_reference(self):
        with pytest.raises(ValueError):
            metrics.relative_error([0.0, 0.0], [1.0, 1.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            p, q = rng.normal(size=n) + 1.0, rng.normal(size=n)
            brute = 100.0 * sum(abs(a - b) ** 2 for a, b in zip(p, q)) / sum(a * a for a in p)
            assert abs(metrics.relative_error(p, q) - brute) <= 1e-9 * max(1.0, brute)

    def test_batch_rows_equal_one_row(self):
        """Each row of the batch form is the one-row value; an all-zero row is NaN."""
        rng = np.random.default_rng(4)
        P = rng.normal(0, 10.0 ** rng.uniform(-3, 3, (40, 1)), (40, 24))
        P[[3, 17]] = 0.0
        Q = P + rng.normal(0, 0.1, P.shape)
        rel = metrics.relative_errors(P, Q)
        assert np.flatnonzero(np.isnan(rel)).tolist() == [3, 17]
        for i, (p, q) in enumerate(zip(P, Q)):
            if i not in (3, 17):
                assert rel[i] == metrics.relative_error(p, q)

    def test_batch_rejects_vector(self):
        with pytest.raises(ValueError, match=r"\(B, n\)"):
            metrics.relative_errors(np.ones(4), np.ones(4))


class TestCompressionRatio:
    def test_equal_is_zero(self):
        assert metrics.compression_ratio(50, 50, 100) == 0.0

    def test_spatial_example(self):
        # k=4 code + mean = 160 bits, indicator only = 23 bits, raw = 23*32
        assert metrics.compression_ratio(160, 23, 736) == pytest.approx(
            (1 - 183 / 736) * 100
        )
        assert round(metrics.compression_ratio(160, 23, 736), 2) == 75.14

    def test_expansion_is_negative(self):
        assert metrics.compression_ratio(150, 50, 100) == pytest.approx(-100.0)

    def test_zero_raw_bits(self):
        with pytest.raises(ValueError):
            metrics.compression_ratio(1, 1, 0)


class TestPermutationCovariance:
    def test_all_metrics_permutation_invariant(self):
        rng = np.random.default_rng(2)
        p, q = rng.normal(size=20) + 2.0, rng.normal(size=20)
        perm = rng.permutation(20)
        assert metrics.mean_abs_error(p, q) == pytest.approx(metrics.mean_abs_error(p[perm], q[perm]))
        assert metrics.relative_error(p, q) == pytest.approx(metrics.relative_error(p[perm], q[perm]))
