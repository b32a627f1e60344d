import numpy as np
import pytest

from aebound import dataset
from aebound.dataset import CsvSchema, SensorMatrix
from aebound.errors import InsufficientDataError, ParseError, SchemaError, WindowError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_direct_transcription(self, tmp_path):
        path = write(tmp_path, "t,s1\n1,10.0\n2,11.0\n3,12.0\n")
        m = dataset.load_csv(path, CsvSchema(timestamp="t"))
        assert m.values.shape == (1, 3)
        np.testing.assert_array_equal(m.values[0], [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(m.timestamps, [1, 2, 3])

    def test_missing_cell_becomes_nan(self, tmp_path):
        path = write(tmp_path, "t,s1,s2\n1,10,20\n2,11,\n3,12,22\n")
        m = dataset.load_csv(path, CsvSchema(timestamp="t"))
        assert np.isnan(m.values[1, 1])
        assert np.isfinite(m.values[0, 1])

    def test_parse_error_names_line(self, tmp_path):
        path = write(tmp_path, "t,s1\nabc,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            dataset.load_csv(path, CsvSchema(timestamp="t"))

    def test_missing_timestamp_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            dataset.load_csv(path, CsvSchema(timestamp="t"))

    def test_rows_aligned_on_union_of_timestamps(self, tmp_path):
        path = write(tmp_path, "t,s1\n3,30\n1,10\n2,20\n")
        m = dataset.load_csv(path, CsvSchema(timestamp="t"))
        np.testing.assert_array_equal(m.timestamps, [1, 2, 3])
        np.testing.assert_array_equal(m.values[0], [10, 20, 30])

    def test_nan_token_is_missing(self, tmp_path):
        path = write(tmp_path, "t,s1\n1,NaN\n2,5\n3,6\n")
        m = dataset.load_csv(path, CsvSchema(timestamp="t"))
        assert np.isnan(m.values[0, 0])


def matrix(rows, ids=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    ids = ids or [f"s{i}" for i in range(rows.shape[0])]
    return SensorMatrix(values=rows, sensor_ids=ids, timestamps=np.arange(rows.shape[1]))


class TestFillMissing:
    def test_midpoint_interpolation(self):
        m = dataset.fill_missing(matrix([[10, np.nan, 12]]))
        np.testing.assert_allclose(m.values[0], [10, 11, 12])

    def test_edge_extension(self):
        m = dataset.fill_missing(matrix([[np.nan, 5, 6]]))
        np.testing.assert_allclose(m.values[0], [5, 5, 6])
        m = dataset.fill_missing(matrix([[5, 6, np.nan]]))
        np.testing.assert_allclose(m.values[0], [5, 6, 6])

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            dataset.fill_missing(matrix([[np.nan, np.nan]]))

    def test_idempotent(self):
        m = matrix([[1, np.nan, np.nan, 7, np.nan]])
        once = dataset.fill_missing(m)
        twice = dataset.fill_missing(once)
        np.testing.assert_array_equal(once.values, twice.values)


class TestMakeWindows:
    def test_exact_tiling(self):
        out = dataset.make_windows(matrix([[1, 2, 3, 4, 5, 6]]), "temporal", 3, 3)
        np.testing.assert_array_equal(out, [[1, 2, 3], [4, 5, 6]])

    def test_spatial_23_sensors(self):
        m = dataset.synth_dataset(23, 5, seed=0)
        out = dataset.make_windows(m, "spatial", 23)
        assert out.shape == (5, 23)

    def test_spatial_rows_are_matrix_columns(self):
        m = matrix(np.random.default_rng(1).normal(size=(4, 9)))
        out = dataset.make_windows(m, "spatial", 4)
        for t in range(m.n_steps):
            assert np.array_equal(out[t], m.values[:, t])

    def test_rows_match_brute_force_slices(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sensors = int(rng.integers(1, 5))
            steps = int(rng.integers(1, 40))
            n = int(rng.integers(1, steps + 1))
            stride = int(rng.integers(1, 6))
            m = matrix(rng.normal(size=(sensors, steps)))
            brute = [
                m.values[s, start : start + n]
                for s in range(sensors)
                for start in range(0, steps - n + 1, stride)
            ]
            assert np.array_equal(dataset.make_windows(m, "temporal", n, stride), np.array(brute))

    @pytest.mark.parametrize(
        "mode, n, stride", [("temporal", 3, 3), ("temporal", 4, 2), ("temporal", 6, 1), ("spatial", 2, None)]
    )
    def test_fresh_float64_c_contiguous_array(self, mode, n, stride):
        m = matrix([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
        out = dataset.make_windows(m, mode, n, stride)
        assert out.dtype == np.float64
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, m.values)

    def test_window_too_large(self):
        with pytest.raises(WindowError):
            dataset.make_windows(matrix([[1, 2]]), "temporal", 3)

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sensors = int(rng.integers(1, 5))
            steps = int(rng.integers(5, 40))
            n = int(rng.integers(1, steps + 1))
            stride = int(rng.integers(1, 6))
            m = matrix(rng.normal(size=(sensors, steps)))
            got = len(dataset.make_windows(m, "temporal", n, stride))
            brute = sum(
                1
                for _ in range(sensors)
                for start in range(0, steps)
                if start % stride == 0 and start + n <= steps
            )
            assert got == brute == sensors * ((steps - n) // stride + 1)


class TestSplitFolds:
    def test_pigeonhole(self):
        split = dataset.split_folds(10, 10, seed=0)
        for f in range(10):
            assert len(split.indices_of(f)) == 1

    def test_deterministic(self):
        a = dataset.split_folds(20, 10, seed=7)
        b = dataset.split_folds(20, 10, seed=7)
        np.testing.assert_array_equal(a.fold_assignment, b.fold_assignment)

    def test_count_smaller_than_k(self):
        with pytest.raises(ValueError):
            dataset.split_folds(5, 10, seed=0)

    def test_partition_and_balance(self):
        split = dataset.split_folds(103, 10, seed=3)
        sizes = [len(split.indices_of(f)) for f in range(10)]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1


class TestSynthDataset:
    def test_constant_offset_between_sensors(self):
        m = dataset.synth_dataset(2, 50, seed=4, noise_sd=0.0)
        diff = m.values[0] - m.values[1]
        np.testing.assert_allclose(diff, diff[0])

    def test_deterministic(self):
        a = dataset.synth_dataset(3, 100, seed=11)
        b = dataset.synth_dataset(3, 100, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.tobytes() == b.values.tobytes()

    def test_lag1_autocorrelation(self):
        m = dataset.synth_dataset(5, 2000, seed=2)
        for row in m.values:
            c = row - row.mean()
            r1 = float(np.dot(c[:-1], c[1:]) / np.dot(c, c))
            assert r1 > 0.9
