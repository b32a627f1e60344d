import builtins
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from aebound import dataset
from aebound.dataset import SensorMatrix
from aebound.errors import InsufficientDataError, ParseError, SchemaError, WindowError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_direct_transcription(self, tmp_path):
        path = write(tmp_path, "t,s1\n1,10.0\n2,11.0\n3,12.0\n")
        m = dataset.load_csv(path, "t")
        assert m.values.shape == (1, 3)
        np.testing.assert_array_equal(m.values[0], [10.0, 11.0, 12.0])
        np.testing.assert_array_equal(m.timestamps, [1, 2, 3])

    def test_missing_cell_becomes_nan(self, tmp_path):
        path = write(tmp_path, "t,s1,s2\n1,10,20\n2,11,\n3,12,22\n")
        m = dataset.load_csv(path, "t")
        assert np.isnan(m.values[1, 1])
        assert np.isfinite(m.values[0, 1])

    def test_parse_error_names_line(self, tmp_path):
        path = write(tmp_path, "t,s1\nabc,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            dataset.load_csv(path, "t")

    def test_missing_timestamp_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            dataset.load_csv(path, "t")

    def test_rows_aligned_on_union_of_timestamps(self, tmp_path):
        path = write(tmp_path, "t,s1\n3,30\n1,10\n2,20\n")
        m = dataset.load_csv(path, "t")
        np.testing.assert_array_equal(m.timestamps, [1, 2, 3])
        np.testing.assert_array_equal(m.values[0], [10, 20, 30])

    def test_nan_token_is_missing(self, tmp_path):
        path = write(tmp_path, "t,s1\n1,NaN\n2,5\n3,6\n")
        m = dataset.load_csv(path, "t")
        assert np.isnan(m.values[0, 0])

    def test_duplicate_column_rejected(self, tmp_path):
        path = write(tmp_path, "t,a,a\n1,10,20\n2,11,21\n")
        with pytest.raises(SchemaError, match="'a'"):
            dataset.load_csv(path, "t")

    def test_duplicate_timestamp_column_rejected(self, tmp_path):
        path = write(tmp_path, "t,a,t\n1,10,5\n")
        with pytest.raises(SchemaError, match="'t'"):
            dataset.load_csv(path, "t")

    @pytest.mark.parametrize("stamp", ["99999999999999999999", "-9223372036854775809"])
    def test_timestamp_outside_int64_names_line(self, tmp_path, stamp):
        path = write(tmp_path, f"t,a\n1,10\n{stamp},11\n")
        with pytest.raises(ParseError, match="line 2"):
            dataset.load_csv(path, "t")

    def test_int64_extremes_load(self, tmp_path):
        path = write(tmp_path, "t,a\n9223372036854775807,1\n-9223372036854775808,2\n")
        m = dataset.load_csv(path, "t")
        assert m.timestamps.tolist() == [-(2**63), 2**63 - 1]


def row_parser_load(path, timestamp="t"):
    """`load_csv` with the fast path switched off: the row parser alone."""
    with mock.patch.object(dataset, "_parse_regular", return_value=None):
        return dataset.load_csv(path, timestamp)


def outcome(load, path):
    """What a load gives: the matrix's bytes, or the exception's type and message."""
    try:
        m = load(path, "t")
    except Exception as exc:
        return type(exc), str(exc)
    assert m.values.flags.c_contiguous and m.values.dtype == np.float64
    return m.values.shape, m.values.tobytes(), m.timestamps.tobytes(), m.sensor_ids


_READINGS = st.one_of(
    st.floats(width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_000", " 1.5 ", "inf", "-inf", "Infinity", "NaN", "nAn", "nan", "NAN", "-nan",
                     "1e3", "+1", "", " ", '"2.5"', "abc", "\xa01.5", "1.5\t", "\x0c2"]),
)
_STAMPS = st.one_of(
    st.integers(-3, 40).map(str),
    st.builds(str.format, st.sampled_from(["+{}", "{}.0", " {} ", "0{}", '"{}"', "\t{}"]), st.integers(-3, 40)),
    st.sampled_from(["1_2", "12.0", "+12", "", "x", "99999999999999999999", "9223372036854775807",
                     "-9223372036854775808", "-9223372036854775809"]),
)


def draw_header(draw):
    """(sensor count, timestamp column, header line): `t` placed among 1-3 sensors."""
    n_readings = draw(st.integers(1, 3))
    ts_col = draw(st.integers(0, n_readings))
    header = [f"s{i}" for i in range(n_readings)]
    header.insert(ts_col, "t")
    return n_readings, ts_col, ",".join(header)


@st.composite
def csv_bodies(draw):
    """A header and a body of rows both regular and not."""
    n_readings, ts_col, header = draw_header(draw)
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "commas", "comment", "short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "commas":
            lines.append("," * n_readings)
        elif kind == "comment":
            lines.append("#" + draw(st.sampled_from(["", " note", "1,2"])))
        else:
            cells = draw(st.lists(_READINGS, min_size=n_readings, max_size=n_readings))
            cells.insert(ts_col, draw(_STAMPS))
            if kind == "short":
                cells.pop()
            elif kind == "long":
                cells.append(draw(_READINGS))
            lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@st.composite
def regular_bodies(draw):
    """Full-width rows of numbers under unique, unsorted integer timestamps."""
    n_readings, ts_col, header = draw_header(draw)
    stamps = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8, unique=True))
    lines = [header]
    for stamp in stamps:
        cells = draw(st.lists(st.floats(width=64).map(repr), min_size=n_readings, max_size=n_readings))
        cells.insert(ts_col, str(stamp))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestLoadCsvFastPath:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(csv_bodies(), regular_bodies()))
    def test_parity_with_row_parser(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        assert outcome(dataset.load_csv, path) == outcome(row_parser_load, path)

    def test_regular_file_skips_row_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a, t ,b\r\n1.5,30, inf\r\n-2,+10,NaN\r\n\r\n1e3,20,nAn\r\n")
        expected = outcome(row_parser_load, path)
        monkeypatch.setattr(dataset, "_parse_rows", mock.Mock(side_effect=AssertionError("row parser ran")))
        assert outcome(dataset.load_csv, path) == expected
        m = dataset.load_csv(path, "t")
        assert m.timestamps.tolist() == [10, 20, 30]
        assert m.values[0].tolist() == [-2.0, 1000.0, 1.5]

    @pytest.mark.parametrize("body", [
        "1,1_000\n",                 # underscore reading
        "1,\n2,3\n",                 # empty cell
        "12.0,1\n",                  # float timestamp
        "1_2,1\n",                   # underscore timestamp
        '1,"2.5"\n',                 # quoted cell
        "#note\n1,2\n",              # comment line
        "1,2\n,\n3,4\n",             # all-comma row
        "1,2\n \n3,4\n",             # whitespace-only row
        "1,2,3\n",                   # long row
        "1\n",                       # short row
        "1,2\n1,3\n",                # duplicate timestamp
        "99999999999999999999,1\n",  # timestamp outside int64
        "",                          # empty body
    ])
    def test_irregular_body_reaches_row_parser(self, tmp_path, monkeypatch, body):
        path = write(tmp_path, "t,a\n" + body)
        expected = outcome(row_parser_load, path)
        row_parser = mock.Mock(wraps=dataset._parse_rows)
        monkeypatch.setattr(dataset, "_parse_rows", row_parser)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert outcome(dataset.load_csv, path) == expected
        assert row_parser.call_count == 1
        assert not caught  # a warning the loader gives up on (an empty body) stays inside

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_goes_through_row_parser(self, tmp_path):
        # a pipe cannot be re-read, so an irregular body must not reach the fast path first
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("t,a\n2,\n1,3\n3,4\n",), daemon=True)
        writer.start()
        m = dataset.load_csv(fifo, "t")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert m.timestamps.tolist() == [1, 2, 3]
        assert m.values[0, 0] == 3.0 and np.isnan(m.values[0, 1])


def repr_rows(first_index, block):
    """The text `csv_rows` must write: one `repr` per reading."""
    return "".join(f"{i}," + ",".join(map(repr, row)) + "\n"
                   for i, row in enumerate(block.tolist(), first_index)).encode()


def _with_ulp_neighbours(values):
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


_EDGES = np.concatenate([
    _with_ulp_neighbours(10.0 ** np.arange(-8, 23)),
    _with_ulp_neighbours(2.0 ** np.arange(-40, 70)),
    [1e-5, 1e-4, 1e15, 1e16, 0.0, 5e-324, np.finfo(np.float64).max],
])
_EDGE_READINGS = np.concatenate([_EDGES, -_EDGES])

_FLOAT_READINGS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.builds(round, st.floats(-1e7, 1e7), st.integers(0, 8)),
    st.sampled_from(_EDGE_READINGS.tolist()),
)


class TestCsvRows:
    @settings(max_examples=500, deadline=None)
    @given(block=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                            elements=_FLOAT_READINGS),
           first_index=st.integers(0, 10**15))
    def test_same_bytes_as_repr(self, block, first_index):
        assert dataset.csv_rows(first_index, block) == repr_rows(first_index, block)

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("first_index", [0, 95, 10**9 - 40])  # index widths change inside the block
    def test_edge_readings(self, n, first_index):
        block = _EDGE_READINGS[: _EDGE_READINGS.size // n * n].reshape(-1, n)
        assert dataset.csv_rows(first_index, block) == repr_rows(first_index, block)

    def test_empty_block(self):
        assert dataset.csv_rows(0, np.empty((0, 4))) == b""

    @pytest.mark.parametrize("make", [
        lambda rng: rng.normal(15.0, 3.0, (2000, 16)),
        lambda rng: rng.normal(0.0, 100.0, (2000, 16)).astype(np.float32).astype(np.float64),
        lambda rng: np.round(rng.uniform(-50.0, 50.0, (2000, 16)), 2),
    ], ids=["float64", "float32-valued", "two-decimal"])
    def test_typical_readings_skip_repr(self, monkeypatch, make):
        """Readings that repr writes in fixed notation are formatted by numpy: at most 1 in 1000 goes through repr."""
        calls = []
        monkeypatch.setattr(dataset, "repr", lambda v: calls.append(v) or builtins.repr(v), raising=False)
        block = make(np.random.default_rng(3))
        text = dataset.csv_rows(0, block)
        assert len(calls) <= block.size // 1000
        assert text == repr_rows(0, block)


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
        out = dataset.make_windows(matrix([[1, 2, 3, 4, 5, 6]]), "temporal", 3)
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
            m = matrix(rng.normal(size=(sensors, steps)))
            brute = [
                m.values[s, start : start + n]
                for s in range(sensors)
                for start in range(0, steps - n + 1, n)
            ]
            assert np.array_equal(dataset.make_windows(m, "temporal", n), np.array(brute))

    @pytest.mark.parametrize(
        "mode, n, per_sensor", [("temporal", 3, 3), ("temporal", 4, 2), ("temporal", 6, 1), ("spatial", 2, None)]
    )
    def test_fresh_float64_c_contiguous_array(self, mode, n, per_sensor):
        # 9 steps: n = 3 takes every column (a contiguous slice), n = 4 and 6 drop a partial window
        m = matrix([range(1, 10), range(11, 20)])
        out = dataset.make_windows(m, mode, n)
        assert out.shape == ((9, 2) if per_sensor is None else (2 * per_sensor, n))
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
            m = matrix(rng.normal(size=(sensors, steps)))
            got = len(dataset.make_windows(m, "temporal", n))
            brute = sum(
                1
                for _ in range(sensors)
                for start in range(0, steps)
                if start % n == 0 and start + n <= steps
            )
            assert got == brute == sensors * (steps // n)


class TestSplitFolds:
    def test_pigeonhole(self):
        fold_of = dataset.split_folds(10, 10, seed=0)
        assert fold_of.dtype == np.int64
        assert sorted(fold_of.tolist()) == list(range(10))

    def test_deterministic(self):
        a = dataset.split_folds(20, 10, seed=7)
        b = dataset.split_folds(20, 10, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_count_smaller_than_k(self):
        with pytest.raises(ValueError):
            dataset.split_folds(5, 10, seed=0)

    def test_partition_and_balance(self):
        fold_of = dataset.split_folds(103, 10, seed=3)
        assert fold_of.shape == (103,) and fold_of.min() == 0 and fold_of.max() == 9
        sizes = np.bincount(fold_of, minlength=10)
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
