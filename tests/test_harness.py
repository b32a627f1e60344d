import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from aebound import baselines, dataset, harness, metrics
from aebound.errors import FormatError
from aebound.optimizer import LbfgsOptions

GOLDEN_CONFIG = harness.BenchmarkConfig(
    sensors=4, steps=600, noise_sd=0.02, window=12, k_list=(3,), bounds=(0.05, 0.2, 0.5),
    variants=("ae", "wae"), baseline_methods=harness.BASELINE_METHODS,
    folds=5, repetitions=1, fold_rotations=2, seed=7, optimizer=LbfgsOptions(max_iters=60),
)


def _report_digest(path) -> str:
    """sha256 of report.csv without its wall_time column, the one column that varies."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("wall_time")
    kept = [",".join(f for i, f in enumerate(line.split(",")) if i != col) for line in lines]
    return hashlib.sha256(("\n".join(kept) + "\n").encode()).hexdigest()


class TestGoldenReport:
    """Pinned digest of a small seeded sweep over every method and three bounds."""

    def test_report_digest(self, tmp_path):
        rows = harness.run_benchmark(GOLDEN_CONFIG)
        assert all(r.status == "ok" for r in rows)
        harness.write_report(rows, GOLDEN_CONFIG, tmp_path)
        assert _report_digest(tmp_path / "report.csv") == "b61aaa9ccc86fe03fada9a29f7043848c73233c2b432f6b513adf10b1af168a8"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(variants=(), baseline_methods=()), "no method to run"),
            (dict(fold_rotations=0), "fold_rotations must be >= 1"),
            (dict(k_list=(3, 0)), "k_list entries must be >= 1"),
        ],
        ids=["no-method", "no-fold-rotation", "k-0"],
    )
    def test_config_that_sweeps_nothing_is_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(GOLDEN_CONFIG, **change)


class TestThreads:
    @pytest.mark.parametrize("value", ["0", "x"])
    def test_bad_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("AEB_THREADS", value)
        with pytest.raises(ValueError, match="AEB_THREADS"):
            harness.run_benchmark(GOLDEN_CONFIG)


class TestCellTally:
    def test_batch_tally_equals_window_by_window(self):
        """`_CellResult.of_batch` keeps the bits of adding one window at a time."""
        rng = np.random.default_rng(3)
        P = rng.normal(0, 10.0 ** rng.uniform(-3, 3, (300, 1)), (300, 16))
        P[[5, 77]] = 0.0  # all-zero windows have no relative error
        Q = P + rng.normal(0, 0.1, P.shape)
        bits_code = rng.integers(0, 500, 300)
        bits_residual = rng.integers(0, 500, 300)
        abs_sum = rel_sum = 0.0
        rel_windows = 0
        for p, q in zip(P, Q):
            abs_sum += float(np.sum(np.abs(p - q)))
            denom = float(np.sum(p**2))
            if denom > 0:
                rel_sum += 100.0 * float(np.sum((p - q) ** 2)) / denom
                rel_windows += 1
        cell = harness._CellResult.of_batch(P, Q, bits_code, bits_residual)
        assert cell == harness._CellResult(
            bits_code=int(bits_code.sum()), bits_residual=int(bits_residual.sum()),
            bits_raw=32 * P.size, abs_err_sum=abs_sum, abs_err_count=P.size,
            rel_err_sum=rel_sum, rel_err_windows=298,
        )
        assert rel_windows == 298

    def test_empty_batch(self):
        cell = harness._CellResult.of_batch(np.zeros((0, 8)), np.zeros((0, 8)), [], [])
        assert cell == harness._CellResult()


class TestPartialRows:
    def test_failed_cell_leaves_surviving_tallies(self, monkeypatch):
        """One cell of a label raises: its rows merge the other cells and say `partial:`."""
        X = np.random.default_rng(4).normal(20.0, 3.0, (60, 8))
        last = np.nonzero(dataset.split_folds(len(X), 3, 0) == 2)[0]
        X[last[0], 0] = 1e6  # beyond truncated LZW's fixed-point range: the last fold's LZW cell raises
        monkeypatch.setattr(harness, "load_windows", lambda cfg: X)
        cfg = harness.BenchmarkConfig(
            bounds=(0.1, 0.5), variants=(), baseline_methods=("ltc", "lzw"), folds=3, repetitions=1, seed=0,
        )
        rows = {(r.method, r.epsilon_bound): r for r in harness.run_benchmark(cfg)}
        survivors = harness.run_benchmark(dataclasses.replace(cfg, fold_rotations=2))
        assert [r.status for r in survivors] == ["ok"] * 4
        for expected in survivors:
            row = rows[(expected.method, expected.epsilon_bound)]
            if expected.method == "LTC":
                assert row.status == "ok"
                continue
            assert row.status.startswith("partial:RangeError: reading outside fixed-point range")
            assert dataclasses.replace(row, wall_time=0.0, status="ok") == dataclasses.replace(expected, wall_time=0.0)


class TestPerBoundFailures:
    def test_bound_that_raises_fails_only_its_rows(self):
        cfg = dataclasses.replace(GOLDEN_CONFIG, bounds=(0.0, 0.1), variants=(), baseline_methods=("ltc",))
        zero, tenth = harness.run_benchmark(cfg)
        assert zero.status == "failed:ValueError: bound must be positive, got 0.0"
        (expected,) = harness.run_benchmark(dataclasses.replace(cfg, bounds=(0.1,)))
        assert tenth.status == expected.status == "ok"
        assert dataclasses.replace(tenth, wall_time=0.0) == dataclasses.replace(expected, wall_time=0.0)

    def test_bound_below_float32_resolution_sends_readings(self):
        cfg = dataclasses.replace(GOLDEN_CONFIG, bounds=(0.0, 1e-9), variants=(), baseline_methods=("pca",))
        zero, fine = harness.run_benchmark(cfg)
        assert fine.status == zero.status == "ok" and fine.eps_abs <= 1e-9
        # float64 readings as at bound 0: an indicator bit per reading, then 64 bits per patch
        indicator_bits = fine.bits_raw // harness.RAW_BITS_PER_READING
        assert fine.bits_residual > indicator_bits and (fine.bits_residual - indicator_bits) % 64 == 0
        assert (fine.bits_residual, fine.cr) == (zero.bits_residual, zero.cr)

    def test_round_trip_that_cannot_be_built_fails_every_bound(self):
        cfg = dataclasses.replace(GOLDEN_CONFIG, k_list=(13,), variants=(), baseline_methods=("pca",))
        rows = harness.run_benchmark(cfg)
        assert [r.status for r in rows] == ["failed:ValueError: k=13 exceeds data rank 12"] * len(cfg.bounds)


class TestLosslessTransformCells:
    """At bound 0 a PCA or DCT cell patches with the readings themselves, as the AE codec does."""

    @pytest.mark.parametrize("method", ["pca", "dct"])
    def test_bound_zero_round_trip_is_exact(self, method):
        windows = harness.load_windows(GOLDEN_CONFIG)
        fold_of = dataset.split_folds(len(windows), GOLDEN_CONFIG.folds, GOLDEN_CONFIG.seed)
        train_X, P = windows[fold_of != 1], windows[fold_of == 1]
        k, n = GOLDEN_CONFIG.k_list[0], P.shape[1]
        if method == "pca":
            basis = baselines.pca_fit(train_X, k)
            recon = baselines.pca_decompress(baselines.pca_compress(P, basis), basis)
        else:
            recon = baselines.dct_decompress_batch(*baselines.dct_compress_batch(P, k), n)
        Q, _, bits_residual = harness._round_trip(method, train_X, k, GOLDEN_CONFIG, 0)(P, 0.0)
        assert Q.tobytes() == P.tobytes()
        np.testing.assert_array_equal(bits_residual, n + 64 * np.count_nonzero(recon != P, axis=1))


class TestReadReport:
    ROWS = [
        metrics.EvalRow("WAE(k=3)", 0.05, 100 / 3, 0.1 + 0.2, 1e-17, 480, 1234, 3840, 1.23449, "ok"),
        metrics.EvalRow("LTC", 0.2, 61.0, 2.5e-3, 7.0, 96, 0, 3840, 0.0, "partial:ValueError: a, b"),
        metrics.EvalRow("PCA(k=10)", 0.5, math.nan, math.nan, math.nan, 0, 0, 0, 12.3456, "failed:RangeError: x,y"),
    ]

    def test_every_field_but_wall_time_comes_back(self, tmp_path):
        harness.write_report(self.ROWS, GOLDEN_CONFIG, tmp_path)
        back = harness.read_report(tmp_path)
        assert [r.wall_time for r in back] == [1.234, 0.0, 12.346]

        def untimed(rows):  # repr, so that NaN fields compare equal
            return [repr(dataclasses.replace(r, wall_time=0.0)) for r in rows]

        assert untimed(back) == untimed(self.ROWS)

    def test_wrong_header(self, tmp_path):
        harness.write_report(self.ROWS, GOLDEN_CONFIG, tmp_path)
        path = tmp_path / "report.csv"
        path.write_text(path.read_text().replace("wall_time", "seconds", 1))
        with pytest.raises(FormatError, match="unexpected report header"):
            harness.read_report(tmp_path)

    def test_short_line(self, tmp_path):
        (tmp_path / "report.csv").write_text(harness.CSV_HEADER + "\nLTC,0.1,50.0\n")
        with pytest.raises(FormatError, match="report line 2: 3 fields"):
            harness.read_report(tmp_path)

    @pytest.mark.parametrize("row, message", [
        ("LTC,0.1,abc,0.0,0.0,96,0,3840,0.000,ok", "report line 3: cr 'abc' is not a valid float"),
        ("LTC,0.1,50.0,0.0,0.0,96,1.5,3840,0.000,ok", "report line 3: bits_residual '1.5' is not a valid int"),
    ], ids=["float", "int"])
    def test_bad_number_names_line_and_column(self, tmp_path, row, message):
        good = "LTC,0.1,50.0,0.0,0.0,96,0,3840,0.000,ok"
        (tmp_path / "report.csv").write_text(f"{harness.CSV_HEADER}\n{good}\n{row}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            harness.read_report(tmp_path)
