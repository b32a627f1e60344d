import hashlib

import numpy as np

from aebound import harness
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
        assert _report_digest(tmp_path / "report.csv") == "6096e73a41def6d5798ba82898fdf6acc4e81f78b8485873c951f7f12684fcab"


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
