"""Inputs and workloads of the aebound benchmark.

Every input is generated here from the workload seed; aebound receives only
the generated windows, CSV files and configs. The telemetry generator keeps
the signal family fixed (six sinusoids with periods inside the acceptance
benchmark's 8-60 step range, small white noise) and lets the seed draw each
sensor's phases, amplitude jitter, offset and noise. Sensors are independent,
so every window set mixes many draws of the family: fits, patch rates and
compression ratios then differ little from seed to seed, and a change in the
program shows above the seed-to-seed spread.

A workload has three parts. `setup` makes the inputs (the runner repeats it
and reports the median time as `setup_s`). `run_pass` runs the workload's job
once and returns a record whose `wall_s` times only calls into aebound.
`check` reads the outputs back and returns one message per failed check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import statistics
import struct
import time
from pathlib import Path

import numpy as np

from aebound import autoencoder, cli, dataset, harness, optimizer

WINDOW = 16
K = 4
SENSORS = 23
# six components are more than k=4 codes can carry, so most fits run to
# max_iters instead of stopping at a seed-dependent iteration
PERIODS = (9.0, 13.0, 19.0, 29.0, 41.0, 57.0)
AMPLITUDES = (1.0, 0.8, 0.7, 0.6, 0.5, 0.4)
NOISE_SD = 0.002  # as in the acceptance benchmark config
STOP_REASONS = ("converged", "max_iters", "line_search_failure")
RAW_BYTES_PER_READING = 4  # readings counted as 32-bit floats, as in harness

# the workload-level figures `figures()` returns, with their units
FIGURE_UNITS = {
    "train_s": "s", "train_cost": "cost", "compress_MBps": "MB/s", "decompress_MBps": "MB/s",
    "wire_cr": "%", "sweep_s": "s", "sweep_ae_cr": "%", "fail_rate": "ratio",
}


def telemetry(seed: int, sensors: int, steps: int) -> np.ndarray:
    """Sensor x step matrix of independent temperature-like sensors."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps, dtype=np.float64)
    values = np.empty((sensors, steps))
    for s in range(sensors):
        row = 15.0 + rng.uniform(-3.0, 3.0) + rng.normal(0.0, NOISE_SD, steps)
        for period, amp in zip(PERIODS, AMPLITUDES):
            row += amp * rng.uniform(0.8, 1.2) * np.sin(2.0 * math.pi * t / period + rng.uniform(0.0, 2.0 * math.pi))
        values[s] = row
    return values


def _timestamps(steps: int) -> np.ndarray:
    return 1_600_000_000 + 60 * np.arange(steps, dtype=np.int64)


def _sensor_ids(sensors: int) -> tuple[str, ...]:
    return tuple(f"s{i:02d}" for i in range(sensors))


def write_csv(path: Path, values: np.ndarray) -> None:
    """Headered CSV with a `t` column; repr() keeps every float exact."""
    ts = _timestamps(values.shape[1])
    with open(path, "w") as fh:
        fh.write("t," + ",".join(_sensor_ids(values.shape[0])) + "\n")
        for stamp, row in zip(ts.tolist(), values.T.tolist()):
            fh.write(f"{stamp},{','.join(map(repr, row))}\n")


def temporal_windows(values: np.ndarray) -> np.ndarray:
    """The windows `make_windows(..., "temporal", WINDOW)` cuts, as one array."""
    sensors, steps = values.shape
    per_sensor = steps // WINDOW
    return values[:, : per_sensor * WINDOW].reshape(sensors * per_sensor, WINDOW)


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quiet_cli(*argv: str) -> tuple[int, str]:
    """Run `aebound <argv>` in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


class Train:
    """Fit the ae, wae and sae variants on one seeded window set."""

    name = "train"
    STEPS = 600  # 23 sensors x 37 windows = 851 training windows
    VARIANTS = ("ae", "wae", "sae")

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.windows = None

    def config(self) -> dict:
        return {"sensors": SENSORS, "steps": self.STEPS, "window": WINDOW, "k": K,
                "variants": list(self.VARIANTS), "optimizer": "LbfgsOptions()"}

    def setup(self) -> None:
        matrix = dataset.SensorMatrix(
            telemetry(self.seed, SENSORS, self.STEPS), _sensor_ids(SENSORS), _timestamps(self.STEPS)
        )
        self.windows = dataset.make_windows(matrix, "temporal", WINDOW)

    def run_pass(self) -> dict:
        fits = []
        t0 = time.perf_counter()
        for variant in self.VARIANTS:
            try:
                _, trace = optimizer.train(
                    self.windows, WINDOW, K, autoencoder.CostConfig(variant=variant),
                    optimizer.LbfgsOptions(), self.seed,
                )
            except Exception as exc:  # a failed fit is counted, the run goes on
                fits.append({"variant": variant, "error": f"{type(exc).__name__}: {exc}"})
                continue
            fits.append({
                "variant": variant,
                "cost": trace.cost_history[-1],
                "iterations": trace.iterations,
                "stop_reason": trace.stop_reason,
                "grad_norm": trace.final_grad_norm,
            })
        wall = time.perf_counter() - t0
        failed = sum(1 for f in fits if "error" in f or not _fit_ok(f))
        return {"wall_s": wall, "attempted": len(fits), "failed": failed, "fits": fits}

    def check(self, records: list[dict]) -> list[str]:
        problems = []
        for f in records[0]["fits"]:
            if "error" in f:
                problems.append(f"{f['variant']}: fit raised {f['error']}")
            elif not _fit_ok(f):
                problems.append(f"{f['variant']}: cost {f['cost']!r}, stop reason {f['stop_reason']!r}")
        if any(r["fits"] != records[0]["fits"] for r in records[1:]):
            problems.append("repeated fits of the same window set differ")
        return problems

    def figures(self, records: list[dict]) -> dict:
        costs = [f["cost"] for f in records[0]["fits"] if "cost" in f]
        return {
            "train_s": statistics.median(r["wall_s"] for r in records),
            "train_cost": statistics.fmean(costs) if costs else math.nan,
        }


def _fit_ok(fit: dict) -> bool:
    return math.isfinite(fit["cost"]) and fit["stop_reason"] in STOP_REASONS


class Stream:
    """`aebound compress` then `aebound decompress` on a 23 x 20 000 CSV."""

    name = "stream"
    STEPS = 20000
    TRAIN_STEPS = 1000  # the model is fitted on the first 1000 steps
    BOUND = 0.1  # the model's default bound; a third or more of readings get patched
    VARIANT = "ae"

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.input = workdir / "readings.csv"
        self.train_csv = workdir / "train.csv"
        self.train_cfg = workdir / "train.cfg"
        self.model = workdir / "model.aeb"
        self.packets = workdir / "packets.bin"
        self.recon = workdir / "recon.csv"
        self.values = None

    def config(self) -> dict:
        return {"sensors": SENSORS, "steps": self.STEPS, "train_steps": self.TRAIN_STEPS,
                "window": WINDOW, "k": K, "variant": self.VARIANT, "bound": self.BOUND,
                "bound_source": "model default (no --bound)"}

    def setup(self) -> None:
        self.values = telemetry(self.seed, SENSORS, self.STEPS)
        write_csv(self.input, self.values)
        write_csv(self.train_csv, self.values[:, : self.TRAIN_STEPS])
        self.train_cfg.write_text(
            f"dataset = csv\ncsv = {self.train_csv}\nwindow = {WINDOW}\nk = {K}\n"
            f"variants = {self.VARIANT}\nbounds = {self.BOUND}\n"
        )
        code, out = _quiet_cli("train", "--config", str(self.train_cfg), "--seed", str(self.seed),
                               "--out", str(self.model))
        if code != 0:
            raise RuntimeError(f"aebound train exited {code}: {out}")

    def run_pass(self) -> dict:
        # no --bound: the decoder reads the residual width from the model's
        # default bound, so an override that changes the width breaks decoding
        t0 = time.perf_counter()
        c_code, _ = _quiet_cli("compress", "--model", str(self.model), "--input", str(self.input),
                               "--out", str(self.packets))
        t1 = time.perf_counter()
        d_code, _ = _quiet_cli("decompress", "--model", str(self.model), "--packets", str(self.packets),
                               "--out", str(self.recon))
        t2 = time.perf_counter()
        return {
            "wall_s": t2 - t0,
            "compress_s": t1 - t0,
            "decompress_s": t2 - t1,
            "attempted": 2,
            "failed": (c_code != 0) + (d_code != 0),
            "exit_codes": [c_code, d_code],
            "wire_bytes": self.packets.stat().st_size if c_code == 0 else 0,
            "digests": [_file_digest(p) for p in (self.packets, self.recon) if p.exists()],
        }

    def check(self, records: list[dict]) -> list[str]:
        problems = []
        if any(r["failed"] for r in records):
            problems.append(f"exit codes {[r['exit_codes'] for r in records]}")
            return problems
        if any(r["digests"] != records[0]["digests"] for r in records[1:]):
            problems.append("repeated passes wrote different files")
        original = temporal_windows(self.values)
        packets = _count_packets(self.packets)
        if packets != original.shape[0]:
            problems.append(f"{packets} packets for {original.shape[0]} windows")
        table = np.loadtxt(self.recon, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (original.shape[0], WINDOW + 1):
            problems.append(f"decompressed table has shape {table.shape}, expected "
                            f"({original.shape[0]}, {WINDOW + 1})")
            return problems
        if not np.array_equal(table[:, 0], np.arange(original.shape[0])):
            problems.append("decompressed window indices are not 0..N-1")
        worst = float(np.max(np.abs(table[:, 1:] - original)))
        if not worst <= self.BOUND:
            problems.append(f"max |error| {worst!r} exceeds the bound {self.BOUND}")
        return problems

    def figures(self, records: list[dict]) -> dict:
        raw = RAW_BYTES_PER_READING * self.values.size
        return {
            "compress_MBps": raw / statistics.median(r["compress_s"] for r in records) / 1e6,
            "decompress_MBps": raw / statistics.median(r["decompress_s"] for r in records) / 1e6,
            "wire_cr": 100.0 * (1.0 - records[0]["wire_bytes"] / raw),
        }


def _count_packets(path: Path) -> int:
    """Walk the u32 length prefixes of a packet stream, independently of codec."""
    data = path.read_bytes()
    count = offset = 0
    while offset < len(data):
        if offset + 4 > len(data):
            return -1
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4 + length
        count += 1
    return count if offset == len(data) else -1


class Sweep:
    """`harness.run_benchmark` + `write_report` in the acceptance config's shape."""

    name = "sweep"
    STEPS = 500  # the acceptance config uses 20 000; shrunk to fit a run
    ROTATIONS = 2  # two folds as test set: more fits per pass, same train/test mix
    BOUNDS = (0.02, 0.1, 0.25, 0.4)

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.csv = workdir / "sweep.csv"
        self.report_dir = workdir / "report"
        self.cfg = None

    def config(self) -> dict:
        return {"sensors": SENSORS, "steps": self.STEPS, "window": WINDOW, "k_list": [K],
                "bounds": list(self.BOUNDS), "variants": ["ae", "wae"],
                "baseline_methods": list(harness.BASELINE_METHODS), "folds": 10,
                "repetitions": 1, "fold_rotations": self.ROTATIONS}

    def setup(self) -> None:
        write_csv(self.csv, telemetry(self.seed, SENSORS, self.STEPS))
        self.cfg = harness.BenchmarkConfig(
            csv_path=str(self.csv), mode="temporal", window=WINDOW, k_list=(K,), bounds=self.BOUNDS,
            variants=("ae", "wae"), baseline_methods=harness.BASELINE_METHODS,
            folds=10, repetitions=1, fold_rotations=self.ROTATIONS, seed=self.seed,
        )

    def run_pass(self) -> dict:
        t0 = time.perf_counter()
        rows = harness.run_benchmark(self.cfg)
        harness.write_report(rows, self.cfg, str(self.report_dir))
        wall = time.perf_counter() - t0
        return {
            "wall_s": wall,
            "attempted": len(rows),
            "failed": sum(1 for r in rows if r.status != "ok"),
            "rows": [(r.method, r.epsilon_bound, r.cr, r.eps_abs, r.eps_rel, r.bits_code,
                      r.bits_residual, r.bits_raw, r.status) for r in rows],
        }

    def check(self, records: list[dict]) -> list[str]:
        rows = records[0]["rows"]
        problems = [f"{m} at {b}: {status}" for m, b, *_, status in rows if status != "ok"]
        if any(r["rows"] != rows for r in records[1:]):
            problems.append("repeated sweeps differ apart from wall time")
        report_lines = (self.report_dir / "report.csv").read_text().splitlines()
        if len(report_lines) != len(rows) + 1:
            problems.append(f"report.csv has {len(report_lines)} lines for {len(rows)} rows")
        return problems + _orderings(rows, sorted(self.BOUNDS))

    def figures(self, records: list[dict]) -> dict:
        cr = {(m, b): c for m, b, c, *_ in records[0]["rows"]}
        return {
            "sweep_s": statistics.median(r["wall_s"] for r in records),
            "sweep_ae_cr": cr.get((f"AE(k={K})", min(self.BOUNDS)), math.nan),
        }


def _orderings(rows, bounds) -> list[str]:
    """The qualitative orderings the acceptance benchmark asserts."""
    cr = {(m, b): c for m, b, c, *_ in rows}
    methods = sorted({m for m, *_ in rows})
    smallest, largest = bounds[0], bounds[-1]
    if any((m, b) not in cr for m in methods for b in bounds):
        return ["sweep rows do not cover every method and bound"]
    problems = []
    for m in methods:
        curve = [cr[(m, b)] for b in bounds]
        if not all(lo <= hi + 1e-12 for lo, hi in zip(curve, curve[1:])):
            problems.append(f"{m}: CR is not monotone in the bound: {curve}")
    for m in (f"AE(k={K})", f"WAE(k={K})"):
        gap_small = cr[(m, smallest)] - cr[("LTC", smallest)]
        gap_large = cr[(m, largest)] - cr[("LTC", largest)]
        if not (gap_small > 0 and gap_large < gap_small):
            problems.append(f"{m} vs LTC: gap {gap_small} at {smallest}, {gap_large} at {largest}")

    def rank(method, bound):
        return sorted(methods, key=lambda m: -cr[(m, bound)]).index(method)

    if not rank("LZW", smallest) < rank("LZW", largest):
        problems.append("LZW does not rank better at the tightest bound than at the loosest")
    return problems


WORKLOADS = {w.name: w for w in (Train, Stream, Sweep)}
