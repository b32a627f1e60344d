"""Benchmark harness: k-fold protocol, method sweeps, CSV reports, SVG plots.

Every method runs through one cell loop. A cell (method, k, fold rotation,
repetition) builds the method's round trip once, training an autoencoder or
fitting PCA on the training rows, and evaluates it at every error bound, so
compression-ratio curves over bounds share the same weights. Each evaluation
is one call over the cell's whole (B, n) test matrix: the AE variants, PCA
and DCT are transform models sent through the codec's packets, and LTC and
truncated LZW write one bitstream per window. Only autoencoder
cells repeat: baselines have no init randomness. Rows aggregate bits across
all cells, so the reported CR is recomputable from the bit columns exactly.
A failure is kept per (method label, bound): a bound whose evaluation raises
fails only its own row, while a round trip that cannot be built fails every
bound of its label.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from . import baselines, codec, dataset, metrics, svgplot
from .autoencoder import VARIANTS, CostConfig
from .errors import FormatError
from .optimizer import LbfgsOptions, train

BASELINE_METHODS = ("ltc", "lzw", "pca", "dct")

RAW_BITS_PER_READING = 32  # uncompressed readings counted as 32-bit floats


@dataclass(frozen=True)
class BenchmarkConfig:
    # dataset source: CSV file or seeded synthetic matrix
    csv_path: str | None = None
    timestamp_column: str = "t"
    sensors: int = 23
    steps: int = 20000
    noise_sd: float = 0.05
    period_range: tuple[float, float] = (20.0, 300.0)
    amp_range: tuple[float, float] = (1.0, 6.0)
    # windowing
    mode: str = "temporal"
    window: int = 24
    # sweeps
    k_list: tuple[int, ...] = (4,)
    bounds: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0)
    variants: tuple[str, ...] = ("ae", "wae", "sae")
    baseline_methods: tuple[str, ...] = BASELINE_METHODS
    # protocol
    folds: int = 10
    repetitions: int = 20
    fold_rotations: int | None = None  # None = all folds; smaller for quick runs
    seed: int = 0
    # hyperparameters
    beta: float = 1e-4
    eta: float = 0.1
    rho: float = 0.05
    optimizer: LbfgsOptions = field(default_factory=LbfgsOptions)

    def __post_init__(self):
        CostConfig(beta=self.beta, eta=self.eta, rho=self.rho)  # raises on a bad hyperparameter
        for name in ("window", "sensors", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in dataset.MODES:
            raise ValueError(f"mode must be one of {dataset.MODES}, got {self.mode!r}")
        if not self.k_list or not self.bounds:
            raise ValueError("k_list and bounds must be non-empty")
        if not self.variants and not self.baseline_methods:
            raise ValueError("variants and baseline_methods are both empty: no method to run")
        if min(self.k_list) < 1:  # the harness labels LTC and LZW cells with k = 0
            raise ValueError(f"k_list entries must be >= 1, got {min(self.k_list)}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.fold_rotations is not None and self.fold_rotations < 1:
            raise ValueError(f"fold_rotations must be >= 1, got {self.fold_rotations}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r} in variants")
        for m in self.baseline_methods:
            if m not in BASELINE_METHODS:
                raise ValueError(f"unknown baseline {m!r} in baseline_methods")
        for b in self.bounds:
            if not b >= 0:  # also rejects NaN
                raise ValueError(f"bounds must be nonnegative, got {b}")
        for name in ("k_list", "bounds", "variants", "baseline_methods"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):  # a repeat would run its cells twice into one row
                raise ValueError(f"{name} has repeated entries: {entries}")
        if not 0 <= self.noise_sd < math.inf:  # also rejects NaN
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        for name, low, what in (("period_range", 0.0, "two finite periods 0 < lo <= hi"),
                                ("amp_range", -math.inf, "two finite amplitudes lo <= hi")):
            pair = getattr(self, name)
            if len(pair) != 2 or not low < pair[0] <= pair[1] < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be {what}, got {pair}")

    def cost(self, variant: str) -> CostConfig:
        """The training objective of one AE variant with this config's hyperparameters."""
        return CostConfig(variant=variant, beta=self.beta, eta=self.eta, rho=self.rho)


def _cell_seed(base: int, *parts: int) -> int:
    return int(np.random.SeedSequence([base, *parts]).generate_state(1)[0])


def load_windows(cfg: BenchmarkConfig) -> np.ndarray:
    if cfg.csv_path is not None:
        matrix = dataset.fill_missing(dataset.load_csv(cfg.csv_path, cfg.timestamp_column))
    else:
        matrix = dataset.synth_dataset(
            cfg.sensors, cfg.steps, cfg.seed, cfg.noise_sd,
            period_range=cfg.period_range, amp_range=cfg.amp_range,
        )
    n = cfg.window if cfg.mode == "temporal" else matrix.n_sensors
    return dataset.make_windows(matrix, cfg.mode, n)


def _running_sum(terms: np.ndarray) -> float:
    """((0 + t0) + t1) + ... in row order: the bits of adding each term in a Python loop."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


@dataclass
class _CellResult:
    """Per-(method, bound) tallies for one harness cell."""

    bits_code: int = 0
    bits_residual: int = 0
    bits_raw: int = 0
    abs_err_sum: float = 0.0
    abs_err_count: int = 0
    rel_err_sum: float = 0.0
    rel_err_windows: int = 0
    wall_time: float = 0.0

    @classmethod
    def of_batch(cls, P: np.ndarray, Q: np.ndarray, bits_code: int, bits_residual: int) -> "_CellResult":
        """Tallies of the rows of P, reconstructed as Q, with the batch's code and residual bits."""
        rel = metrics.relative_errors(P, Q)
        windowed = ~np.isnan(rel)  # the relative error of an all-zero window is undefined
        return cls(
            bits_code=bits_code,
            bits_residual=bits_residual,
            bits_raw=RAW_BITS_PER_READING * P.size,
            abs_err_sum=_running_sum(metrics.abs_error_sums(P, Q)),
            abs_err_count=P.size,
            rel_err_sum=_running_sum(rel[windowed]),
            rel_err_windows=int(np.count_nonzero(windowed)),
        )

    def merge(self, other: "_CellResult"):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def row(self, label: str, bound: float, failure: str | None) -> metrics.EvalRow:
        """The report row of a label's merged tallies; NaN errors if every cell failed."""
        measured = self.abs_err_count > 0
        status = "ok" if failure is None else ("partial:" if measured else "failed:") + failure
        return metrics.EvalRow(
            method=label,
            epsilon_bound=bound,
            cr=metrics.compression_ratio(self.bits_code, self.bits_residual, self.bits_raw) if measured else math.nan,
            eps_abs=self.abs_err_sum / self.abs_err_count if measured else math.nan,
            eps_rel=self.rel_err_sum / max(1, self.rel_err_windows) if measured else math.nan,
            bits_code=self.bits_code,
            bits_residual=self.bits_residual,
            bits_raw=self.bits_raw,
            wall_time=self.wall_time,
            status=status,
        )


def _ltc(P, bound):
    knots, _, Q = baselines.ltc_compress_batch(P, bound)  # Q is the decode it checked
    return Q, int(baselines.ltc_bits_batch(knots).sum()), 0


def _lzw(P, bound):
    blobs = baselines.lzw_truncated_compress_batch(P, bound)
    return baselines.lzw_truncated_decompress_batch(blobs, P.shape[1]), sum(map(baselines.lzw_code_bits, blobs)), 0


def _round_trip(method, train_X, k, cfg: BenchmarkConfig, seed):
    """The method's batch round trip `(P, bound) -> (Q, bits_code, bits_residual)`, the bits as batch totals.

    LTC and truncated LZW write one bitstream per window. The rest are transform models, built on the
    training rows (an AE variant trains there from `seed`, PCA fits there), that go through the codec.
    """
    if method in ("ltc", "lzw"):
        return _ltc if method == "ltc" else _lzw
    if method == "pca":
        model = baselines.pca_fit(train_X, k)
    elif method == "dct":
        model = baselines.DctModel(train_X.shape[1], k)
    else:
        model, _ = train(train_X, train_X.shape[1], k, cfg.cost(method), cfg.optimizer, seed)

    def round_trip(P, bound):
        packets = codec.compress_batch(P, model, bound)
        return (codec.decompress_batch(packets, model), *codec.packets_size_bits(packets, model))

    return round_trip


def _eval_cell(method, train_X, test_X, k, cfg: BenchmarkConfig, seed):
    """Build the method's round trip on the training rows and tally it over the test rows, per bound.

    A bound whose round trip raises maps to its exception, and the other bounds still run.
    """
    round_trip = _round_trip(method, train_X, k, cfg, seed)
    out = {}
    for bound in cfg.bounds:
        t0 = time.perf_counter()
        try:
            out[bound] = _CellResult.of_batch(test_X, *round_trip(test_X, bound))
        except Exception as exc:  # recorded on this bound's row; the harness keeps going
            out[bound] = exc
            continue
        out[bound].wall_time = time.perf_counter() - t0
    return out


def run_benchmark(cfg: BenchmarkConfig) -> list[metrics.EvalRow]:
    """Run the full sweep; one row per (method label, bound), failures tallied per row."""
    threads = os.environ.get("AEB_THREADS", "1")
    if not threads.strip().isdecimal() or int(threads) < 1:
        raise ValueError(f"AEB_THREADS must be an integer >= 1, got {threads!r}")
    windows = load_windows(cfg)
    fold_of = dataset.split_folds(len(windows), cfg.folds, cfg.seed)
    rotations = range(cfg.folds if cfg.fold_rotations is None else min(cfg.fold_rotations, cfg.folds))

    # (label, cell); a label's cells are listed in (fold, rep) order and merged
    # in that order, whichever order they run in
    tasks = []
    for fold in rotations:
        train_X, test_X = windows[fold_of != fold], windows[fold_of == fold]
        for mi, method in enumerate((*cfg.variants, *cfg.baseline_methods)):
            for k in (0,) if method in ("ltc", "lzw") else cfg.k_list:
                label = f"{method.upper()}(k={k})" if k else method.upper()
                for rep in range(cfg.repetitions if method in VARIANTS else 1):
                    seed = _cell_seed(cfg.seed, mi, k, fold, rep)
                    tasks.append((label, functools.partial(_eval_cell, method, train_X, test_X, k, cfg, seed)))

    with ThreadPoolExecutor(max_workers=int(threads)) as pool:  # map keeps task order, whatever the count
        outcomes = list(pool.map(_run_cell, [fn for _, fn in tasks]))

    agg = {(label, bound): _CellResult() for label, _ in tasks for bound in cfg.bounds}
    failures: dict[tuple[str, float], str] = {}  # (label, bound) -> its first failed cell's error
    for (label, _), outcome in zip(tasks, outcomes):
        # a cell whose round trip could not be built (training, PCA fit) fails every bound
        cells = dict.fromkeys(cfg.bounds, outcome) if isinstance(outcome, Exception) else outcome
        for bound, cell in cells.items():
            if isinstance(cell, Exception):
                failures.setdefault((label, bound), f"{type(cell).__name__}: {cell}")
            else:
                agg[label, bound].merge(cell)
    return [cell.row(label, bound, failures.get((label, bound))) for (label, bound), cell in sorted(agg.items())]


def _run_cell(fn):
    try:
        return fn()
    except Exception as exc:  # recorded per-row; the harness keeps going
        return exc


CSV_HEADER = "method,bound,cr,eps_abs,eps_rel,bits_code,bits_residual,bits_raw,wall_time,status"
_CSV_TYPES = (str, float, float, float, float, int, int, int, float, str)  # the EvalRow fields, in order


def write_report(rows: list[metrics.EvalRow], cfg: BenchmarkConfig, outdir) -> None:
    """Emit report.csv, manifest.json and the three Fig-style SVG charts."""
    os.makedirs(outdir, exist_ok=True)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.method},{r.epsilon_bound!r},{r.cr!r},{r.eps_abs!r},{r.eps_rel!r},"
            f"{r.bits_code},{r.bits_residual},{r.bits_raw},{r.wall_time:.3f},{r.status}"
        )
    with open(os.path.join(outdir, "report.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    manifest = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "raw_bits_per_reading": RAW_BITS_PER_READING,
        "version": _package_version(),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_plots(rows, outdir)


def read_report(report_dir) -> list[metrics.EvalRow]:
    """The rows of a `write_report` report.csv; `wall_time` comes back at its 3 written decimals."""
    rows = []
    with open(os.path.join(report_dir, "report.csv")) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise FormatError(f"unexpected report header: {header}")
        columns = header.split(",")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",", len(_CSV_TYPES) - 1)  # a status may hold commas
            if len(parts) != len(_CSV_TYPES):
                raise FormatError(f"report line {lineno}: {len(parts)} fields, expected {len(_CSV_TYPES)}")
            values = []
            for column, kind, part in zip(columns, _CSV_TYPES, parts):
                try:
                    values.append(kind(part))
                except ValueError:
                    raise FormatError(f"report line {lineno}: {column} {part!r} is not a valid {kind.__name__}") from None
            rows.append(metrics.EvalRow(*values))
    return rows


# x-axis row field, its label, chart title, file name; the y axis is the CR
_PLOTS = (
    ("eps_rel", "relative error (%)", "Compression ratio vs relative error", "cr_vs_eps_rel.svg"),
    ("eps_abs", "mean absolute error", "Compression ratio vs mean absolute error", "cr_vs_eps_abs.svg"),
    ("epsilon_bound", "error bound", "Error bound vs compression ratio", "bound_vs_cr.svg"),
)


def write_plots(rows: list[metrics.EvalRow], outdir) -> None:
    ok = [r for r in rows if r.status.startswith(("ok", "partial"))]
    by_method: dict[str, list[metrics.EvalRow]] = {}
    for r in ok:
        by_method.setdefault(r.method, []).append(r)
    for x, x_label, title, name in _PLOTS:
        svgplot.line_chart(
            {m: [(getattr(r, x), r.cr) for r in rs] for m, rs in by_method.items()},
            x_label, "compression ratio (%)", title, os.path.join(outdir, name),
        )


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("aebound")
    except Exception:
        return "unknown"
