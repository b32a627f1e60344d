"""Benchmark harness: k-fold protocol, method sweeps, CSV reports, SVG plots.

For each autoencoder cell (variant, k, fold rotation, repetition) a model is
trained once and evaluated at every error bound, so compression-ratio curves
over bounds share the same weights. Baselines run once per fold (they have no
init randomness). Rows aggregate bits across all cells, so the reported CR is
recomputable from the bit columns exactly.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import baselines, codec, dataset, metrics, residual, svgplot
from .autoencoder import CostConfig
from .optimizer import LbfgsOptions, train

AE_VARIANTS = ("ae", "wae", "sae")
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
    stride: int | None = None
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
        if not self.k_list or not self.bounds:
            raise ValueError("k and bound sweep lists must be non-empty")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for v in self.variants:
            if v not in AE_VARIANTS:
                raise ValueError(f"unknown variant {v!r}")
        for m in self.baseline_methods:
            if m not in BASELINE_METHODS:
                raise ValueError(f"unknown baseline {m!r}")
        for b in self.bounds:
            if not b >= 0:  # also rejects NaN
                raise ValueError(f"bounds must be nonnegative, got {b}")


def _cell_seed(base: int, *parts: int) -> int:
    return int(np.random.SeedSequence([base, *parts]).generate_state(1)[0])


def load_windows(cfg: BenchmarkConfig) -> np.ndarray:
    if cfg.csv_path is not None:
        matrix = dataset.fill_missing(
            dataset.load_csv(cfg.csv_path, dataset.CsvSchema(timestamp=cfg.timestamp_column))
        )
    else:
        matrix = dataset.synth_dataset(
            cfg.sensors, cfg.steps, cfg.seed, cfg.noise_sd,
            period_range=cfg.period_range, amp_range=cfg.amp_range,
        )
    n = cfg.window if cfg.mode == "temporal" else matrix.n_sensors
    return dataset.make_windows(matrix, cfg.mode, n, cfg.stride)


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
    def of_batch(cls, P: np.ndarray, Q: np.ndarray, bits_code, bits_residual) -> "_CellResult":
        """Tallies of the rows of P, reconstructed as Q, with their per-row bit counts."""
        B, n = P.shape
        denom = np.sum(P**2, axis=1)
        windowed = denom > 0  # the relative error of an all-zero window is undefined
        rel = 100.0 * np.sum((P - Q) ** 2, axis=1)[windowed] / denom[windowed]
        return cls(
            bits_code=int(np.sum(bits_code)),
            bits_residual=int(np.sum(bits_residual)),
            bits_raw=RAW_BITS_PER_READING * n * B,
            abs_err_sum=_running_sum(np.sum(np.abs(P - Q), axis=1)),
            abs_err_count=n * B,
            rel_err_sum=_running_sum(rel),
            rel_err_windows=int(np.count_nonzero(windowed)),
        )

    def merge(self, other: "_CellResult"):
        self.bits_code += other.bits_code
        self.bits_residual += other.bits_residual
        self.bits_raw += other.bits_raw
        self.abs_err_sum += other.abs_err_sum
        self.abs_err_count += other.abs_err_count
        self.rel_err_sum += other.rel_err_sum
        self.rel_err_windows += other.rel_err_windows
        self.wall_time += other.wall_time


def _ae_round_trip(train_X, variant, k, cfg: BenchmarkConfig, seed):
    """Train one model on the training rows; its round trip goes through packets."""
    cost_cfg = CostConfig(variant=variant, beta=cfg.beta, eta=cfg.eta, rho=cfg.rho)
    n = train_X.shape[1]
    model, _ = train(train_X, n, k, cost_cfg, cfg.optimizer, seed)

    def round_trip(P, bound):
        packets = codec.compress_batch(P, model, bound)
        return (codec.decompress_batch(packets, model), *codec.packets_size_bits(packets, n, k))

    return round_trip


def _patched(P, recon, bound, bits_code):
    """A transform coder's reconstructions plus the residual patches that bound them."""
    code = residual.residual_code((P - recon).ravel(), bound)
    patched = code.indicator.reshape(P.shape).sum(axis=1)
    Q = recon + residual.residual_decode(code, P.size).reshape(P.shape)
    return Q, np.full(P.shape[0], bits_code), P.shape[1] + 32 * patched


def _row_by_row(one):
    """Lift a one-window round trip `(p, bound) -> (q, bits_code, bits_residual)` to a batch."""

    def round_trip(P, bound):
        Q = np.empty_like(P)
        bits = np.zeros((2, P.shape[0]), dtype=np.int64)
        for i, p in enumerate(P):
            Q[i], bits[0, i], bits[1, i] = one(p, bound)
        return Q, bits[0], bits[1]

    return round_trip


def _baseline_round_trip(train_X, method, k):
    """The method's batch round trip; PCA fits its basis on the training rows here.

    LTC and truncated LZW code each window as its own bitstream, so they run
    row by row; PCA and DCT transform the whole batch at once.
    """
    n = train_X.shape[1]
    if method == "ltc":
        def one(p, bound):
            segs = baselines.ltc_compress(p, bound)
            return baselines.ltc_decompress(segs), baselines.ltc_bits(segs), 0

        return _row_by_row(one)
    if method == "lzw":
        def one(p, bound):
            blob = baselines.lzw_truncated_compress(p, bound)
            return baselines.lzw_truncated_decompress(blob, n), baselines.lzw_code_bits(blob), 0

        return _row_by_row(one)
    if method == "pca":
        basis = baselines.pca_fit(train_X, k)

        def round_trip(P, bound):
            recon = baselines.pca_decompress(baselines.pca_compress(P, basis), basis)
            return _patched(P, recon, bound, 32 * k)
    else:  # dct
        idx_bits = max(1, math.ceil(math.log2(n)))

        def round_trip(P, bound):
            recon = baselines.dct_decompress_batch(*baselines.dct_compress_batch(P, k), n)
            return _patched(P, recon, bound, k * (32 + idx_bits))
    return round_trip


def _eval_cell(round_trip, test_X, bounds):
    """Tally `round_trip(P, bound) -> (Q, bits_code[B], bits_residual[B])` over the test rows, per bound."""
    out = {}
    for bound in bounds:
        t0 = time.perf_counter()
        cell = _CellResult.of_batch(test_X, *round_trip(test_X, bound))
        cell.wall_time = time.perf_counter() - t0
        out[bound] = cell
    return out


def run_benchmark(cfg: BenchmarkConfig) -> list[metrics.EvalRow]:
    """Run the full sweep; one row per (method label, bound), failures tallied per row."""
    windows = load_windows(cfg)
    split = dataset.split_folds(len(windows), cfg.folds, cfg.seed)
    rotations = range(cfg.folds if cfg.fold_rotations is None else min(cfg.fold_rotations, cfg.folds))

    # cell task list; keys sort deterministically regardless of execution order
    tasks = []  # (key, label, callable)
    for fold in rotations:
        test_idx = split.indices_of(fold)
        train_idx = np.nonzero(split.fold_assignment != fold)[0]
        train_X, test_X = windows[train_idx], windows[test_idx]
        for vi, variant in enumerate(cfg.variants):
            for k in cfg.k_list:
                for rep in range(cfg.repetitions):
                    seed = _cell_seed(cfg.seed, vi, k, fold, rep)
                    label = f"{variant.upper()}(k={k})"
                    tasks.append(
                        (
                            (0, variant, k, fold, rep),
                            label,
                            lambda tx=train_X, sx=test_X, v=variant, kk=k, s=seed: _eval_cell(
                                _ae_round_trip(tx, v, kk, cfg, s), sx, cfg.bounds
                            ),
                        )
                    )
        for method in cfg.baseline_methods:
            ks = cfg.k_list if method in ("pca", "dct") else (0,)
            for k in ks:
                label = f"{method.upper()}(k={k})" if k else method.upper()
                tasks.append(
                    (
                        (1, method, k, fold, 0),
                        label,
                        lambda tx=train_X, sx=test_X, m=method, kk=k: _eval_cell(
                            _baseline_round_trip(tx, m, kk), sx, cfg.bounds
                        ),
                    )
                )

    n_threads = int(os.environ.get("AEB_THREADS", "1"))
    results: dict[tuple, object] = {}
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = {key: pool.submit(_run_cell, fn) for key, _, fn in tasks}
            for key, fut in futures.items():
                results[key] = fut.result()
    else:
        for key, _, fn in tasks:
            results[key] = _run_cell(fn)

    # deterministic aggregation order
    agg: dict[tuple[str, float], _CellResult] = {}
    failures: dict[tuple[str, float], str] = {}
    labels = {key: label for key, label, _ in tasks}
    for key in sorted(results):
        label = labels[key]
        outcome = results[key]
        if isinstance(outcome, Exception):
            for bound in cfg.bounds:
                failures.setdefault((label, bound), f"{type(outcome).__name__}: {outcome}")
            continue
        for bound, cell in outcome.items():
            agg.setdefault((label, bound), _CellResult()).merge(cell)

    rows = []
    seen = sorted(set(agg) | set(failures), key=lambda kb: (kb[0], kb[1]))
    for label, bound in seen:
        if (label, bound) in agg:
            cell = agg[(label, bound)]
            rows.append(
                metrics.EvalRow(
                    method=label,
                    epsilon_bound=bound,
                    cr=metrics.compression_ratio(cell.bits_code, cell.bits_residual, cell.bits_raw),
                    eps_abs=cell.abs_err_sum / cell.abs_err_count,
                    eps_rel=cell.rel_err_sum / max(1, cell.rel_err_windows),
                    bits_code=cell.bits_code,
                    bits_residual=cell.bits_residual,
                    bits_raw=cell.bits_raw,
                    wall_time=cell.wall_time,
                    status="ok" if (label, bound) not in failures else "partial:" + failures[(label, bound)],
                )
            )
        else:
            rows.append(
                metrics.EvalRow(
                    method=label,
                    epsilon_bound=bound,
                    cr=float("nan"),
                    eps_abs=float("nan"),
                    eps_rel=float("nan"),
                    bits_code=0,
                    bits_residual=0,
                    bits_raw=0,
                    wall_time=0.0,
                    status="failed:" + failures[(label, bound)],
                )
            )
    return rows


def _run_cell(fn):
    try:
        return fn()
    except Exception as exc:  # recorded per-row; the harness keeps going
        return exc


CSV_HEADER = "method,bound,cr,eps_abs,eps_rel,bits_code,bits_residual,bits_raw,wall_time,status"


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
        "config": _config_dict(cfg),
        "seed": cfg.seed,
        "raw_bits_per_reading": RAW_BITS_PER_READING,
        "version": _package_version(),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_plots(rows, outdir)


def write_plots(rows: list[metrics.EvalRow], outdir) -> None:
    ok = [r for r in rows if r.status.startswith(("ok", "partial"))]
    by_method: dict[str, list[metrics.EvalRow]] = {}
    for r in ok:
        by_method.setdefault(r.method, []).append(r)
    svgplot.line_chart(
        {m: [(r.eps_rel, r.cr) for r in rs] for m, rs in by_method.items()},
        "relative error (%)", "compression ratio (%)", "Compression ratio vs relative error",
        os.path.join(outdir, "cr_vs_eps_rel.svg"),
    )
    svgplot.line_chart(
        {m: [(r.eps_abs, r.cr) for r in rs] for m, rs in by_method.items()},
        "mean absolute error", "compression ratio (%)", "Compression ratio vs mean absolute error",
        os.path.join(outdir, "cr_vs_eps_abs.svg"),
    )
    svgplot.line_chart(
        {m: [(r.epsilon_bound, r.cr) for r in rs] for m, rs in by_method.items()},
        "error bound", "compression ratio (%)", "Error bound vs compression ratio",
        os.path.join(outdir, "bound_vs_cr.svg"),
    )


def _config_dict(cfg: BenchmarkConfig) -> dict:
    d = asdict(cfg)
    d["optimizer"] = asdict(cfg.optimizer)
    return d


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("aebound")
    except Exception:
        return "unknown"
