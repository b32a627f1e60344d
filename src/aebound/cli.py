"""Command-line entry point: train, compress, decompress, bench, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing

import numpy as np

from . import codec, dataset, harness
from .errors import AeboundError, FormatError
from .optimizer import LbfgsOptions, train as train_model

class UsageError(Exception):
    """Bad configuration or arguments; maps to exit code 2."""


_ALIASES = {"k": "k_list", "baselines": "baseline_methods", "csv": "csv_path"}
# config key -> type of the LbfgsOptions or BenchmarkConfig field it sets
_OPTIMIZER_FIELDS = typing.get_type_hints(LbfgsOptions)
_FIELDS = {**typing.get_type_hints(harness.BenchmarkConfig), **_OPTIMIZER_FIELDS}
del _FIELDS["optimizer"]  # set through its own fields


def parse_config_file(path) -> dict:
    """key=value lines; '#' comments; lists are comma-separated."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _coerce(key: str, value: str):
    """Parse a value as its field's type: `int | None` as int, a tuple as comma-separated items."""
    hint = _FIELDS[key]
    scalar = next((t for t in typing.get_args(hint) if t not in (type(None), Ellipsis)), hint)
    if typing.get_origin(hint) is tuple:
        return tuple(scalar(v.strip()) for v in value.split(",") if v.strip())
    return scalar(value)


def build_config(args) -> harness.BenchmarkConfig:
    pairs = list(parse_config_file(args.config).items()) if args.config else []
    raw = {_ALIASES.get(key, key): value for key, value in pairs + (args.set or [])}  # --set wins
    source = raw.pop("dataset", "synth")
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    if source == "csv" and "csv_path" not in raw:
        raise UsageError("dataset=csv requires csv=<path>")
    cfg = {k: _coerce(k, v) for k, v in raw.items()}
    opts = LbfgsOptions(**{k: cfg.pop(k) for k in list(cfg) if k in _OPTIMIZER_FIELDS})
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return harness.BenchmarkConfig(optimizer=opts, **cfg)


def cmd_train(args) -> int:
    cfg = build_config(args)
    windows = harness.load_windows(cfg)
    variant = cfg.variants[0]
    k = cfg.k_list[0]
    n = windows.shape[1]
    model, trace = train_model(windows, n, k, cfg.cost(variant), cfg.optimizer, cfg.seed)
    bound = cfg.bounds[0]
    codec.save_model(model, bound, args.out)
    print(
        f"trained {variant.upper()} n={n} k={k} on {len(windows)} vectors: "
        f"{trace.iterations} iterations, cost {trace.cost_history[0]:.6g} -> "
        f"{trace.cost_history[-1]:.6g}, grad norm {trace.final_grad_norm:.3g}, "
        f"stop={trace.stop_reason}"
    )
    print(f"model written to {args.out}")
    return 0


def _csv_windows(path, timestamp_column, model, mode):
    matrix = dataset.fill_missing(
        dataset.load_csv(path, dataset.CsvSchema(timestamp=timestamp_column))
    )
    n = model.n
    return dataset.make_windows(matrix, mode, n)


def _wide_residuals(default_bound: float) -> bool:
    """Patch width on the wire, fixed by the model: 64-bit readings only for a lossless model.

    `decompress` knows only the model, so `compress` must encode with the
    same width whatever `--bound` says; the writer takes it from the packets.
    """
    return default_bound == 0.0


def cmd_compress(args) -> int:
    model, default_bound = codec.load_model(args.model)
    bound = default_bound if args.bound is None else args.bound
    wide = _wide_residuals(default_bound)
    if bound == 0.0 and not wide:
        raise UsageError(f"--bound 0 needs a lossless model; this model's default bound is {default_bound}")
    windows = _csv_windows(args.input, args.timestamp_column, model, args.mode)
    packets = codec.compress_batch(windows, model, bound, wide)
    codec.write_packet_stream(packets, model.n, model.k, args.out)
    if args.verify:
        decoded = codec.read_packet_stream(args.out, model.n, model.k, wide_residuals=wide)
        worst = 0.0
        if len(decoded) == len(windows):
            worst = float(np.max(np.abs(windows - codec.decompress_batch(decoded, model))))
        if len(decoded) != len(windows) or worst > bound:
            print(f"VERIFY FAILED: {len(decoded)} packets read back for {len(windows)} windows, "
                  f"max error {worst} (bound {bound})", file=sys.stderr)
            return 1
        print(f"verify ok: max reconstruction error {worst:.6g} <= bound {bound}")
    print(f"patched {packets.eps.indicator.mean():.2%} of {windows.size} readings, "
          f"{8 * os.path.getsize(args.out) / windows.size:.3f} bits per reading written")
    print(f"wrote {len(packets)} packets to {args.out}")
    return 0


_CSV_BLOCK_ROWS = 4096  # rows turned into Python floats at a time


def cmd_decompress(args) -> int:
    model, default_bound = codec.load_model(args.model)
    wide = _wide_residuals(default_bound)
    packets = codec.read_packet_stream(args.packets, model.n, model.k, wide_residuals=wide)
    recon = codec.decompress_batch(packets, model)
    with open(args.out, "w") as fh:
        fh.write("window," + ",".join(f"v{i}" for i in range(model.n)) + "\n")
        for start in range(0, len(recon), _CSV_BLOCK_ROWS):
            rows = recon[start:start + _CSV_BLOCK_ROWS].tolist()
            # repr keeps every float64 exact
            fh.writelines(f"{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows, start))
    print(f"decompressed {len(packets)} packets to {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = build_config(args)
    rows = harness.run_benchmark(cfg)
    harness.write_report(rows, cfg, args.out)
    print(f"wrote {len(rows)} rows to {os.path.join(args.out, 'report.csv')}")
    n_bad = sum(1 for r in rows if r.status != "ok")
    if n_bad:
        print(f"error: {n_bad} of {len(rows)} rows failed or partial; see the status column", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from .metrics import EvalRow

    rows = []
    with open(os.path.join(args.report_dir, "report.csv")) as fh:
        header = fh.readline().strip()
        if header != harness.CSV_HEADER:
            raise FormatError(f"unexpected report header: {header}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(
                EvalRow(
                    method=parts[0], epsilon_bound=float(parts[1]), cr=float(parts[2]),
                    eps_abs=float(parts[3]), eps_rel=float(parts[4]), bits_code=int(parts[5]),
                    bits_residual=int(parts[6]), bits_raw=int(parts[7]),
                    wall_time=float(parts[8]), status=",".join(parts[9:]),
                )
            )
    harness.write_plots(rows, args.report_dir)
    print(f"plots written to {args.report_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aebound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p, seed_required=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", nargs=2, action="append", metavar=("KEY", "VALUE"),
                       help="override a config key")
        p.add_argument("--seed", type=int, required=seed_required, default=None)

    p = sub.add_parser("train", help="fit a model and write a model file")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compress", help="compress a CSV into a packet stream")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--timestamp-column", default="t")
    p.add_argument("--mode", choices=("temporal", "spatial"), default="temporal")
    p.add_argument("--bound", type=float, default=None,
                   help="override the model's default bound; 0 (lossless) needs a lossless model")
    p.add_argument("--out", required=True)
    p.add_argument("--verify", action="store_true",
                   help="decode the written file and check the bound against the original")
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("decompress", help="decompress a packet stream into a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--packets", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_decompress)

    p = sub.add_parser("bench", help="run the benchmark sweep and write a report")
    add_config_args(p, seed_required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("report", help="regenerate plots from an existing report.csv")
    p.add_argument("--report-dir", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AeboundError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
