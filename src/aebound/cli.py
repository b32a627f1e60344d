"""Command-line entry point: train, compress, decompress, bench, report."""

from __future__ import annotations

import argparse
import os
import sys
import typing

import numpy as np

from . import codec, dataset, harness
from .errors import AeboundError, FormatError
from .optimizer import LbfgsOptions, train as train_model

class UsageError(Exception):
    """Bad configuration or arguments; maps to exit code 2."""


def _say(text: str) -> None:
    """Print a line to stdout at once. If its reader has gone (EPIPE, as under `| head -1`),
    stdout becomes /dev/null: the command runs to its end and exits with its own status."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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
    try:
        if typing.get_origin(hint) is tuple:
            return tuple(scalar(v.strip()) for v in value.split(",") if v.strip())
        return scalar(value)
    except ValueError:
        raise ValueError(f"{key} = {value!r} is not a valid {scalar.__name__}") from None


def build_config(args) -> harness.BenchmarkConfig:
    pairs = list(parse_config_file(args.config).items()) if args.config else []
    raw = {_ALIASES.get(key, key): value for key, value in pairs + (args.set or [])}  # --set wins
    source = "csv" if "csv_path" in raw else "synth"  # a csv key alone decides the source
    if raw.pop("dataset", source) != source:
        raise UsageError(f"dataset must be {source!r}, since csv=<path> is {'' if source == 'csv' else 'not '}given")
    if raw.get("mode") == "spatial" and "window" in raw:
        raise UsageError("window is a key of mode = temporal only: a spatial window holds one reading per sensor")
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    try:
        cfg = {k: _coerce(k, v) for k, v in raw.items()}
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        opts = LbfgsOptions(**{k: cfg.pop(k) for k in list(cfg) if k in _OPTIMIZER_FIELDS})
        return harness.BenchmarkConfig(optimizer=opts, **cfg)
    except (ValueError, TypeError) as exc:  # each message names its key
        raise UsageError(f"bad config value: {exc}") from exc


def cmd_train(args) -> int:
    cfg = build_config(args)
    if not cfg.variants:
        raise UsageError("train needs at least one entry in variants")
    bound = cfg.bounds[0]
    if not np.isfinite(bound):  # save_model would refuse it, so fail before the fit
        raise UsageError(f"train saves bounds[0] as the model's default bound, which must be finite, got {bound}")
    windows = harness.load_windows(cfg)
    variant = cfg.variants[0]
    k = cfg.k_list[0]
    n = windows.shape[1]
    model, trace = train_model(windows, n, k, cfg.cost(variant), cfg.optimizer, cfg.seed)
    codec.save_model(model, bound, cfg.mode, args.out)
    _say(
        f"trained {variant.upper()} n={n} k={k} on {len(windows)} vectors: "
        f"{trace.iterations} iterations, cost {trace.cost_history[0]:.6g} -> "
        f"{trace.cost_history[-1]:.6g}, grad norm {trace.final_grad_norm:.3g}, "
        f"stop={trace.stop_reason}"
    )
    _say(f"model written to {args.out}")
    return 0


def cmd_compress(args) -> int:
    if args.bound is not None and not args.bound >= 0:  # also rejects NaN
        raise UsageError(f"--bound must be nonnegative, got {args.bound}")
    model, default_bound, mode = codec.load_model(args.model)
    bound = default_bound if args.bound is None else args.bound
    matrix = dataset.fill_missing(dataset.load_csv(args.input, args.timestamp_column))
    windows = dataset.make_windows(matrix, mode, model.n)
    left_out = matrix.values.size - windows.size  # temporal: each sensor's trailing partial window
    del matrix  # windows holds a copy of every reading used; free the matrix before encoding
    packets = codec.compress_batch(windows, model, bound)
    codec.write_packet_stream(packets, model.n, model.k, args.out)
    if args.verify:
        decoded = codec.read_packet_stream(args.out, model.n, model.k)
        worst = 0.0
        if len(decoded) == len(windows):
            worst = float(np.max(np.abs(windows - codec.decompress_batch(decoded, model))))
        if len(decoded) != len(windows) or worst > bound:
            print(f"VERIFY FAILED: {len(decoded)} packets read back for {len(windows)} windows, "
                  f"max error {worst} (bound {bound})", file=sys.stderr)
            return 1
        _say(f"verify ok: max reconstruction error {worst:.6g} <= bound {bound}")
    _say(f"patched {packets.eps.indicator.mean():.2%} of {windows.size} readings, "
         f"{8 * os.path.getsize(args.out) / windows.size:.3f} bits per reading written")
    _say(f"left out {left_out} of {windows.size + left_out} readings: no window of {model.n} holds them")
    _say(f"wrote {len(packets)} packets to {args.out}")
    return 0


_CSV_BLOCK_ROWS = 4096  # rows turned into Python floats at a time


def cmd_decompress(args) -> int:
    model, _, _ = codec.load_model(args.model)
    packets = codec.read_packet_stream(args.packets, model.n, model.k)
    recon = codec.decompress_batch(packets, model)
    with open(args.out, "w") as fh:
        fh.write("window," + ",".join(f"v{i}" for i in range(model.n)) + "\n")
        for start in range(0, len(recon), _CSV_BLOCK_ROWS):
            rows = recon[start:start + _CSV_BLOCK_ROWS].tolist()
            # repr keeps every float64 exact
            fh.writelines(f"{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows, start))
    _say(f"decompressed {len(packets)} packets to {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = build_config(args)
    rows = harness.run_benchmark(cfg)
    harness.write_report(rows, cfg, args.out)
    _say(f"wrote {len(rows)} rows to {os.path.join(args.out, 'report.csv')}")
    n_bad = sum(1 for r in rows if r.status != "ok")
    if n_bad:
        print(f"error: {n_bad} of {len(rows)} rows failed or partial; see the status column", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    harness.write_plots(harness.read_report(args.report_dir), args.report_dir)
    _say(f"plots written to {args.report_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aebound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        # no abbreviated flags: an unknown flag must not be read as one it prefixes (`--mod` as `--model`)
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    def add_config_args(p, seed_required=False):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", nargs=2, action="append", metavar=("KEY", "VALUE"),
                       help="override a config key")
        p.add_argument("--seed", type=int, required=seed_required, default=None)

    p = command("train", cmd_train, "fit a model and write a model file")
    add_config_args(p)
    p.add_argument("--out", required=True, help="output model file")

    p = command("compress", cmd_compress, "compress a CSV into a packet stream, windowed as the model was trained")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--timestamp-column", default="t")
    p.add_argument("--bound", type=float, default=None,
                   help="override the model's default bound; 0 is lossless")
    p.add_argument("--out", required=True)
    p.add_argument("--verify", action="store_true",
                   help="decode the written file and check the bound against the original")

    p = command("decompress", cmd_decompress, "decompress a packet stream into a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--packets", required=True)
    p.add_argument("--out", required=True)

    p = command("bench", cmd_bench, "run the benchmark sweep and write a report")
    add_config_args(p, seed_required=True)
    p.add_argument("--out", required=True, help="report directory")

    p = command("report", cmd_report, "regenerate plots from an existing report.csv")
    p.add_argument("--report-dir", required=True)
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
