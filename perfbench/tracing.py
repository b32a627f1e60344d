"""Span tracing of aebound's layers, installed from outside the package.

`Tracer.install` replaces each public function named in TARGETS by a wrapper
that records a span (id, name, start, end, parent id, note). It replaces the
function under every name an aebound module holds it by, so direct imports
such as `codec.normalize`, `harness.train` and `cli.train_model` are traced
too. Spans stay in memory until `write` dumps them as gzipped JSON lines.
`harness._run_cell` is the one private function wrapped: it is the only
place a harness cell starts and ends.

Nothing here runs in an untraced run; the end-to-end metrics never pass
through a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

MODULES = ("dataset", "sphering", "autoencoder", "optimizer", "residual", "codec",
           "baselines", "harness", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# module, function, span name, note taken from (args, kwargs, result)
TARGETS = (
    ("dataset", "load_csv", "dataset.load_csv", None),
    ("dataset", "fill_missing", "dataset.fill_missing", None),
    ("dataset", "make_windows", "dataset.make_windows", lambda a, kw, r: len(r)),
    ("sphering", "estimate_sigma", "sphering.estimate_sigma", None),
    ("sphering", "normalize", "sphering.normalize", None),
    ("autoencoder", "init_params", "autoencoder.init_params", None),
    ("autoencoder", "flatten_params", "autoencoder.flatten_params", None),
    ("autoencoder", "unflatten_params", "autoencoder.unflatten_params", None),
    ("autoencoder", "flatten_gradient", "autoencoder.flatten_gradient", None),
    ("autoencoder", "cost", "autoencoder.cost", None),
    ("autoencoder", "gradient", "autoencoder.gradient", None),
    ("optimizer", "train", "optimizer.train",
     lambda a, kw, r: (r[1].iterations, r[1].stop_reason, r[1].cost_history[-1])),
    ("optimizer", "minimize", "optimizer.minimize", None),
    ("residual", "residual_code", "residual.code", lambda a, kw, r: (r.indicator.shape[0], r.count)),
    ("residual", "residual_decode", "residual.decode", None),
    ("codec", "compress", "codec.compress", None),
    ("codec", "decompress", "codec.decompress", None),
    ("codec", "write_packet_stream", "codec.write_stream",
     lambda a, kw, r: os.path.getsize(_arg(a, kw, 3, "path"))),
    ("codec", "read_packet_stream", "codec.read_stream",
     lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path"))),
    ("codec", "save_model", "codec.save_model", None),
    ("codec", "load_model", "codec.load_model", None),
    ("baselines", "ltc_compress", "baselines.ltc.encode", None),
    ("baselines", "ltc_decompress", "baselines.ltc.decode", None),
    ("baselines", "lzw_truncated_compress", "baselines.lzw.encode", None),
    ("baselines", "lzw_truncated_decompress", "baselines.lzw.decode", None),
    ("baselines", "pca_fit", "baselines.pca.fit", None),
    ("baselines", "pca_compress", "baselines.pca.encode", None),
    ("baselines", "pca_decompress", "baselines.pca.decode", None),
    ("baselines", "dct_compress", "baselines.dct.encode", None),
    ("baselines", "dct_decompress", "baselines.dct.decode", None),
    ("harness", "load_windows", "harness.load_windows", None),
    ("harness", "run_benchmark", "harness.run_benchmark", None),
    ("harness", "_run_cell", "harness.cell", lambda a, kw, r: isinstance(r, Exception)),
    ("harness", "write_report", "harness.write_report", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_compress", "cli.compress", None),
    ("cli", "cmd_decompress", "cli.decompress", None),
)

_RAISED = object()


class Tracer:
    """In-memory span recorder; spans are (id, name, start, end, parent, note)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None  # parent of spans opened by threads with an empty stack
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note):
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = None if note is None or result is _RAISED else note(args, kwargs, result)
                spans.append((sid, name, start, end, parent, info))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"aebound.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, modules))
        for module, attr, name, note in TARGETS:
            original = getattr(by_name[module], attr)
            wrapped = self._wrap(name, original, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span ("setup" or "pass"); spans opened inside become its descendants."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append((sid, name, start, end, None, None))

    def write(self, path) -> None:
        origin = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, name, start, end, parent, info in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "workload": self.workload, "note": info,
                }) + "\n")


def layer_metrics(spans: list[tuple], threads: int) -> dict:
    """Per-layer metrics: totals and counts per traced pass, times per call.

    Self time of a span is its duration minus the durations of its direct
    children. `setup.*` metrics come from the one traced set-up.
    """
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}
    root_memo: dict[int, int] = {}

    def root(sid):
        path = []
        while sid not in root_memo and parent_of.get(sid) is not None:
            path.append(sid)
            sid = parent_of[sid]
        top = root_memo.get(sid, sid)
        for p in path:
            root_memo[p] = top
        return top

    child_time: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    roots = [s for s in spans if s[4] is None]
    passes = sum(1 for s in roots if s[1] == "pass")
    by_phase: dict[str, list[tuple]] = {"pass": [], "setup": []}
    for s in spans:
        if s[4] is not None:
            by_phase[name_of[root(s[0])]].append(s)

    def layer_view(group):
        total, calls, self_time, notes = defaultdict(float), defaultdict(int), defaultdict(float), defaultdict(list)
        for sid, name, start, end, _, info in group:
            total[name] += end - start
            calls[name] += 1
            self_time[name] += end - start - child_time[sid]
            if info is not None:
                notes[name].append(info)
        return total, calls, self_time, notes

    total, calls, self_time, notes = layer_view(by_phase["pass"])
    per = max(passes, 1)

    def secs(name):
        return total[name] / per

    def us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fits = notes["optimizer.train"]
    iterations = sum(f[0] for f in fits)
    coded = notes["residual.code"]
    written, read = sum(notes["codec.write_stream"]), sum(notes["codec.read_stream"])
    cells = notes["harness.cell"]
    m = {
        "dataset.load_csv_s": secs("dataset.load_csv"),
        "dataset.fill_missing_s": secs("dataset.fill_missing"),
        "dataset.make_windows_s": secs("dataset.make_windows"),
        "dataset.windows": sum(notes["dataset.make_windows"]) / per,
        "sphering.estimate_sigma_s": secs("sphering.estimate_sigma"),
        "sphering.normalize_calls": calls["sphering.normalize"] / per,
        "sphering.normalize_us": us("sphering.normalize"),
        "autoencoder.cost_calls": calls["autoencoder.cost"] / per,
        "autoencoder.gradient_calls": calls["autoencoder.gradient"] / per,
        "autoencoder.cost_s": secs("autoencoder.cost"),
        "autoencoder.gradient_s": secs("autoencoder.gradient"),
        "autoencoder.eval_us": 1e6 * ratio(total["autoencoder.cost"] + total["autoencoder.gradient"],
                                           calls["autoencoder.cost"]),
        "optimizer.train_s": secs("optimizer.train"),
        "optimizer.fits": len(fits) / per,
        "optimizer.iterations": iterations / per,
        "optimizer.self_s": (self_time["optimizer.train"] + self_time["optimizer.minimize"]) / per,
        "optimizer.evals_per_iter": ratio(calls["autoencoder.cost"], iterations),
        "optimizer.converged_ratio": ratio(sum(f[1] == "converged" for f in fits), len(fits)),
        "optimizer.final_cost": ratio(sum(f[2] for f in fits), len(fits)),
        "residual.code_calls": calls["residual.code"] / per,
        "residual.code_s": secs("residual.code"),
        "residual.decode_s": secs("residual.decode"),
        "residual.patch_rate": ratio(sum(c[1] for c in coded), sum(c[0] for c in coded)),
        "codec.compress_us": us("codec.compress"),
        "codec.decompress_us": us("codec.decompress"),
        "codec.write_stream_MBps": ratio(written, total["codec.write_stream"]) / 1e6,
        "codec.read_stream_MBps": ratio(read, total["codec.read_stream"]) / 1e6,
        "codec.load_model_s": secs("codec.load_model"),
        "codec.wire_bytes": written / per,
        "baselines.pca.fit_s": secs("baselines.pca.fit"),
        "harness.run_benchmark_s": secs("harness.run_benchmark"),
        "harness.cells": len(cells) / per,
        "harness.cells_failed": sum(cells) / per,
        "harness.cell_busy_s": secs("harness.cell"),
        "harness.parallel_efficiency": ratio(total["harness.cell"], total["harness.run_benchmark"] * threads),
        "harness.write_report_s": secs("harness.write_report"),
        "cli.compress_s": secs("cli.compress"),
        "cli.decompress_s": secs("cli.decompress"),
        "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")) / per,
        "trace.spans": sum(calls.values()) / per,
    }
    for codec_name in ("ltc", "lzw", "pca", "dct"):
        m[f"baselines.{codec_name}.encode_us"] = us(f"baselines.{codec_name}.encode")
        m[f"baselines.{codec_name}.decode_us"] = us(f"baselines.{codec_name}.decode")

    # set-up: where the traced set-up's time went, by module; `bench` is the
    # benchmark's own input generation and file writing
    setup_total = layer_view(by_phase["setup"])[0]
    setup_roots = [s for s in roots if s[1] == "setup"]
    m["setup.dataset_s"] = sum(v for k, v in setup_total.items() if k.startswith("dataset."))
    m["setup.train_s"] = setup_total["optimizer.train"]
    m["setup.codec_s"] = sum(v for k, v in setup_total.items() if k.startswith("codec."))
    m["setup.bench_s"] = sum(end - start - child_time[sid] for sid, _, start, end, _, _ in setup_roots)
    return m
