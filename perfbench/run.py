"""Run one workload of the aebound benchmark and print its result.

    python3 perfbench/run.py --workload {train,stream,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; aebound is imported from its `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics named in BENCHMARK.json, measured with no instrumentation
installed. With `--trace 1` they are its per-layer metrics: the run first
repeats the workload untraced for half the time, then installs the span
tracer and repeats it traced, so the difference is the tracing overhead.

Each run sets its workload up several times (median = `setup_s`) and then
repeats the workload's job until `--seconds` have passed, at least
MIN_PASSES times; times are medians over those passes. The lines above the
result give the environment, the workload's own figures and any failed
check. `perfbench/_work/` receives a details file per run and, for traced
runs, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# harness cells run one at a time: on 2 CPUs, AEB_THREADS=2 made the sweep
# about 30 % slower and its pass times about 3.5 times as spread (the cells
# are bound by the interpreter lock), too unsteady to gate
AEB_THREADS = "1"
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 2.0  # cheap set-ups are repeated until this much time is spent
MIN_PASSES = 3
MIN_TRACE_PASSES = 2  # per half of a traced run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "stream", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without a build record
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "AEB_THREADS": os.environ["AEB_THREADS"],
        "blas_thread_pin": {v: os.environ[v] for v in BLAS_VARS},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "git_commit": git_commit(),
    }


def repeat_setup(wl) -> list[float]:
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def repeat_passes(wl, seconds: float, min_passes: int, tracer=None) -> list[dict]:
    records = []
    start = time.perf_counter()
    while len(records) < min_passes or time.perf_counter() - start < seconds:
        with tracer.phase("pass") if tracer else contextlib.nullcontext():
            records.append(wl.run_pass())
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aebound" / "__init__.py").is_file():
        print(f"error: no aebound sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # one compute thread per run; the BLAS pin must be set before numpy loads
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["AEB_THREADS"] = AEB_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    import workloads

    env = environment(args, nproc)
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        setup_times = repeat_setup(wl)
        if args.trace:
            records = repeat_passes(wl, args.seconds / 2, MIN_TRACE_PASSES)
            tracer = tracing.Tracer(args.workload)
            tracer.install()
            try:
                with tracer.phase("setup"):
                    wl.setup()
                traced = repeat_passes(wl, args.seconds / 2, MIN_TRACE_PASSES, tracer)
            finally:
                tracer.uninstall()
        else:
            records = repeat_passes(wl, args.seconds, MIN_PASSES)
            traced = []
        rss = peak_rss_mb()
        problems = wl.check(records + traced)
        figures = wl.figures(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = records + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    wall = statistics.median(r["wall_s"] for r in records)
    figures["fail_rate"] = failed / attempted
    if args.trace:
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values = tracing.layer_metrics(tracer.spans, int(AEB_THREADS))
        values["trace.overhead_s"] = traced_wall - wall
        values["trace.overhead_pct"] = 100.0 * (traced_wall - wall) / wall
        values.update({f"workload.{k}": v for k, v in figures.items()})
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_times), "wall_s": wall, "peak_rss_mb": rss}
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # a figure that does not apply to this workload reads 0
        value = values.get(m["name"], 0.0 if m["name"].startswith("workload.") else None)
        if value is None:
            raise KeyError(f"{args.workload}: no value for metric {m['name']!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    details = {
        "env": env,
        "config": wl.config(),
        "setup_s": setup_times,
        "pass_wall_s": [r["wall_s"] for r in records],
        "traced_pass_wall_s": [r["wall_s"] for r in traced],
        "figures": figures,
        "problems": problems,
        "metrics": metrics,
    }
    (WORK / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")

    print("env " + json.dumps(env, sort_keys=True))
    for name, value in figures.items():
        print(f"{args.workload} {name} = {value:.6g} {workloads.FIGURE_UNITS[name]}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"{args.workload} CHECK FAILED: {problem}")
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
