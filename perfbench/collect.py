"""Run every workload over several seeds and write one results file.

    python3 perfbench/collect.py --seeds 1-10 --seconds 20 --trace-seed 1 \
        --out perfbench/results/NAME.json

Runs `run.py` once per workload and seed with tracing off (seeds outermost,
so a change in machine load spreads over all workloads), then once per
workload with tracing on for `--trace-seed`. For each end-to-end metric it
prints the median and the spread, the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. The results file holds, per workload, every run's metrics
and figures, those statistics, the traced run's per-layer metrics and the
environment each run recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "stream", "sweep")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py run; returns (result line, details file)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "_work" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def spread_stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace-seed", type=int, default=None, help="also make one traced run per workload")
    p.add_argument("--out", help="results file to write")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    workloads = args.workloads.split(",")
    out = {w: {"runs": []} for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, details = run(w, seed, seconds, 0)
            out[w]["runs"].append({"seed": seed, "result": result, "figures": details["figures"],
                                   "problems": details["problems"], "env": details["env"]})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':8} {'metric':12} {'median':>10} {'spread':>7} {'bound':>6}  (n={len(seeds)})")
    for w in workloads:
        runs = out[w]["runs"]
        ok &= all(r["result"]["correct"] for r in runs)
        out[w]["end_to_end"] = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            stats = spread_stats(values) if len(values) > 1 else {"median": values[0]}
            out[w]["end_to_end"][m["name"]] = {**stats, "unit": m["unit"], "bound": m["bound"]}
            if "spread" in stats:
                flag = "" if stats["spread"] < m["bound"] / 3 else ("  > bound/3" if stats["spread"] < m["bound"] else "  > BOUND")
                print(f"{w:8} {m['name']:12} {stats['median']:10.4g} {stats['spread']:7.3f} {m['bound']:6.2f}{flag}")
        out[w]["figures"] = {
            name: statistics.median(r["figures"][name] for r in runs) for name in runs[0]["figures"]
        }
        for name, value in out[w]["figures"].items():
            print(f"{w:8} {name:16} {value:10.4g}  (median figure)")
    if args.trace_seed is not None:
        for w in workloads:
            result, details = run(w, args.trace_seed, seconds, 1)
            ok &= result["correct"]
            out[w]["traced"] = {"seed": args.trace_seed, "result": result, "env": details["env"],
                                "config": details["config"]}
            print(f"{w} traced: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if v["value"]))
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": seconds, "seeds": seeds, "workloads": out},
                                             indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED A CHECK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
