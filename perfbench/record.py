"""Record one point of the bench trajectory: every workload, untraced and traced.

    python3 perfbench/record.py --label <commit> [--seeds 1,...,10] [--seconds 15]

Runs `run.py` one run at a time: untraced once per workload and seed, and
traced once per workload, with the first seed.  Writes
`perfbench/results/BENCH_<label>.json`, which holds every run's report
lines and result object, the per-metric medians and spreads
((Q3 - Q1) / median) over the seeds, and the machine the runs were made on.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _machine() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def _spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",") if s]

    doc = {"label": args.label, "seconds": seconds, "seeds": seeds,
           "machine": _machine(), "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, key, trace_seeds in ((0, "untraced", seeds), (1, "traced", seeds[:1])):
            runs = [_run(wl, seed, seconds, trace) for seed in trace_seeds]
            results = [r["result"] for r in runs]
            names = results[0]["metrics"]
            entry[key] = {
                "runs": runs,
                "median": {n: statistics.median(r["metrics"][n]["value"] for r in results)
                           for n in names},
                "spread": {n: _spread([r["metrics"][n]["value"] for r in results])
                           for n in names},
            }
            print(wl, key, json.dumps(entry[key]["median"]), flush=True)
        doc["workloads"][wl] = entry
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
