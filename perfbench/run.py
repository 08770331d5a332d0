"""spiderfind benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload large_regular --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each run makes its inputs from `--seed`, runs one untimed warm-up
op, then runs ops one after another until the ops' own timers add up to
`--seconds`.  Every op's output is checked outside the timer; a failed
check or an exception counts in `failed` and the run goes on.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, plus the tracing overhead; its spans are written as JSON lines to
`.perfbench-out/`.  The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    """Import spiderfind from this checkout's src/, never from elsewhere."""
    # One thread: numpy must not start a BLAS pool behind the closed loop.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    init = os.path.join(SRC, "spiderfind", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"run.py: no spiderfind sources at {SRC}")
    sys.path.insert(0, SRC)
    import spiderfind

    if os.path.realpath(spiderfind.__file__) != os.path.realpath(init):
        raise SystemExit(f"run.py: imported spiderfind from {spiderfind.__file__}")


END_TO_END = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Run:
    """Per-op timings and outcomes of one run."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    # Host speed factor (calibrate.HostSpeed) when each untraced op ran.
    factor: list[float] = field(default_factory=list)
    traced_op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _attempt(wl, rng, run: Run, host, ctx, timed: bool, traced: bool) -> float:
    """Set up, time and check one op; return the op's timed seconds."""
    run.attempted += 1
    host.maybe_sample()
    t0 = time.perf_counter()
    t_op = None
    try:
        with ctx:
            inp = wl.setup(rng)
            t1 = time.perf_counter()
            out = wl.op(inp)
            t_op = time.perf_counter() - t1
        ok = wl.check(inp, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        run.failed += 1
        sys.stderr.write(f"{wl.name}: op {run.attempted} failed its check\n")
    if t_op is None:
        return time.perf_counter() - t0
    if timed:
        (run.traced_op_s if traced else run.op_s).append(t_op)
        if not traced:
            run.setup_s.append(t1 - t0)
            run.factor.append(host.factor())
    return t_op


def measure(wl, seed: int, seconds: float, tracer=None) -> Run:
    import numpy as np
    from calibrate import HostSpeed

    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode())])
    run = Run()
    host = HostSpeed(wl.kernel)
    _attempt(wl, rng, run, host, nullcontext(), timed=False, traced=False)
    spent = 0.0
    k = 0
    while spent < seconds:
        k += 1
        traced = tracer is not None and k % 2 == 0
        ctx = tracer.recording(k) if traced else nullcontext()
        spent += _attempt(wl, rng, run, host, ctx, timed=True, traced=traced)
    return run


def end_to_end(run: Run, scaled: bool = True) -> dict:
    """The end-to-end metrics; times in reference-speed seconds if `scaled`."""
    f = run.factor if scaled else [1.0] * len(run.op_s)
    ops = [t * k for t, k in zip(run.op_s, f)]
    setups = [t * k for t, k in zip(run.setup_s, f)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "op_s_p50": statistics.median(ops) if ops else 0.0,
        "ops_per_s": len(ops) / sum(ops) if ops else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _report_lines(wl, run: Run, values: dict) -> list[str]:
    """The metrics by name and unit, then the workload's own names for them."""
    ops = run.op_s
    lines = [f"workload {wl.name}: {len(ops)} timed ops"]
    lines += [f"{name} {values[name]:.6g} {unit}" for name, unit in END_TO_END]
    raw = end_to_end(run, scaled=False)
    lines.append(
        "unscaled: " + ", ".join(f"{n} {raw[n]:.6g} {u}" for n, u in END_TO_END[:3])
        + f"; host speed factor {statistics.median(run.factor or [0.0]):.4g}"
    )
    # p99 only where at least ten samples lie beyond it.
    p99 = statistics.quantiles(ops, n=100)[98] if len(ops) >= 1000 else None
    for name, value, unit in wl.aliases(dict(values, op_s_p99=p99)):
        if value is not None:
            count = f" over {len(ops)} samples" if name.endswith("_p99") else ""
            lines.append(f"{name} {value:.6g} {unit}{count}")
    ratio = run.failed / run.attempted
    lines.append(f"failed_ratio {ratio:.6g} ratio ({run.failed}/{run.attempted})")
    return lines


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Run one workload; return (report lines, result object)."""
    from tracer import PER_LAYER, Tracer

    tracer = Tracer() if trace else None
    tmp_parent = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    wl.tmpdir = tempfile.mkdtemp(dir=tmp_parent)
    try:
        run = measure(wl, seed, seconds, tracer)
    finally:
        shutil.rmtree(wl.tmpdir, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass

    if tracer is None:
        values = end_to_end(run)
        lines = _report_lines(wl, run, values)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    else:
        metrics = tracer.metrics(run.traced_op_s, run.op_s)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{wl.name}-{seed}.jsonl")
        tracer.write_jsonl(spans_path)
        lines = [f"workload {wl.name}: {len(tracer.ops)} traced ops, spans in {spans_path}"]
        lines += [f"{n} {metrics[n]['value']:.6g} {u}" for n, u in PER_LAYER]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    lines, result = run_workload(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
