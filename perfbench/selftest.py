"""Self-test of the benchmark at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, reports every metric that
BENCHMARK.json names with the unit it names and no failed op; that the
span recorder leaves spiderfind's modules unwrapped afterwards; that
`run.py` ends its output with the result object; and that `run.py` fails
without a result where the package sources are missing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

TINY = {
    "large_regular": dict(n=2000, ell=5),
    "corpus_mix": dict(ell_max=5, n_max=60),
    "cli_generate": dict(n=300, d=12),
    "oracle_search": dict(n=7, d=3, ell=2),
}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check_metrics(where, metrics, expected):
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, f"{where}: metrics {got} != {want}"
    for name, m in metrics.items():
        assert isinstance(m["value"], float), f"{where}: {name} is not a number"


def _module_state(modules):
    return {(mod.__name__, k): v for mod in modules for k, v in vars(mod).items()}


def check_workloads(spec):
    from spiderfind import cli, digraph, oracle, solver
    from tracer import is_wrapped
    from workloads import WORKLOADS

    modules = (solver, cli, oracle, digraph)
    before = _module_state(modules)
    assert sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    for name, cls in WORKLOADS.items():
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            lines, result = run.run_workload(cls(**TINY[name]), 1, 0.3, trace)
            where = f"{name} trace={int(trace)}"
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["failed"] == 0 and result["correct"], f"{where}: {result}"
            _check_metrics(where, result["metrics"], expected)
            printed = {ln.split()[0] for ln in lines}
            assert {m["name"] for m in expected} <= printed, f"{where}: {lines}"
            if not trace:
                assert "failed_ratio 0 ratio" in "\n".join(lines), where
        after = _module_state(modules)
        assert after == before, f"{name}: tracer left spiderfind modules changed"
        assert not any(is_wrapped(v) for v in after.values())


def check_command():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_search",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1 and result["failed"] == 0, result


def check_fails_without_sources():
    tmp_parent = os.path.join(run.ROOT, ".perfbench-tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    bare = tempfile.mkdtemp(dir=tmp_parent)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(run.ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle_search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode != 0, out
        assert out.stdout.strip() == "", out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass


def main() -> int:
    run._import_package()
    check_workloads(_spec())
    check_command()
    check_fails_without_sources()
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
