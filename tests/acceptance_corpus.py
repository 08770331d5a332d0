"""Shared corpus for the acceptance suite.

Criterion 1 solves the whole corpus, criterion 3 inspects the recorded
inequality checks from the same runs, and criterion 7 repeats the corpus
with identical seeds and compares result fingerprints, so the corpus lives
in one module and the first run is cached.

Run as a script, it solves the whole corpus and prints one JSON line per
spec (spec, verdict, check names, failed checks, digest, error, the
trace's a, c, s and shortfall t, and the number of A members scored to
find the root, above 1 only when a second batch ran), so two source trees
compare with a plain `diff`:

    PYTHONPATH=src python tests/acceptance_corpus.py > corpus.jsonl
"""
from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import time

import numpy as np

from spiderfind import (
    explain_trace,
    find_spider,
    format_spider,
    gen_complete_digraph,
    gen_random_out_regular,
    verify_spider,
)

BASE_SEED = 20250808
ELLS = range(1, 51)
TRIALS_PER_ELL = 200
N_MAX = 2000

# sha256 of "\n".join of the per-spec digests in corpus_specs() order,
# measured with numpy 2.4.6.  Only a change that alters spiders on purpose
# may update it, and that change says so in CHANGES.md with the count of
# changed specs: ROADMAP item 13 (the first root by in-degree reaching
# d^2 - d, not the maximiser) re-pinned it, item 10 (extenders first,
# coloring only the shortfall t = max(0, l - a - c)) re-pinned it again,
# changing 8,961 of the 10,050 specs, and item 18 (candidates ordered by
# their in-degree over the first m/4 edge heads, each scored from its own
# two scans) changed 9,390.
CORPUS_DIGEST = "e1ec725222d93f43aaa53cfa3a06fc1cf6d9179c089460f79d0bef0cca599ea1"

_cache: dict[str, tuple[list, float]] = {}


def corpus_specs() -> list[tuple[str, int, int, int]]:
    specs = []
    for ell in ELLS:
        rng = np.random.default_rng(BASE_SEED * 1000 + ell)
        specs.append(("complete", ell, 2 * ell + 1, 0))
        for _ in range(TRIALS_PER_ELL):
            n = int(rng.integers(2 * ell + 1, N_MAX + 1))
            seed = int(rng.integers(0, 2**62))
            specs.append(("random", ell, n, seed))
    return specs


def run_spec(spec):
    """Solve one corpus instance; never raises, so failures stay reportable."""
    kind, ell, n, seed = spec
    try:
        if kind == "complete":
            g = gen_complete_digraph(n)
        else:
            g = gen_random_out_regular(n, 2 * ell, seed)
        outcome = find_spider(g, ell)
        report = verify_spider(g, outcome.spider, ell)
        text = format_spider(outcome.spider) + explain_trace(outcome.trace)
        digest = hashlib.sha256(text.encode()).hexdigest()
        tr = outcome.trace
        failed_checks = [c.name for c in tr.checks if not c.passed]
        return {
            "spec": spec,
            "verified": report is None,
            "violation": None if report is None else str(report),
            "failed_checks": failed_checks,
            "check_names": [c.name for c in tr.checks],
            "digest": digest,
            "error": None,
            "a": tr.a,
            "c": tr.c,
            "s": tr.s,
            "t": tr.shortfall,
            "scored": tr.scored,
        }
    except Exception as exc:  # invariant violations land here
        return {
            "spec": spec,
            "verified": False,
            "violation": None,
            "failed_checks": [],
            "check_names": [],
            "digest": "",
            "error": f"{type(exc).__name__}: {exc}",
            "a": None,
            "c": None,
            "s": None,
            "t": None,
            "scored": None,
        }


def _run_all(specs):
    workers = min(2, os.cpu_count() or 1)
    if workers > 1:
        try:
            with mp.get_context("fork").Pool(workers) as pool:
                return pool.map(run_spec, specs, chunksize=64)
        except (OSError, ValueError):
            pass
    return [run_spec(s) for s in specs]


def corpus_results(pass_name: str = "first") -> tuple[list, float]:
    """Run (or reuse) a full corpus pass; returns (results, elapsed_seconds)."""
    if pass_name not in _cache:
        specs = corpus_specs()
        t0 = time.perf_counter()
        results = _run_all(specs)
        _cache[pass_name] = (results, time.perf_counter() - t0)
    return _cache[pass_name]


if __name__ == "__main__":
    for res in _run_all(corpus_specs()):
        print(json.dumps(res))
