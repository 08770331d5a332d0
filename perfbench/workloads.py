"""Benchmark workloads for spiderfind.

Each workload is a closed loop of one kind of op.  `setup` builds the op's
input from the run's random generator (timed as set-up, outside the op
timer), `op` is the timed call into spiderfind, and `check` verifies the
op's output outside the timer.  Every op gets freshly generated input, so
no timed call sees a `Digraph` whose lazy caches an earlier call filled.

Every call into spiderfind goes through a module attribute
(`solver.find_spider`, `cli.main`, `digraph.gen_random_out_regular`, ...)
so that the span recorder can wrap it there.
"""
from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from calibrate import numpy_kernel, python_big_kernel, python_kernel
from spiderfind import cli, digraph, oracle, solver, spider

_SEED_MAX = 2**62


def _verified(g, out, ell) -> bool:
    return spider.verify_spider(g, out.spider, ell) is None


class LargeRegular:
    name = "large_regular"
    kernel = None  # raw seconds; see calibrate.py
    why = (
        "checked find_spider, l=25, on fresh random 50-out-regular graphs with "
        "n=100000 (5M edges): score_roots on its sorted-key path dominates"
    )

    def __init__(self, n=100_000, ell=25):
        self.n = n
        self.ell = ell

    def setup(self, rng):
        seed = int(rng.integers(0, _SEED_MAX))
        return digraph.gen_random_out_regular(self.n, 2 * self.ell, seed)

    def op(self, g):
        return solver.find_spider(g, self.ell, mode="checked")

    def check(self, g, out) -> bool:
        return _verified(g, out, self.ell)

    def aliases(self, m):
        p50, ops = m["op_s_p50"], m["ops_per_s"]
        edges = self.n * 2 * self.ell
        return [("solve_s_p50", p50, "s"), ("edges_per_s", ops * edges, "1/s")]


class CorpusMix:
    name = "corpus_mix"
    # Small solves spend their time in many short numpy calls; their speed
    # follows the numpy kernel, not the interpreter-bound one.
    kernel = staticmethod(numpy_kernel)
    why = (
        "checked find_spider on acceptance-corpus draws: each l in 1..50 once per "
        "50 ops, n in 2l+1..2000, 2l-out-regular, 1 in 201 a tight K_{2l+1}; cost "
        "spread over all stages"
    )

    def __init__(self, ell_max=50, n_max=2000):
        self.ell_max = ell_max
        self.n_max = n_max
        self._ells = []

    def setup(self, rng):
        # Like the acceptance corpus, which holds equally many instances per
        # l, every block of ell_max ops takes each l once, in shuffled order.
        # This keeps the cost mix, and so the median, steady across seeds.
        if not self._ells:
            self._ells = (rng.permutation(self.ell_max) + 1).tolist()
        ell = self._ells.pop()
        # The acceptance corpus draws one complete K_{2l+1} per 200
        # random instances of each l.
        if rng.random() < 1 / 201:
            return ell, digraph.gen_complete_digraph(2 * ell + 1)
        n = int(rng.integers(2 * ell + 1, self.n_max + 1))
        seed = int(rng.integers(0, _SEED_MAX))
        return ell, digraph.gen_random_out_regular(n, 2 * ell, seed)

    def op(self, inp):
        ell, g = inp
        return solver.find_spider(g, ell, mode="checked")

    def check(self, inp, out) -> bool:
        ell, g = inp
        return _verified(g, out, ell)

    def aliases(self, m):
        return [
            ("solve_s_p50", m["op_s_p50"], "s"),
            ("solve_s_p99", m["op_s_p99"], "s"),
            ("solves_per_s", m["ops_per_s"], "1/s"),
        ]


class _CliInput(NamedTuple):
    seed: int
    graph: digraph.Digraph
    path: str


class CliGenerate:
    name = "cli_generate"
    kernel = staticmethod(python_big_kernel)
    why = (
        "in-process `spiderfind generate random-out-regular --n 20000 --d 54` to "
        "a file (1.08M edges, 11 MB): write_edge_list text output dominates"
    )

    def __init__(self, n=20_000, d=54):
        self.n = n
        self.d = d
        self.tmpdir = None
        self._count = 0

    def setup(self, rng):
        seed = int(rng.integers(0, 2**31))
        g = digraph.gen_random_out_regular(self.n, self.d, seed)
        self._count += 1
        return _CliInput(seed, g, os.path.join(self.tmpdir, f"op{self._count}.txt"))

    def op(self, inp):
        argv = [
            "generate", "random-out-regular", "--n", str(self.n),
            "--d", str(self.d), "--seed", str(inp.seed), "-o", inp.path,
        ]
        return cli.main(argv)

    def check(self, inp, rc) -> bool:
        try:
            if rc != 0:
                return False
            with open(inp.path, "r", encoding="utf-8") as fh:
                tokens = np.fromstring(fh.read(), dtype=np.int64, sep=" ")
            g = inp.graph
            return (
                tokens.shape[0] == 2 + 2 * g.m
                and tokens[0] == g.n
                and tokens[1] == g.m
                and np.array_equal(tokens[2::2], g.edge_src)
                and np.array_equal(tokens[3::2], g.edge_dst)
            )
        finally:
            if os.path.exists(inp.path):
                os.remove(inp.path)

    def aliases(self, m):
        return [("cli_generate_s_p50", m["op_s_p50"], "s")]


class OracleSearch:
    name = "oracle_search"
    kernel = staticmethod(python_kernel)
    why = (
        "search_spider_free, l=4, one n=13 regular tournament and one n=13 random "
        "7-out-regular graph per op: the only workload that runs the oracle"
    )

    # n=13 rather than 15: a trial is ~10x cheaper, so a run holds enough
    # trials for a steady median despite the wide spread of branch-and-bound
    # times across relabelings.
    def __init__(self, n=13, d=7, ell=4):
        self.n = n
        self.d = d
        self.ell = ell

    def _sample(self, seed):
        # Even seeds draw a regular tournament, odd seeds a random
        # d-out-regular graph, so each op covers both input sets.
        if seed % 2 == 0:
            return digraph.gen_regular_tournament(self.n, seed)
        return digraph.gen_random_out_regular(self.n, self.d, seed)

    def setup(self, rng):
        seed = 2 * int(rng.integers(0, 2**30))
        return seed, [self._sample(seed), self._sample(seed + 1)]

    def op(self, inp):
        seed, _ = inp
        return oracle.search_spider_free(self._sample, self.ell, 2, seed)

    def check(self, inp, out) -> bool:
        _, graphs = inp
        if out.trials != 2 or out.skipped != 0:
            return False
        kept = {g: res for g, res in out.kept}
        for g in graphs:
            res = kept.get(g)
            ok = self._no_spider(g, res) if res is not None else self._has_spider(g)
            if not ok:
                return False
        return len(kept) == len(out.kept)

    def _no_spider(self, g, res) -> bool:
        # The theorem forces a spider once the minimum out-degree reaches 2l.
        return (
            not res.exists
            and res.witness is None
            and sorted(res.best_per_root) == list(range(g.n))
            and max(res.best_per_root.values()) < self.ell
            and digraph.min_out_degree(g) < 2 * self.ell
        )

    def _has_spider(self, g) -> bool:
        for r in range(g.n):
            size, sp = oracle.max_spider_at_root(g, r)
            if size >= self.ell:
                witness = spider.Spider(root=r, legs=sp.legs[: self.ell])
                return spider.verify_spider(g, witness, self.ell) is None
        return False

    def aliases(self, m):
        return [("trials_per_s", 2 * m["ops_per_s"], "1/s")]


WORKLOADS = {
    w.name: w for w in (LargeRegular, CorpusMix, CliGenerate, OracleSearch)
}
