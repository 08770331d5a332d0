"""Outside-in span recorder for the spiderfind benchmark.

The recorder never edits the package.  While it records, it replaces the
stage functions in the module namespaces where callers look them up
(`spiderfind.solver`, `spiderfind.cli`, `spiderfind.oracle`, and the
generators in `spiderfind.digraph` that the benchmark and its oracle
sampler call) with wrappers that append one span per call, and it puts the
originals back when recording stops.  Spans stay in memory; `write_jsonl`
dumps them at the end of a run.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 at top level) and `op` the benchmark operation that
caused it.  Self time is a span's duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional

from spiderfind import cli, digraph, oracle, solver

_MARK = "__perfbench_span__"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


class _Target(NamedTuple):
    module: object
    attr: str
    span: str
    # Edges a call processed, read from (args, result), for ns_per_edge.
    edges: Optional[Callable] = None
    # Count hook, read from (tracer, args, result).
    observe: Optional[Callable] = None


def _obs_q_paths(t, args, res):
    t.add("root_selection.q_paths", len(res))


def _obs_pool(t, args, res):
    t.add("extenders.pool_size", len(res.a_r) + len(res.c_r))


def _obs_h(t, args, res):
    t.add("edge_coloring.h_edges", res.num_edges)


def _obs_ht(t, args, res):
    t.add("edge_coloring.ht_edges", res.num_edges)
    t.add("edge_coloring.truncated", int(res.truncated))
    t.last_ht_edges = res.num_edges


def _obs_solve(t, args, res):
    tr = res.trace
    ell = tr.d // 2
    t.add("solver.solves", 1)
    t.add("extenders.greedy_solves", int(tr.s < ell))
    if t.last_ht_edges:
        t.add("edge_coloring.class_yield_sum", min(tr.s, ell) / t.last_ht_edges)
        t.add("edge_coloring.class_yield_solves", 1)


def _obs_oracle(t, args, res):
    t.add("oracle.calls", 1)
    t.add("oracle.exists", int(res.exists))


def _graph_edges(args, res):
    return args[0].m


_STAGES = [
    (solver, "extract_exact_outdegree_subgraph", "digraph.extract_exact_outdegree_subgraph"),
    (solver, "partition_by_in_degree", "root_selection.partition_by_in_degree"),
    (solver, "score_roots", "root_selection.score_roots", _graph_edges),
    (solver, "select_root", "root_selection.select_root"),
    (solver, "strong_extender_pool", "extenders.strong_extender_pool", None, _obs_pool),
    (solver, "compute_q_paths", "root_selection.compute_q_paths", None, _obs_q_paths),
    (solver, "build_extension_graph", "edge_coloring.build_extension_graph", None, _obs_h),
    (solver, "truncate_for_coloring", "edge_coloring.truncate_for_coloring", None, _obs_ht),
    (solver, "vizing_color", "edge_coloring.vizing_color", lambda a, r: a[0].num_edges),
    (solver, "largest_color_class", "edge_coloring.largest_color_class"),
    (solver, "greedy_extend", "extenders.greedy_extend"),
    (solver, "verify_spider", "spider.verify_spider"),
    (solver, "find_spider", "solver.find_spider", None, _obs_solve),
    (cli, "main", "cli.main"),
    (cli, "write_edge_list", "digraph.write_edge_list", _graph_edges),
    (cli, "gen_random_out_regular", "digraph.generate"),
    (oracle, "has_spider_bruteforce", "oracle.has_spider_bruteforce", None, _obs_oracle),
    (oracle, "search_spider_free", "oracle.search_spider_free"),
    (digraph, "gen_complete_digraph", "digraph.generate"),
    (digraph, "gen_random_out_regular", "digraph.generate"),
    (digraph, "gen_regular_tournament", "digraph.generate"),
]
TARGETS = [_Target(*row) for row in _STAGES]

# Per-layer metrics: (name, unit).  Self times are seconds per traced op;
# counts and ratios are per call of the stage that returns them.
_SELF_TIMES = [
    "digraph.write_edge_list",
    "digraph.extract_exact_outdegree_subgraph",
    "digraph.generate",
    "root_selection.score_roots",
    "root_selection.partition_by_in_degree",
    "root_selection.select_root",
    "root_selection.compute_q_paths",
    "extenders.strong_extender_pool",
    "extenders.greedy_extend",
    "edge_coloring.build_extension_graph",
    "edge_coloring.truncate_for_coloring",
    "edge_coloring.vizing_color",
    "edge_coloring.largest_color_class",
    "spider.verify_spider",
    "solver.find_spider",
    "cli.main",
    "oracle.has_spider_bruteforce",
    "oracle.search_spider_free",
]
_PER_EDGE = [
    "digraph.write_edge_list",
    "root_selection.score_roots",
    "edge_coloring.vizing_color",
]
PER_LAYER = (
    [(f"{n}.self_s", "s") for n in _SELF_TIMES]
    + [(f"{n}.ns_per_edge", "ns/edge") for n in _PER_EDGE]
    + [
        ("root_selection.q_paths", "count"),
        ("extenders.pool_size", "count"),
        ("extenders.greedy_ratio", "ratio"),
        ("edge_coloring.h_edges", "count"),
        ("edge_coloring.ht_edges", "count"),
        ("edge_coloring.truncated_ratio", "ratio"),
        ("edge_coloring.class_yield", "ratio"),
        ("oracle.exists_ratio", "ratio"),
        ("trace.overhead_s", "s"),
    ]
)


def is_wrapped(fn) -> bool:
    return getattr(fn, _MARK, False)


class Tracer:
    """Records spans and counts for the ops run inside `recording`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.edges: dict[str, int] = defaultdict(int)
        self.ops: list[int] = []
        self.last_ht_edges = 0
        self._stack: list[int] = []
        self._op = -1

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def _wrap(self, target: _Target, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = Span(target.span, t0, t1, parent, self._op)
            if target.edges is not None:
                self.edges[target.span] += target.edges(args, result)
            if target.observe is not None:
                target.observe(self, args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    @contextmanager
    def recording(self, op: int):
        """Install the wrappers for one op and restore the originals after."""
        saved = [(t.module, t.attr, getattr(t.module, t.attr)) for t in TARGETS]
        self._op = op
        self.ops.append(op)
        self.last_ht_edges = 0
        try:
            for (module, attr, fn), target in zip(saved, TARGETS):
                setattr(module, attr, self._wrap(target, fn))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            self._stack.clear()
            self._op = -1

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        total: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            total[s.name] += (s.end - s.start) - child[i]
        return total

    def metrics(self, traced_s: list[float], untraced_s: list[float]) -> dict:
        """Per-layer metrics over the recorded ops, in PER_LAYER order."""
        ops = max(1, len(self.ops))
        selfs = self.self_times()
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        values = {f"{n}.self_s": selfs.get(n, 0.0) / ops for n in _SELF_TIMES}
        for n in _PER_EDGE:
            e = self.edges.get(n, 0)
            values[f"{n}.ns_per_edge"] = selfs.get(n, 0.0) / e * 1e9 if e else 0.0
        calls = defaultdict(int)
        for s in self.spans:
            calls[s.name] += 1

        def per_call(key, span):
            return c[key] / calls[span] if calls[span] else 0.0

        values.update(
            {
                "root_selection.q_paths": per_call(
                    "root_selection.q_paths", "root_selection.compute_q_paths"
                ),
                "extenders.pool_size": per_call(
                    "extenders.pool_size", "extenders.strong_extender_pool"
                ),
                "extenders.greedy_ratio": ratio(
                    "extenders.greedy_solves", "solver.solves"
                ),
                "edge_coloring.h_edges": per_call(
                    "edge_coloring.h_edges", "edge_coloring.build_extension_graph"
                ),
                "edge_coloring.ht_edges": per_call(
                    "edge_coloring.ht_edges", "edge_coloring.truncate_for_coloring"
                ),
                "edge_coloring.truncated_ratio": per_call(
                    "edge_coloring.truncated", "edge_coloring.truncate_for_coloring"
                ),
                "edge_coloring.class_yield": ratio(
                    "edge_coloring.class_yield_sum", "edge_coloring.class_yield_solves"
                ),
                "oracle.exists_ratio": ratio("oracle.exists", "oracle.calls"),
                "trace.overhead_s": (
                    statistics.median(traced_s) - statistics.median(untraced_s)
                    if traced_s and untraced_s
                    else 0.0
                ),
            }
        )
        units = dict(PER_LAYER)
        return {n: {"value": values[n], "unit": units[n]} for n, _ in PER_LAYER}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
