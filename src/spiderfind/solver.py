"""End-to-end spider construction with proof-inequality instrumentation.

Pipeline: regularize to exact out-degree d = 2l, partition by in-degree,
pick the first root, by in-degree, whose score d*|A_r| + |VB_r| reaches
d^2 - d, classify strong extenders, enumerate surviving 2-paths, edge-color
the extension graph and lift the largest color class to a base spider, then
greedily extend with strong extenders until l legs.  Every inequality the
construction relies on is recorded in the trace here, and only here, and
enforced in one loop on every run; each is a theorem, so a violation can
only mean a bug, never bad input.  The spider is always re-verified against
the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .digraph import Digraph, extract_exact_outdegree_subgraph
from .edge_coloring import (
    build_extension_graph,
    largest_color_class,
    truncate_for_coloring,
    vizing_color,
)
from .errors import InternalInvariantError
from .extenders import greedy_extend, strong_extender_pool
from .root_selection import (
    compute_q_paths,
    partition_by_in_degree,
    score_roots,
    select_root,
)
from .spider import Spider, verify_spider

__all__ = [
    "ProofCheck",
    "SolveTrace",
    "SolveOutcome",
    "find_spider",
    "explain_trace",
]

class ProofCheck(NamedTuple):
    name: str
    lhs: int
    rhs: int
    passed: bool


@dataclass(frozen=True)
class SolveTrace:
    d: int
    root: int
    a: int
    c: int
    s: int
    q_size: int
    vb_r: int
    checks: tuple[ProofCheck, ...]
    truncated: bool


@dataclass(frozen=True)
class SolveOutcome:
    spider: Spider
    trace: SolveTrace


def _check(name: str, lhs: int, rhs: int) -> ProofCheck:
    """Record one proof inequality; its operator is the one `name` contains."""
    passed = lhs >= rhs if ">=" in name else lhs <= rhs
    return ProofCheck(name=name, lhs=int(lhs), rhs=int(rhs), passed=passed)


def find_spider(g: Digraph, ell: int, mode: str = "checked") -> SolveOutcome:
    """Construct a (2,ell)-spider in any graph with min out-degree >= 2*ell.

    The returned spider is expressed in the original graph's vertices and
    re-verified against the original graph.  `mode` accepts only
    "checked", the one solve mode; any other value raises ValueError.
    """
    if mode != "checked":
        raise ValueError(f"unknown mode {mode!r}")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    d = 2 * ell
    work = extract_exact_outdegree_subgraph(g, d)
    a_mask = partition_by_in_degree(work, ell)
    if not a_mask.any():
        raise InternalInvariantError(
            "2l-out-regular graph must contain a high-in-degree vertex"
        )

    scores = score_roots(work, a_mask, ell)
    root_score = select_root(scores)
    r = root_score.x

    # Every later stage reads the root through its 2-paths, found once.
    paths = work.two_paths_into(r)
    pool = strong_extender_pool(paths, ell, a_mask)
    a = len(pool.a_r)
    c = len(pool.c_r)

    q = compute_q_paths(paths, a_mask, pool)
    q_size = len(q)

    h = build_extension_graph(q)
    ht = truncate_for_coloring(h, ell)
    coloring = vizing_color(ht)
    cls = largest_color_class(coloring)
    s = int(cls.shape[0])
    base_legs = tuple(
        (int(ht.leaf[i]), int(ht.mid[i])) for i in cls.tolist()
    )

    checks = (
        _check("score >= d^2 - d", root_score.score, d * d - d),
        _check(
            "|Q_r| >= d^2 - d - (a+c)(4l-1)",
            q_size,
            d * d - d - (a + c) * (4 * ell - 1),
        ),
        _check("max_deg(H) <= 2l - 2", h.max_degree, 2 * ell - 2),
        _check("palette <= 2l - 1", coloring.palette, 2 * ell - 1),
        # Pigeonhole: a largest class covers |E(H_t)| / palette edges.
        _check("s(2l-1) >= |E(H_t)|", s * (2 * ell - 1), ht.num_edges),
        _check("a + c + s >= l", a + c + s, ell),
    )
    for chk in checks:
        if not chk.passed:
            raise InternalInvariantError(
                f"proof inequality failed: {chk.name} ({chk.lhs} vs {chk.rhs})"
            )

    base = Spider(root=int(r), legs=base_legs[:ell])
    f_seq = np.concatenate((pool.a_r, pool.c_r))[: ell - len(base.legs)]
    spider = greedy_extend(paths, base, f_seq)

    report = verify_spider(g, spider, ell)
    if report is not None:
        raise InternalInvariantError(
            f"constructed spider failed verification: {report}"
        )

    trace = SolveTrace(
        d=d,
        root=int(r),
        a=a,
        c=c,
        s=s,
        q_size=q_size,
        vb_r=root_score.vb_x,
        checks=checks,
        truncated=ht.truncated,
    )
    return SolveOutcome(spider=spider, trace=trace)


def explain_trace(t: SolveTrace) -> str:
    """Human-readable rendering of the trace and its inequality checks."""
    lines = [
        f"d = {t.d}  root = {t.root}",
        f"a = {t.a}  c = {t.c}  s = {t.s}",
        f"|Q_r| = {t.q_size}  |VB_r| = {t.vb_r}  |A_r| = {t.a}",
    ]
    if t.truncated:
        lines.append("coloring instance was truncated to the (2l-1)(l-1)+1 cap")
    for chk in t.checks:
        op = ">=" if ">=" in chk.name else "<="
        status = "PASS" if chk.passed else "FAIL"
        lines.append(f"{chk.name}: {chk.lhs} {op} {chk.rhs} {status}")
    if t.s >= t.d // 2:
        lines.append("greedy extension skipped (s >= l)")
    else:
        lines.append(f"greedy extension added {t.d // 2 - t.s} legs")
    return "\n".join(lines) + "\n"
