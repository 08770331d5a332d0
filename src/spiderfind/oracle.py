"""Exhaustive ground truth for small instances, independent of the solver.

A (2,l)-spider rooted at r is exactly a size-l matching in the "leg graph"
over V minus r, whose edges are the vertex pairs realizable as a 2-path into
r.  The oracle enumerates that graph directly from adjacency sets and finds
a maximum matching by branch and bound, so it shares no code with the
solver pipeline it cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .digraph import Digraph
from .errors import InstanceTooLarge
from .spider import Spider

__all__ = [
    "DEFAULT_EXHAUSTIVE_CAP",
    "OracleResult",
    "SearchOutcome",
    "max_spider_at_root",
    "has_spider_bruteforce",
    "search_spider_free",
]

DEFAULT_EXHAUSTIVE_CAP = 16


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    witness: Optional[Spider]
    best_per_root: dict[int, int]


@dataclass(frozen=True)
class SearchOutcome:
    kept: list[tuple[Digraph, OracleResult]]
    skipped: int
    trials: int


def _adjacency_sets(g: Digraph) -> list[set[int]]:
    out = [set() for _ in range(g.n)]
    for u, v in g.edges():
        out[u].add(v)
    return out


def _leg_options(adj: list[set[int]], n: int, r: int) -> list[tuple[int, int, int, int]]:
    """All (u, v, leaf, mid) with u < v realizable as leaf -> mid -> r."""
    legs = []
    for u in range(n):
        if u == r:
            continue
        for v in range(u + 1, n):
            if v == r:
                continue
            if v in adj[u] and r in adj[v]:
                legs.append((u, v, u, v))
            elif u in adj[v] and r in adj[u]:
                legs.append((u, v, v, u))
    return legs


def _max_matching(legs: list[tuple[int, int, int, int]], free_vertices: int):
    """Deterministic branch and bound: include/exclude the lowest-id edge."""
    best_size = 0
    best_sel: list[int] = []
    used: set[int] = set()
    cur: list[int] = []
    total = len(legs)

    def branch(i: int, free_cnt: int) -> None:
        nonlocal best_size, best_sel
        while i < total and (legs[i][0] in used or legs[i][1] in used):
            i += 1
        if len(cur) > best_size:
            best_size = len(cur)
            best_sel = cur.copy()
        if i == total:
            return
        if len(cur) + min(total - i, free_cnt // 2) <= best_size:
            return
        u, v = legs[i][0], legs[i][1]
        used.add(u)
        used.add(v)
        cur.append(i)
        branch(i + 1, free_cnt - 2)
        cur.pop()
        used.discard(u)
        used.discard(v)
        branch(i + 1, free_cnt)

    branch(0, free_vertices)
    return best_size, best_sel


def max_spider_at_root(
    g: Digraph, r: int, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> tuple[int, Spider]:
    """Exact maximum leg count at root r, with a witness spider."""
    if g.n > cap:
        raise InstanceTooLarge(g.n, cap)
    adj = _adjacency_sets(g)
    return _max_at_root(adj, g.n, int(r))


def _max_at_root(adj: list[set[int]], n: int, r: int) -> tuple[int, Spider]:
    legs = _leg_options(adj, n, r)
    size, sel = _max_matching(legs, n - 1)
    chosen = tuple((legs[i][2], legs[i][3]) for i in sel)
    return size, Spider(root=r, legs=chosen)


def has_spider_bruteforce(
    g: Digraph, ell: int, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> OracleResult:
    """Try every root exhaustively; witness comes from the first root that works."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if g.n > cap:
        raise InstanceTooLarge(g.n, cap)
    adj = _adjacency_sets(g)
    best_per_root: dict[int, int] = {}
    witness = None
    for r in range(g.n):
        size, spider = _max_at_root(adj, g.n, r)
        best_per_root[r] = size
        if witness is None and size >= ell:
            witness = Spider(root=r, legs=spider.legs[:ell])
    return OracleResult(
        exists=witness is not None,
        witness=witness,
        best_per_root=best_per_root,
    )


def search_spider_free(
    sample: Callable[[int], Digraph],
    ell: int,
    trials: int,
    seed: int,
    cap: int = DEFAULT_EXHAUSTIVE_CAP,
) -> SearchOutcome:
    """Sample graphs and keep the ones the oracle certifies spider-free.

    Purely exploratory: hits are reported, nothing is deduplicated, and no
    mathematical claim is made.  Samples above the exhaustive cap are
    skipped and counted.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    kept: list[tuple[Digraph, OracleResult]] = []
    skipped = 0
    for t in range(trials):
        g = sample(seed + t)
        try:
            res = has_spider_bruteforce(g, ell, cap)
        except InstanceTooLarge:
            skipped += 1
            continue
        if not res.exists:
            kept.append((g, res))
    return SearchOutcome(kept=kept, skipped=skipped, trials=trials)
