"""Exact ground truth at every root, independent of the solver.

A (2,l)-spider rooted at r is exactly a size-l matching in the "leg graph"
over V minus r, whose edges are the vertex pairs realizable as a 2-path into
r.  The oracle builds that graph from plain adjacency sets and finds a
maximum matching with Edmonds' blossom algorithm (J. Edmonds, "Paths, trees,
and flowers", Canad. J. Math. 17, 1965), in pure Python, so it shares no
code with the solver pipeline it cross-checks.  The vertex cap bounds its
time: an all-root search on the complete digraph K_176, the dense worst
case, takes about 1 s.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .digraph import Digraph
from .errors import InstanceTooLarge
from .spider import Spider

__all__ = [
    "EXHAUSTIVE_CAP",
    "OracleResult",
    "SearchOutcome",
    "max_spider_at_root",
    "has_spider_bruteforce",
    "search_spider_free",
]

EXHAUSTIVE_CAP = 176


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


def _adjacency_sets(g: Digraph) -> tuple[list[set[int]], list[set[int]]]:
    """Out- and in-neighbour sets, one per vertex."""
    out = [set() for _ in range(g.n)]
    inn = [set() for _ in range(g.n)]
    for u, v in g.edges():
        out[u].add(v)
        inn[v].add(u)
    return out, inn


def _leg_graph(out: list[set[int]], inn: list[set[int]], r: int) -> list[list[int]]:
    """Ascending neighbour lists of the leg graph at r.

    u and v are adjacent when one is a mid in N^-(r) and the other a leaf
    in the mid's in-neighbours, r excluded: u's neighbours are the mids it
    points to, plus its own in-neighbours when u is itself a mid.
    """
    mids = inn[r]
    nbrs = []
    for u in range(len(out)):
        adjacent = out[u] & mids
        if u in mids:
            adjacent |= inn[u]
        adjacent.discard(r)
        nbrs.append(sorted(adjacent))
    nbrs[r] = []
    return nbrs


def _maximum_matching(nbrs: list[list[int]]) -> list[int]:
    """Edmonds' blossom algorithm; mate[v] is v's partner or -1.

    The greedy start visits vertices by degree and matches each to its
    lowest-degree free neighbour: on dense leg graphs it leaves far fewer
    augmentations than id order (none on sampled roots of a 191-vertex
    regular tournament).  Then one alternating tree grows per free vertex.
    A tree that finds no augmenting path is Hungarian: no augmenting path
    of this or any later matching touches its vertices, so they are retired
    and one pass suffices.  Every tie goes to the lowest id and every scan
    runs in id order, so the result depends only on the graph.
    """
    n = len(nbrs)
    degree = [len(row) for row in nbrs]
    mate = [-1] * n
    for u in sorted(range(n), key=degree.__getitem__):
        if mate[u] < 0:
            free = [v for v in nbrs[u] if mate[v] < 0]
            if free:
                v = min(free, key=degree.__getitem__)
                mate[u], mate[v] = v, u
    retired = [False] * n
    for root in range(n):
        if mate[root] < 0 and nbrs[root]:
            _augment_from(root, nbrs, mate, retired)
    return mate


def _augment_from(
    root: int, nbrs: list[list[int]], mate: list[int], retired: list[bool]
) -> None:
    """Grow an alternating tree at a free root and augment along the first
    path found, or retire the tree's vertices when there is none.

    Outer vertices are the root, the mates of inner vertices and everything
    in a contracted blossom; `parent` links each inner vertex to the outer
    vertex that reached it, and `base` maps each vertex to its blossom base.
    """
    n = len(mate)
    base = list(range(n))
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]
    for v in queue:
        for u in nbrs[v]:
            if retired[u] or base[v] == base[u] or mate[v] == u:
                continue
            if outer[u]:
                _contract_blossom(v, u, base, parent, mate, outer, queue)
            elif parent[u] < 0:
                parent[u] = v
                if mate[u] < 0:
                    while u >= 0:
                        pu = parent[u]
                        nxt = mate[pu]
                        mate[u], mate[pu] = pu, u
                        u = nxt
                    return
                outer[mate[u]] = True
                queue.append(mate[u])
    for x in queue:
        retired[x] = True
        if mate[x] >= 0:
            retired[mate[x]] = True


def _contract_blossom(
    v: int,
    u: int,
    base: list[int],
    parent: list[int],
    mate: list[int],
    outer: list[bool],
    queue: list[int],
) -> None:
    """Shrink the odd cycle closed by the outer-outer edge v-u to its base."""
    seen = set()
    a = v
    while True:
        a = base[a]
        seen.add(a)
        if mate[a] < 0:
            break
        a = parent[mate[a]]
    b = u
    while base[b] not in seen:
        b = parent[mate[base[b]]]
    top = base[b]
    in_blossom = set()
    for x, child in ((v, u), (u, v)):
        while base[x] != top:
            in_blossom.add(base[x])
            in_blossom.add(base[mate[x]])
            parent[x] = child
            child = mate[x]
            x = parent[child]
    for x in range(len(base)):
        if base[x] in in_blossom:
            base[x] = top
            if not outer[x]:
                outer[x] = True
                queue.append(x)


def max_spider_at_root(g: Digraph, r: int) -> tuple[int, Spider]:
    """Exact maximum leg count at root r, with a witness spider."""
    if g.n > EXHAUSTIVE_CAP:
        raise InstanceTooLarge(g.n, EXHAUSTIVE_CAP)
    out, inn = _adjacency_sets(g)
    return _max_at_root(out, inn, int(r))


def _max_at_root(
    out: list[set[int]], inn: list[set[int]], r: int
) -> tuple[int, Spider]:
    """Maximum spider at r, legs ordered by their lower endpoint.  A pair
    realizable both ways takes the lower id as its leaf."""
    mate = _maximum_matching(_leg_graph(out, inn, r))
    legs = []
    for u, v in enumerate(mate):
        if u < v:
            legs.append((u, v) if v in out[u] and v in inn[r] else (v, u))
    return len(legs), Spider(root=r, legs=tuple(legs))


def has_spider_bruteforce(g: Digraph, ell: int) -> OracleResult:
    """Try every root exhaustively; witness comes from the first root that works."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if g.n > EXHAUSTIVE_CAP:
        raise InstanceTooLarge(g.n, EXHAUSTIVE_CAP)
    out, inn = _adjacency_sets(g)
    best_per_root: dict[int, int] = {}
    witness = None
    for r in range(g.n):
        size, spider = _max_at_root(out, inn, r)
        best_per_root[r] = size
        if witness is None and size >= ell:
            witness = Spider(root=r, legs=spider.legs[:ell])
    return OracleResult(
        exists=witness is not None,
        witness=witness,
        best_per_root=best_per_root,
    )


def search_spider_free(
    sample: Callable[[int], Digraph], ell: int, trials: int, seed: int
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
            res = has_spider_bruteforce(g, ell)
        except InstanceTooLarge:
            skipped += 1
            continue
        if not res.exists:
            kept.append((g, res))
    return SearchOutcome(kept=kept, skipped=skipped, trials=trials)
