"""Independent brute-force oracles used to derive and check expected values.

Everything here recomputes quantities straight from edge membership, with
none of the vectorized shortcuts the package uses, so tests can compare the
two implementations against each other.
"""
from __future__ import annotations

import numpy as np

from spiderfind import Digraph, ViolationKind, ViolationReport, gen_complete_digraph
from spiderfind.digraph import _FY_BLOCK_CELLS
from spiderfind.edge_coloring import ExtensionGraph


# Characters str.splitlines() ends lines at; in the text formats a line ends
# only at '\n', '\r\n' or '\r'.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def from_pairs(n: int, pairs) -> Digraph:
    """The digraph on [0, n) with these (u, v) edges, per-source order kept."""
    src, dst = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
    return Digraph.from_edge_arrays(n, src, dst)


def make_h(edges) -> ExtensionGraph:
    """Synthetic ExtensionGraph whose edge (u, v) has leaf u and mid v."""
    leaf = np.asarray([u for u, _ in edges], dtype=np.int32)
    mid = np.asarray([v for _, v in edges], dtype=np.int32)
    return ExtensionGraph(leaf=leaf, mid=mid)


def edge_set(g: Digraph) -> set[tuple[int, int]]:
    return set(g.edges())


def brute_in_neighbors(g: Digraph, v: int) -> list[int]:
    """N^-(v) in ascending order, by scanning every edge."""
    return sorted(u for u, w in g.edges() if w == v)


def in_degrees(g: Digraph) -> np.ndarray:
    """|N^-(v)| for every v, by counting the heads of every edge."""
    deg = np.zeros(g.n, dtype=np.int64)
    for _, v in g.edges():
        deg[v] += 1
    return deg


def a_in_nbrs(g: Digraph, r: int, ell: int) -> np.ndarray:
    """a_r: the in-neighbors of r with in-degree at least 2l, ascending."""
    deg = in_degrees(g)
    return np.array(
        [u for u in brute_in_neighbors(g, r) if deg[u] >= 2 * ell],
        dtype=np.int32,
    )


def brute_scores(g: Digraph, ell: int) -> dict[int, tuple[int, int, int]]:
    """{x: (score, a_x, vb_x)} for every x of in-degree at least 2l, from
    in-neighbor sets: a_x counts the in-neighbors in A, and vb_x sums
    |N^-(b) \\ {x}| over the in-neighbors b in B.
    """
    in_nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        in_nbrs[v].add(u)
    d = 2 * ell
    out = {}
    for x in range(g.n):
        if len(in_nbrs[x]) < d:
            continue
        b_in = [b for b in in_nbrs[x] if len(in_nbrs[b]) < d]
        a_x = len(in_nbrs[x]) - len(b_in)
        vb_x = sum(len(in_nbrs[b] - {x}) for b in b_in)
        out[x] = (d * a_x + vb_x, a_x, vb_x)
    return out


def paths_into(g: Digraph, r: int):
    """(leaf, mid): every 2-path leaf -> mid -> r with leaf != r, in
    out-adjacency order of leaf -> mid, by scanning every edge.
    """
    into_r = set(brute_in_neighbors(g, r))
    pairs = [(u, w) for u, w in g.edges() if w in into_r and u != r]
    leaf, mid = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
    return leaf, mid


def brute_extension_set(g: Digraph, x: int, r: int) -> set[int]:
    """O(x, r) by scanning every vertex against the defining predicate."""
    edges = edge_set(g)
    out = set()
    for y in range(g.n):
        if y in (x, r):
            continue
        if (x, y) in edges and (y, r) in edges:
            out.add(y)
        if (y, x) in edges and (x, r) in edges:
            out.add(y)
    return out


def brute_greedy_extend(g: Digraph, r: int, base, f_seq) -> list | None:
    """Legs of the documented greedy extension, or None where it exhausts.

    Each x in f_seq takes the smallest member of O(x, r) outside the spider
    and the unprocessed tail of f_seq, as the leg x -> y -> r when that path
    exists, else y -> x -> r.
    """
    edges = edge_set(g)
    legs = list(base.legs)
    blocked = base.vertices() | set(f_seq)
    for x in f_seq:
        blocked.discard(x)
        free = sorted(brute_extension_set(g, x, r) - blocked)
        if not free:
            return None
        y = free[0]
        legs.append((x, y) if (x, y) in edges and (y, r) in edges else (y, x))
        blocked |= {x, y}
    return legs


def reference_verify_spider(g: Digraph, s, ell: int):
    """`verify_spider` as a loop over the legs, one edge lookup at a time:
    the leg count, then vertex distinctness, then each leg's two edges in
    leg order, and the first violation wins.
    """
    if len(s.legs) != ell:
        return ViolationReport(
            ViolationKind.WRONG_LEG_COUNT,
            f"expected {ell} legs, found {len(s.legs)}",
        )
    seen = {s.root}
    for leaf, mid in s.legs:
        for v in (leaf, mid):
            if v == s.root:
                return ViolationReport(
                    ViolationKind.ROOT_IN_LEG,
                    f"root {s.root} appears inside a leg",
                )
            if v in seen:
                return ViolationReport(
                    ViolationKind.REPEATED_VERTEX,
                    f"vertex {v} appears more than once",
                )
            seen.add(v)
    edges = edge_set(g)
    for leaf, mid in s.legs:
        for u, v in ((leaf, mid), (mid, s.root)):
            if (u, v) not in edges:
                return ViolationReport(
                    ViolationKind.MISSING_EDGE, f"edge {u} -> {v} not in graph"
                )
    return None


def brute_two_paths_to(g: Digraph, r: int) -> list[tuple[int, int]]:
    """All simple 2-paths (v, b) with v -> b -> r."""
    edges = edge_set(g)
    return [
        (v, b)
        for b in range(g.n)
        if b != r and (b, r) in edges
        for v in range(g.n)
        if v not in (b, r) and (v, b) in edges
    ]


def brute_vb_count(g: Digraph, x: int, b_set: set[int]) -> int:
    """|VB_x|: simple 2-paths v -> b -> x with middle vertex in b_set."""
    return sum(1 for v, b in brute_two_paths_to(g, x) if b in b_set)


def brute_a_count(g: Digraph, x: int, a_set: set[int]) -> int:
    edges = edge_set(g)
    return sum(1 for u in a_set if (u, x) in edges)


def brute_max_legs(g: Digraph, r: int) -> int:
    """Maximum number of vertex-disjoint legs at r, over all leg subsets.

    Enumerates ordered legs (leaf, mid) directly, which is a different
    formulation from the package oracle's unordered matching search.
    """
    edges = edge_set(g)
    legs = [
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if u != v and u != r and v != r and (u, v) in edges and (v, r) in edges
    ]
    best = 0

    def rec(i: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if i >= len(legs) or count + (len(legs) - i) <= best:
            return
        u, v = legs[i]
        if u not in used and v not in used:
            rec(i + 1, used | {u, v}, count + 1)
        rec(i + 1, used, count)

    rec(0, frozenset(), 0)
    return best


def check_proper_coloring(edges: list[tuple[int, int]], colors: list[int]) -> bool:
    """Properness check written independently of the package's."""
    at_vertex: dict[int, set[int]] = {}
    for (u, v), c in zip(edges, colors):
        for vert in (u, v):
            bucket = at_vertex.setdefault(vert, set())
            if c in bucket:
                return False
            bucket.add(c)
    return True


def reference_write_edge_list(g: Digraph) -> str:
    """Edge-list text built with one f-string per edge, in edge order."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def reference_gen_random_out_regular(n: int, d: int, seed: int) -> Digraph:
    """gen_random_out_regular with one `rng.integers` call per retry round
    and per Fisher-Yates step, a row-major pool and a strided duplicate
    compare.  It keeps the regimes, the block size and the draw order, so
    it gives the same graph for every valid (n, d, seed).
    """
    if d == n - 1:
        return gen_complete_digraph(n)
    rng = np.random.default_rng(seed)
    n_choices = n - 1

    def repeats(mat):
        srt = np.sort(mat, axis=1)
        return (srt[:, 1:] == srt[:, :-1]).any(axis=1)

    if d * d <= 3 * n_choices:
        mat = rng.integers(0, n_choices, size=(n, d), dtype=np.int32)
        bad = repeats(mat)
        while bad.any():
            idx = np.flatnonzero(bad)
            redraw = rng.integers(0, n_choices, size=(idx.size, d), dtype=np.int32)
            mat[idx] = redraw
            bad[idx] = repeats(redraw)
    else:
        mat = np.empty((n, d), dtype=np.int32)
        block = max(1, _FY_BLOCK_CELLS // n_choices)
        for lo in range(0, n, block):
            b = min(n, lo + block) - lo
            pool = np.tile(np.arange(n_choices, dtype=np.int32), (b, 1))
            rix = np.arange(b)
            for i in range(d):
                j = rng.integers(i, n_choices, size=b)
                tmp = pool[rix, j].copy()
                pool[rix, j] = pool[:, i]
                pool[:, i] = tmp
            mat[lo : lo + b] = pool[:, :d]
    mat += mat >= np.arange(n, dtype=np.int32)[:, None]
    return Digraph(n, np.arange(n + 1, dtype=np.int64) * d, mat.ravel())
