"""Auxiliary extension graph and constructive Vizing edge coloring.

The extension graph H has one undirected edge per vertex pair realized by a
surviving 2-path into the root; each edge carries the directed path that
realizes it.  Because every strong extender is excluded from H, its maximum
degree is at most 2l-2, so a proper coloring with at most Delta(H)+1 colors
exists and any color class is a matching of independently orientable legs.

The coloring inserts edges one at a time, first-fit where some color is
free at both endpoints and otherwise by the one-step insertion of Misra and
Gries ("A constructive proof of Vizing's theorem", IPL 1992): grow a fan at
one endpoint, flip one two-color alternating path from it, and rotate a
prefix of the fan.  By pigeonhole, a largest color class of the colored
graph H_t holds at least |E(H_t)| / (Delta+1) of its edges.  The solver
records and enforces those bounds; vizing_color checks that its coloring
is proper on every call.

Every nondeterministic choice in the proof (which free color, which fan
vertex) is pinned to the lowest index, so colorings are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import _sorted_distinct
from .errors import InternalInvariantError
from .root_selection import QPaths

__all__ = [
    "ExtensionGraph",
    "EdgeColoring",
    "build_extension_graph",
    "truncate_for_coloring",
    "vizing_color",
    "largest_color_class",
]


class ExtensionGraph:
    """Undirected graph whose edges are realizable spider legs at root r.

    Edge i joins leaf[i] and mid[i] and is realized by the directed path
    leaf[i] -> mid[i] -> r.
    """

    __slots__ = ("leaf", "mid", "max_degree", "truncated")

    def __init__(self, leaf: np.ndarray, mid: np.ndarray, truncated: bool = False):
        self.leaf = leaf
        self.mid = mid
        self.truncated = truncated
        self.max_degree = int(np.bincount(np.concatenate([leaf, mid])).max(initial=0))

    @property
    def num_edges(self) -> int:
        return int(self.leaf.shape[0])


@dataclass(frozen=True)
class EdgeColoring:
    """Per-edge color indices; palette is the bound Delta+1, not colors used."""

    color_of: np.ndarray
    palette: int


def build_extension_graph(q: QPaths) -> ExtensionGraph:
    """One undirected edge per realized pair, first payload wins."""
    first = q.first.astype(np.int64)
    middle = q.middle.astype(np.int64)
    u = np.minimum(first, middle)
    v = np.maximum(first, middle)
    _, first_idx = np.unique((u << 32) | v, return_index=True)
    keep = np.sort(first_idx)
    return ExtensionGraph(
        leaf=first[keep].astype(np.int32), mid=middle[keep].astype(np.int32)
    )


def truncate_for_coloring(h: ExtensionGraph, ell: int) -> ExtensionGraph:
    """Cap the coloring instance at (2l-1)(l-1)+1 edges.

    Above the cap, pigeonhole already guarantees a color class of size >= l,
    so dropping the tail edges never loses the spider; the coloring cost
    becomes O(l^2) regardless of input size.
    """
    cap = (2 * ell - 1) * (ell - 1) + 1
    if h.num_edges <= cap:
        return h
    return ExtensionGraph(leaf=h.leaf[:cap], mid=h.mid[:cap], truncated=True)


# ---- Vizing coloring ----------------------------------------------------------


def vizing_color(h: ExtensionGraph) -> EdgeColoring:
    """Proper edge coloring with palette exactly Delta(h)+1 (0 when edgeless),
    checked for properness on every call in time linear in the edges of h."""
    m = h.num_edges
    if m == 0:
        return EdgeColoring(color_of=np.empty(0, dtype=np.int32), palette=0)

    # Compact vertex ids; the coloring never compares vertex ids, so any
    # deterministic remap yields the identical color sequence.  Fans grow
    # at each edge's lower endpoint.
    ends = np.concatenate([np.minimum(h.leaf, h.mid), np.maximum(h.leaf, h.mid)])
    uniq, inv = np.unique(ends, return_inverse=True)
    nv = int(uniq.shape[0])
    eu = inv[:m].tolist()
    ev = inv[m:].tolist()

    k = h.max_degree + 1
    full = (1 << k) - 1
    free = [full] * nv
    at: list[dict[int, tuple[int, int]]] = [dict() for _ in range(nv)]
    col = [-1] * m

    for ei in range(m):
        u = eu[ei]
        v = ev[ei]
        f = free[u] & free[v]
        if f:
            c = (f & -f).bit_length() - 1
            col[ei] = c
            bit = 1 << c
            free[u] &= ~bit
            free[v] &= ~bit
            at[u][c] = (v, ei)
            at[v][c] = (u, ei)
        else:
            _insert_with_fan(ei, u, v, col, free, at)

    _check_proper(eu, ev, col, k)
    return EdgeColoring(color_of=np.asarray(col, dtype=np.int32), palette=k)


def _assign(e, u, v, c, col, free, at):
    old = col[e]
    if old >= 0:
        bit = 1 << old
        free[u] |= bit
        free[v] |= bit
        del at[u][old]
        del at[v][old]
    col[e] = c
    bit = 1 << c
    free[u] &= ~bit
    free[v] &= ~bit
    at[u][c] = (v, e)
    at[v][c] = (u, e)


def _insert_with_fan(e0, x, y0, col, free, at):
    """Color e0 = (x, y0) when no color is free at both ends (Misra-Gries).

    Grows a fan y0, y1, ... at x, in which the color of (x, y[i+1]) is free
    at y[i], until the tip shares a free color with x or the fan is maximal.
    Let c be free at x and d free at the tip (both the lowest shared color
    after an early stop).  Flipping the c/d path from x frees d at x; the
    fan prefix up to the first vertex w missing d is then rotated, and
    (x, w) takes d.  Misra and Gries prove that such a w exists and that
    the prefix is still a fan after the flip.
    """
    fan = [e0]
    rim = [y0]
    fan_colors = 0
    while not free[x] & free[rim[-1]]:
        avail = free[rim[-1]] & ~free[x] & ~fan_colors
        if not avail:
            break
        c = (avail & -avail).bit_length() - 1
        w, ew = at[x][c]
        fan.append(ew)
        rim.append(w)
        fan_colors |= 1 << c
    shared = free[x] & free[rim[-1]]
    c_set = shared or free[x]
    d_set = shared or free[rim[-1]]
    c = (c_set & -c_set).bit_length() - 1
    d = (d_set & -d_set).bit_length() - 1
    _flip_chain(x, c, d, col, free, at)
    bit = 1 << d
    for j, y in enumerate(rim):
        if free[y] & bit:
            break
    else:
        raise InternalInvariantError("no fan vertex misses the flipped color")
    give = d
    for i in range(j, -1, -1):
        freed = col[fan[i]]
        _assign(fan[i], x, rim[i], give, col, free, at)
        give = freed


def _flip_chain(start, a, b, col, free, at):
    """Swap colors a/b along the alternating path from `start`, which misses a."""
    chain = []
    z = start
    cur = b
    while cur in at[z]:
        w, e = at[z][cur]
        chain.append((z, w, e))
        z = w
        cur = a if cur == b else b
    for u, v, e in chain:
        c = col[e]
        del at[u][c]
        del at[v][c]
    for u, v, e in chain:
        c = a if col[e] == b else b
        col[e] = c
        at[u][c] = (v, e)
        at[v][c] = (u, e)
    ab = (1 << a) | (1 << b)
    free[start] ^= ab
    free[z] ^= ab


def _check_proper(eu, ev, col, palette):
    colors = np.asarray(col, dtype=np.int64)
    if colors.size and (colors.min() < 0 or colors.max() >= palette):
        raise InternalInvariantError("an edge was colored outside the palette")
    ends = np.concatenate([np.asarray(eu, np.int64), np.asarray(ev, np.int64)])
    keys = ends * palette + np.concatenate([colors, colors])
    if _sorted_distinct(keys).size != keys.size:
        raise InternalInvariantError("incident edges share a color")


def largest_color_class(col: EdgeColoring) -> np.ndarray:
    """Edge indices of a maximum color class, smallest color index on ties.

    On a proper coloring the result is a matching.
    """
    counts = np.bincount(col.color_of, minlength=max(col.palette, 1))
    c = int(np.argmax(counts))
    return np.flatnonzero(col.color_of == c)

