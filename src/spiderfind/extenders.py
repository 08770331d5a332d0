"""Extension sets, extender classification, and greedy spider growth.

For a root r and a vertex x != r, the extension set O(x, r) collects every
vertex y that closes a simple 2-path with x ending at r, in either
orientation: x -> y -> r or y -> x -> r.  A vertex with |O(x, r)| >= i is an
i-extender for r; a (2l-1)-extender is called strong.  Strong extenders can
always be attached to a growing spider greedily, which is what
`greedy_extend` does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digraph import Digraph
from .errors import ExtensionExhausted
from .spider import Spider

__all__ = [
    "ExtenderPool",
    "strong_extender_pool",
    "greedy_extend",
]


@dataclass(frozen=True)
class ExtenderPool:
    """Strong extenders for a root r, as disjoint ascending vertex arrays.

    a_r holds the in-neighbors of r in the high-in-degree class; c_r holds
    every other strong extender.
    """

    a_r: np.ndarray
    c_r: np.ndarray


def _extension_set(
    g: Digraph, x: int, r: int, in_r_mask: np.ndarray, in_x: np.ndarray
) -> np.ndarray:
    """O(x, r) in ascending order.

    O(x, r) = (N^+(x) & N^-(r)) | (N^-(x) \\ {r} when x -> r), where
    `in_r_mask` marks N^-(r) and `in_x` is N^-(x).
    """
    row = g.out_neighbors(x)
    incoming = in_x[in_x != r] if in_r_mask[x] else in_x[:0]
    return np.union1d(row[in_r_mask[row]], incoming)


def strong_extender_pool(
    g: Digraph, r: int, ell: int, a_mask: np.ndarray
) -> ExtenderPool:
    """Classify every (2l-1)-extender for r.

    a_r is N^-(r) intersected with the high-in-degree class `a_mask`, a
    boolean mask over [0, n); each of its members is automatically strong
    (it points at r and has at least 2l-1 in-neighbors besides r).
    """
    n = g.n
    thr = 2 * ell - 1
    r = int(r)
    src = g.edge_src
    dst = g.edge_dst

    in_r_vertices = src[dst == r]
    in_r_mask = np.zeros(n, dtype=bool)
    in_r_mask[in_r_vertices] = True
    a_r = in_r_vertices[a_mask[in_r_vertices]]

    # First-clause count |N^+(x) & N^-(r)| for every x in one pass.
    count1 = np.bincount(src[in_r_mask[dst]], minlength=n)
    strong_mask = count1 >= thr

    # In-neighbors of r outside a_r may still be strong through the second
    # clause; take the exact size of O(x, r) just for the unresolved ones.
    cand = in_r_vertices[~a_mask[in_r_vertices]]
    cand = cand[count1[cand] < thr].tolist()
    in_map = g.in_neighbor_map(cand)
    for x in cand:
        if _extension_set(g, x, r, in_r_mask, in_map[x]).shape[0] >= thr:
            strong_mask[x] = True

    strong_mask[r] = False
    strong_mask[a_r] = False
    return ExtenderPool(a_r=a_r, c_r=np.flatnonzero(strong_mask))


def greedy_extend(
    g: Digraph, r: int, base: Spider, f_seq: Sequence[int]
) -> Spider:
    """Attach one leg per f_seq vertex, in order, onto the base spider.

    Each x in f_seq must be a sufficiently large extender for r (position i,
    1-based, needs |O(x, r)| >= f + 2s + i - 1 where f = len(f_seq) and s is
    the base leg count); under that precondition an attachment vertex always
    exists.  The attachment y is the smallest-id member of O(x, r) outside
    the current spider and the unprocessed tail of f_seq; the leg is
    oriented x -> y -> r when that path exists, else y -> x -> r.
    """
    r = int(r)
    if base.root != r:
        raise ValueError("base spider must be rooted at r")
    f_list = [int(x) for x in f_seq]
    if len(set(f_list)) != len(f_list):
        raise ValueError("f_seq vertices must be distinct")
    spider_verts = base.vertices()
    if spider_verts & set(f_list):
        raise ValueError("f_seq must be disjoint from the base spider")
    if not f_list:
        return base

    in_map = g.in_neighbor_map([r, *f_list])
    in_r_mask = np.zeros(g.n, dtype=bool)
    in_r_mask[in_map[r]] = True
    legs = list(base.legs)
    blocked = spider_verts | set(f_list)
    for x in f_list:
        blocked.discard(x)
        ext = _extension_set(g, x, r, in_r_mask, in_map[x]).tolist()
        y = next((v for v in ext if v not in blocked), None)
        if y is None:
            raise ExtensionExhausted(x)
        legs.append((x, y) if in_r_mask[y] and g.has_edge(x, y) else (y, x))
        blocked.add(x)
        blocked.add(y)
    return Spider(root=r, legs=tuple(legs))
