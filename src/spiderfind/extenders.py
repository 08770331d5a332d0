"""Extension sets, extender classification, and greedy spider growth.

For a root r and a vertex x != r, the extension set O(x, r) collects every
vertex y that closes a simple 2-path with x ending at r, in either
orientation: x -> y -> r or y -> x -> r.  Both come from the 2-paths
leaf -> mid -> r into r: each puts mid in O(leaf, r) and leaf in O(mid, r).
A vertex with |O(x, r)| >= i is an i-extender for r; a (2l-1)-extender is
called strong.  Strong extenders can always be attached to a growing spider
greedily, which is what `greedy_extend` does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digraph import _sorted_distinct
from .errors import InternalInvariantError
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


def _extension_keys(
    n: int, leaf: np.ndarray, mid: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """O(x, r) for every x in `xs`, as ascending keys x*n + y.

    `leaf` and `mid` are the 2-paths leaf -> mid -> r with leaf != r.
    """
    want = np.zeros(n, dtype=bool)
    want[xs] = True
    fwd = want[leaf]
    bwd = want[mid]
    keys = np.concatenate((leaf[fwd], mid[bwd])).astype(np.int64) * n
    keys += np.concatenate((mid[fwd], leaf[bwd]))
    return _sorted_distinct(keys)


def strong_extender_pool(paths: tuple, ell: int, a_mask: np.ndarray) -> ExtenderPool:
    """Classify every (2l-1)-extender for r from `Digraph.two_paths_into(r)`.

    a_r is N^-(r) intersected with the high-in-degree class `a_mask`, a
    boolean mask over [0, n); each of its members is automatically strong
    (it points at r and has at least 2l-1 in-neighbors besides r).  r itself
    is never strong: no 2-path into r starts at r, and N^-(r) excludes r.
    """
    in_r, leaf, mid = paths
    n = in_r.shape[0]
    thr = 2 * ell - 1
    in_r_vertices = np.flatnonzero(in_r)
    a_r = in_r_vertices[a_mask[in_r_vertices]]

    # First-clause count |N^+(x) & N^-(r)| for every x.
    count1 = np.bincount(leaf, minlength=n)
    strong_mask = count1 >= thr

    # In-neighbors of r outside a_r may still be strong through the second
    # clause; take the exact size of O(x, r) just for the unresolved ones.
    cand = in_r_vertices[~a_mask[in_r_vertices]]
    cand = cand[count1[cand] < thr]
    sizes = np.bincount(_extension_keys(n, leaf, mid, cand) // n, minlength=n)
    strong_mask[cand[sizes[cand] >= thr]] = True

    strong_mask[a_r] = False
    return ExtenderPool(a_r=a_r, c_r=np.flatnonzero(strong_mask))


def greedy_extend(paths: tuple, base: Spider, f_seq: Sequence[int]) -> Spider:
    """Attach one leg per f_seq vertex, in order, onto the base spider.

    The root r comes from `base.root`; `paths` is `Digraph.two_paths_into(r)`.
    Each x in f_seq must be a sufficiently large extender for r (position i,
    1-based, needs |O(x, r)| >= f + 2s + i - 1 where f = len(f_seq) and s is
    the base leg count); under that precondition an attachment vertex always
    exists.  The attachment y is the smallest-id member of O(x, r) outside
    the current spider and the unprocessed tail of f_seq; the leg is
    oriented x -> y -> r when that path exists, else y -> x -> r.
    """
    f_list = [int(x) for x in f_seq]
    if len(set(f_list)) != len(f_list):
        raise ValueError("f_seq vertices must be distinct")
    spider_verts = base.vertices()
    if spider_verts & set(f_list):
        raise ValueError("f_seq must be disjoint from the base spider")

    in_r, leaf, mid = paths
    n = in_r.shape[0]
    xs = np.asarray(f_list, dtype=np.int64)
    keys = _extension_keys(n, leaf, mid, xs)
    bounds = np.searchsorted(keys, xs * n).tolist()
    ends = np.searchsorted(keys, xs * n + n).tolist()
    legs = list(base.legs)
    blocked = spider_verts | set(f_list)
    for x, b, e in zip(f_list, bounds, ends):
        blocked.discard(x)
        ext = (keys[b:e] - x * n).tolist()
        y = next((v for v in ext if v not in blocked), None)
        if y is None:
            raise InternalInvariantError(
                f"no attachment vertex available for extender {x}"
            )
        legs.append((x, y) if y in mid[leaf == x] else (y, x))
        blocked.add(x)
        blocked.add(y)
    return Spider(root=base.root, legs=tuple(legs))
