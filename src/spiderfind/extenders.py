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
    every other strong extender.  `keys` and `forward` are the O(x, r) keys
    of `_extension_keys(n, leaf, mid)`, which `greedy_extend` reads too.
    """

    a_r: np.ndarray
    c_r: np.ndarray
    n: int
    keys: np.ndarray
    forward: np.ndarray


def _extension_keys(
    n: int, leaf: np.ndarray, mid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """O(x, r) for every x as ascending keys x*n + y, and the ascending
    forward keys, those with x -> y -> r.

    Each 2-path leaf -> mid -> r (leaf != r, so no key has x = r) gives the
    forward key leaf*n + mid and the backward key mid*n + leaf.
    """
    forward = leaf.astype(np.int64) * n + mid
    backward = mid.astype(np.int64) * n + leaf
    # The graph is simple, so the forward keys are already distinct.
    forward.sort()
    return _sorted_distinct(np.concatenate((forward, backward))), forward


def strong_extender_pool(
    paths: tuple, ell: int, a_r: np.ndarray, n: int
) -> ExtenderPool:
    """Classify the strong extenders for r, the x with |O(x, r)| >= 2l - 1,
    from `paths` = (leaf, mid), the 2-paths leaf -> mid -> r with leaf != r,
    over the vertices [0, n).

    a_r, ascending, holds the in-neighbors of r with in-degree at least 2l;
    each of them is automatically strong (it points at r and has at least
    2l-1 in-neighbors besides r).  r itself is never strong: no 2-path into
    r starts at r, and N^-(r) excludes r.
    """
    leaf, mid = paths
    keys, forward = _extension_keys(n, leaf, mid)
    strong_mask = np.bincount(keys // n, minlength=n) >= 2 * ell - 1
    strong_mask[a_r] = False
    return ExtenderPool(a_r, np.flatnonzero(strong_mask), n, keys, forward)


def greedy_extend(pool: ExtenderPool, base: Spider, f_seq: Sequence[int]) -> Spider:
    """Attach one leg per f_seq vertex, in order, onto the base spider.

    The root r comes from `base.root`; `pool` is `strong_extender_pool`'s
    result for r.  Each x in f_seq must be a sufficiently large extender
    for r (position i, 1-based, needs |O(x, r)| >= f + 2s + i - 1 where
    f = len(f_seq) and s is the base leg count); under that precondition an
    attachment vertex always exists.  The attachment y is the smallest-id
    member of O(x, r) outside the current spider and the unprocessed tail
    of f_seq; the leg is oriented x -> y -> r when that path exists, else
    y -> x -> r.
    """
    f_list = [int(x) for x in f_seq]
    if len(set(f_list)) != len(f_list):
        raise ValueError("f_seq vertices must be distinct")
    spider_verts = base.vertices()
    if spider_verts & set(f_list):
        raise ValueError("f_seq must be disjoint from the base spider")

    n, keys, forward = pool.n, pool.keys, pool.forward
    xs = np.asarray(f_list, dtype=np.int64)
    # Every f_seq vertex's O(x, r) less the base spider and f_seq, in one
    # gather; the loop then only skips attachments chosen for earlier legs.
    lo = np.searchsorted(keys, xs * n)
    size = np.searchsorted(keys, xs * n + n) - lo
    run = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())
    cand = keys[run] % n
    blocked = np.zeros(n, dtype=bool)
    blocked[[*spider_verts, *f_list]] = True
    free = ~blocked[cand]
    # Position i, 0-based, follows i attachments, so one of its first i + 1
    # free candidates is untaken: only those are converted.  seen[j] counts
    # the free candidates before j, and bounds[i] those before run i.
    seen = np.cumsum(np.concatenate(([0], free)))
    bounds = seen[np.cumsum(np.concatenate(([0], size)))]
    pos = np.arange(len(f_list))
    rank = seen[:-1] - np.repeat(bounds[:-1], size)
    keep = free & (rank <= np.repeat(pos, size))
    ends = np.cumsum(np.minimum(np.diff(bounds), pos + 1)).tolist()
    cand = cand[keep].tolist()
    ys, chosen, start = [], set(), 0
    for x, end in zip(f_list, ends):
        y = next((v for v in cand[start:end] if v not in chosen), None)
        if y is None:
            raise InternalInvariantError(
                f"no attachment vertex available for extender {x}"
            )
        ys.append(y)
        chosen.add(y)
        start = end
    # A leg x, y is forward exactly when its key x*n + y is in `forward`.
    leg_keys = xs * n + np.asarray(ys, dtype=np.int64)
    lo = np.searchsorted(forward, leg_keys)
    is_fwd = (np.searchsorted(forward, leg_keys, side="right") > lo).tolist()
    legs = [(x, y) if f else (y, x) for x, y, f in zip(f_list, ys, is_fwd)]
    return Spider(root=base.root, legs=(*base.legs, *legs))
