"""Root candidates, exact root scoring and selection, and Q-path enumeration.

All functions here operate on the regularized working subgraph in which
every out-degree equals d = 2l.  The proof needs a root in the
high-in-degree class A (in-degree at least 2l) whose score
d*|A_r| + |VB_r| is at least d^2 - d, and averaging over A guarantees one;
no step of it reads the order in which A is searched.  Root selection
takes the first such member in a cheap candidate order, the in-degree over
a prefix of the edges, scoring the candidates exactly in doubling batches.
Each batch reads in-degrees only where its own two edge scans see them, so
no solve counts the in-degree of every vertex.  The scored prefix is a set
of parallel arrays, one entry per A member scored.  These are pure
computations: the solver records and enforces the bounds they are
guaranteed to meet.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, _bincount, _sorted_distinct
from .extenders import ExtenderPool

__all__ = [
    "RootScore",
    "RootScores",
    "QPaths",
    "partition_by_in_degree",
    "score_roots",
    "select_root",
    "compute_q_paths",
]

@dataclass(frozen=True)
class RootScore:
    x: int
    a_x: int
    vb_x: int
    score: int


@dataclass(frozen=True)
class RootScores:
    """The A members scored, in visiting order: entry i of `a`, `vb` and
    `score` = 2l*a + vb is vertex xs[i]'s.  `target` is d^2 - d.

    The last batch's scans come along, so the root needs no further pass:
    `in_edges` is (tail, head, tail_in_a), every edge into the batch's A
    members with tails ascending per head, and whether each tail is in A;
    `two_paths` is (leaf, mid), every edge leaf -> mid into a tail.
    """

    xs: np.ndarray
    a: np.ndarray
    vb: np.ndarray
    score: np.ndarray
    target: int
    in_edges: tuple[np.ndarray, np.ndarray, np.ndarray]
    two_paths: tuple[np.ndarray, np.ndarray]


class QPaths:
    """The 2-paths first -> middle -> r surviving the strong-extender exclusion."""

    def __init__(self, first: np.ndarray, middle: np.ndarray):
        self.first = first
        self.middle = middle

    def __len__(self) -> int:
        return int(self.first.shape[0])


def partition_by_in_degree(g: Digraph, ell: int) -> np.ndarray:
    """The root candidates as keys over all n vertices, least first.

    Vertex x's key is (max count - count(x)) * n + x, where count(x) is its
    in-degree over the first m/4 edge heads: the highest proxy count goes
    first, ties to the lowest id, and a vertex the prefix never hits comes
    last, by id.  So every member of A is a candidate, and `score_roots`
    tells A from B on each candidate's own scan.  The input must be exactly
    2l-out-regular.

    The prefix trades the count's cost against later batches.  Over every
    5th acceptance-corpus spec, m/4 sent 91 of 2,010 solves to a second
    batch, m/8 287, m/16 491 and a count of every edge head none; their
    mean root-stage times were within 5% of each other.  At 5M edges the
    m/4 count took 4.7-5.1 ms where a count of every head took 19 ms
    (minimum of 11 calls, 2-CPU host).
    """
    d = 2 * ell
    deg = g.out_degrees
    if g.n == 0:
        raise ValueError("cannot partition the empty graph")
    if deg.min() != d or deg.max() != d:
        bad = int(np.argmax(deg != d))
        raise ValueError(
            f"vertex {bad} has out-degree {int(deg[bad])}, expected exactly {d}"
        )
    count = _bincount(g.edge_dst[: g.m // 4], g.n)
    return (count.max() - count) * g.n + np.arange(g.n)


def _score_batch(g: Digraph, xs: np.ndarray, ell: int) -> RootScores:
    """The exact scores of the A members of the batch `xs`, in the order
    of `xs`, from two `Digraph.edges_into` passes.

    The pass into `xs` gives each x's in-edges and its in-degree, and x is
    scored only if that is at least 2l.  The pass into the union of the
    scored members' in-neighborhoods finds every edge into each feeder b,
    so a count of its heads is |N^-(b)| exactly, and with it whether b is
    in A.  Then a_x = |N^-(x) & A| and vb_x is the sum over B-in-neighbors
    b of |N^-(b) \\ {x}|.
    """
    n, d = g.n, 2 * ell
    tail, head = g.edges_into(xs)
    x_deg = np.bincount(head, minlength=n)
    into_a = x_deg[head] >= d
    tail, head, xs = tail[into_a], head[into_a], xs[x_deg[xs] >= d]
    if tail.size:
        leaf, mid = g.edges_into(_sorted_distinct(tail.copy()))
    else:
        leaf, mid = tail, head
    b_deg = np.bincount(mid, minlength=n)
    tail_in_a = b_deg[tail] >= d
    # b -> x counts |N^-(b)| less one when x -> b is an edge too, which is
    # then a hit leaving a scored member (x_deg is 0 off the batch): one
    # whose reverse key b*n + x is among the sorted in-edge keys.  The
    # extra key n*n is above every key, so every lookup lands on one.
    out = x_deg[leaf] >= d
    x_out, y_out = leaf[out], mid[out]
    in_keys = np.append(tail.astype(np.int64) * n + head, n * n)
    in_keys.sort()
    rev_keys = y_out.astype(np.int64) * n + x_out
    back = in_keys[np.searchsorted(in_keys, rev_keys)] == rev_keys
    back &= b_deg[y_out] < d
    a = np.bincount(head[tail_in_a], minlength=n)[xs]
    # Integer weights below 2^53 sum exactly in float64.
    vb = np.bincount(head, np.where(tail_in_a, 0, b_deg[tail]), minlength=n)
    vb = vb[xs].astype(np.int64) - np.bincount(x_out[back], minlength=n)[xs]
    return RootScores(
        xs, a, vb, d * a + vb, d * d - d, (tail, head, tail_in_a), (leaf, mid)
    )


def score_roots(g: Digraph, keys: np.ndarray, ell: int) -> RootScores:
    """Exact scores 2l*a_x + vb_x of the A members among the candidates,
    in candidate order, up to the first batch that holds a member reaching
    d^2 - d.

    `keys` are `partition_by_in_degree`'s, least first.  The candidates
    are scored in batches of 1, 2, 4, ..., each with two
    `Digraph.edges_into` passes.  Every member of A is a candidate, and
    averaging over A guarantees a member reaching d^2 - d, so at most
    floor(log2 n) + 1 batches run.  The candidates are ordered only as far
    as the batches reach: each batch takes its keys with one partition and
    sorts only those.
    """
    n, d = g.n, 2 * ell
    none = np.empty(0, dtype=np.int64)
    batches = [
        RootScores(none, none, none, none, d * d - d, (none,) * 3, (none,) * 2)
    ]
    end = 0
    while end < keys.shape[0] and not (batches[-1].score >= d * d - d).any():
        start, end = end, min(2 * end + 1, keys.shape[0])
        order = np.sort(np.partition(keys, end - 1)[:end]) % n
        batches.append(_score_batch(g, order[start:], ell))
    columns = (
        np.concatenate([getattr(b, col) for b in batches])
        for col in ("xs", "a", "vb", "score")
    )
    last = batches[-1]
    return RootScores(*columns, last.target, last.in_edges, last.two_paths)


def select_root(scores: RootScores) -> RootScore:
    """The first entry reaching d^2 - d, which 2l-out-regular input always
    has; otherwise entry 0, which the solver's score check rejects.
    """
    i = int(np.argmax(scores.score >= scores.target))
    columns = (scores.xs, scores.a, scores.vb, scores.score)
    return RootScore(*(int(col[i]) for col in columns))


def compute_q_paths(paths: tuple, pool: ExtenderPool) -> QPaths:
    """All v -> b -> r with b in B, avoiding r and every strong extender.

    `paths` is (leaf, mid), the 2-paths leaf -> mid -> r with leaf != r.
    Each mid is in N^-(r), so a mid in A is in a_r and excluded as a strong
    extender; the kept mids are in B without a test of A.  The count is
    guaranteed to be at least d^2 - d - (a+c)(4l-1), a bound that may be
    vacuously negative.
    """
    leaf, mid = paths
    excluded = np.zeros(pool.n, dtype=bool)
    excluded[pool.a_r] = True
    excluded[pool.c_r] = True
    keep = ~(excluded[mid] | excluded[leaf])
    return QPaths(first=leaf[keep], middle=mid[keep])
