"""A/B in-degree partition, root scoring and selection, and Q-path enumeration.

All functions here operate on the regularized working subgraph in which
every out-degree equals d = 2l.  The proof needs a root in the
high-in-degree class A whose score d*|A_r| + |VB_r| is at least d^2 - d,
and averaging over A guarantees one.  Root selection takes the first such
member in order of in-degree, highest first, scoring the members exactly in
doubling batches.  The scored prefix is a set of parallel arrays, one entry
per candidate visited.  These are pure computations: the solver records and
enforces the bounds they are guaranteed to meet.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
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
    """The scored prefix of the candidates, in visiting order: entry i of
    `a`, `vb` and `score` = 2l*a + vb is vertex xs[i]'s.  `target` is
    d^2 - d, and `in_edges` the edges (tail, head) into the last batch.
    """

    xs: np.ndarray
    a: np.ndarray
    vb: np.ndarray
    score: np.ndarray
    target: int
    in_edges: tuple[np.ndarray, np.ndarray]


class QPaths:
    """The 2-paths first -> middle -> r surviving the strong-extender exclusion."""

    def __init__(self, first: np.ndarray, middle: np.ndarray):
        self.first = first
        self.middle = middle

    def __len__(self) -> int:
        return int(self.first.shape[0])


def partition_by_in_degree(g: Digraph, ell: int) -> np.ndarray:
    """The A class, as a boolean mask over [0, n): in-degree at least 2l.

    B is the complement.  The input must be exactly 2l-out-regular.
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
    return g.in_degrees >= d


def _score_batch(
    g: Digraph, a_mask: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """a_x = |N^-(x) & A| and vb_x, the sum over B-in-neighbors b of
    |N^-(b) \\ {x}|, for each vertex x of `xs`, and the edges into `xs`.

    The edges into the batch come from one `Digraph.edges_into` pass, an
    equality scan when the batch is one vertex, and the edges out of it
    from `Digraph.edges_out_of`, which scans nothing.
    """
    n = g.n
    feeder, x_of = g.edges_into(xs)
    from_a = a_mask[feeder]
    # b -> x contributes |N^-(b)| minus one when the path v = x would repeat,
    # i.e. when the key x*n + b is among the batch's sorted out-edge keys;
    # the extra key n*n is above every key, so every lookup lands on one.
    x_out, y_out = g.edges_out_of(xs)
    out_keys = np.append(x_out.astype(np.int64) * n + y_out, n * n)
    out_keys.sort()
    in_keys = x_of.astype(np.int64) * n + feeder
    back = out_keys[np.searchsorted(out_keys, in_keys)] == in_keys
    vb = np.where(from_a, 0, g.in_degrees[feeder] - back)
    a = np.bincount(x_of[from_a], minlength=n)[xs]
    # Integer weights below 2^53 sum exactly in float64.
    vb_x = np.bincount(x_of, vb, minlength=n)[xs].astype(np.int64)
    return a, vb_x, (feeder, x_of)


def score_roots(g: Digraph, a_mask: np.ndarray, ell: int) -> RootScores:
    """Exact scores 2l*a_x + vb_x of the A class in candidate order, up to
    the first batch that holds a member reaching d^2 - d.

    Candidates go by in-degree, highest first, with ties to the lowest id,
    and are scored in batches of 1, 2, 4, ...  Averaging over A guarantees
    a member reaching d^2 - d, so at most floor(log2 |A|) + 1 batches run,
    each one `Digraph.edges_into` pass.  The last batch's in-edges are kept,
    so the chosen root's in-neighbors need no further scan.  A is ordered
    only as far as the batches reach.
    """
    n = g.n
    d = 2 * ell
    target = d * d - d
    in_deg = g.in_degrees
    xs = np.flatnonzero(a_mask)
    # The keys (max in-degree - in_deg(x)) * n + x are distinct and sort in
    # candidate order, so the first `end` candidates are the `end` least
    # keys: one partition, then a sort of those alone.  At 5M edges a sort
    # of all of A, about 52,000 keys, took 0.57 ms and the partition for a
    # one-key batch, which usually suffices, 0.07 ms.
    keys = (in_deg.max() - in_deg[xs]) * n + xs
    none = np.empty(0, dtype=np.int32)
    a_parts, vb_parts, in_edges = [none], [none], (none, none)
    order, end = none, 0
    while end < keys.shape[0] and (d * a_parts[-1] + vb_parts[-1] < target).all():
        start, end = end, min(2 * end + 1, keys.shape[0])
        order = np.sort(np.partition(keys, end - 1)[:end]) % n
        a, vb, in_edges = _score_batch(g, a_mask, order[start:])
        a_parts.append(a)
        vb_parts.append(vb)
    a, vb = np.concatenate(a_parts), np.concatenate(vb_parts)
    return RootScores(order, a, vb, d * a + vb, target, in_edges)


def select_root(scores: RootScores) -> RootScore:
    """The first entry reaching d^2 - d, which 2l-out-regular input always
    has; otherwise entry 0, which the solver's score check rejects.
    """
    i = int(np.argmax(scores.score >= scores.target))
    columns = (scores.xs, scores.a, scores.vb, scores.score)
    return RootScore(*(int(col[i]) for col in columns))


def compute_q_paths(paths: tuple, pool: ExtenderPool) -> QPaths:
    """All v -> b -> r with b in B, avoiding r and every strong extender.

    `paths` is (N^-(r), leaf, mid), the 2-paths leaf -> mid -> r with
    leaf != r.  Each mid is in N^-(r), so a mid in A is in a_r and excluded
    as a strong extender; the kept mids are in B without a test of A.  The
    count is guaranteed to be at least d^2 - d - (a+c)(4l-1), a bound that
    may be vacuously negative.
    """
    _, leaf, mid = paths
    excluded = np.zeros(pool.n, dtype=bool)
    excluded[pool.a_r] = True
    excluded[pool.c_r] = True
    keep = ~(excluded[mid] | excluded[leaf])
    return QPaths(first=leaf[keep], middle=mid[keep])
