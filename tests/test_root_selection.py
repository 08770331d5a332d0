import numpy as np
import pytest
from hypothesis import given, settings

from spiderfind import (
    Digraph,
    ExtenderPool,
    RootScore,
    RootScores,
    compute_q_paths,
    gen_complete_digraph,
    partition_by_in_degree,
    score_roots,
    select_root,
    strong_extender_pool,
)
from reference import (
    brute_a_count,
    brute_two_paths_to,
    brute_vb_count,
    from_pairs,
)
from strategies import out_regular_digraphs


def manual_partition(n, a_vertices):
    mask = np.zeros(n, dtype=bool)
    mask[list(a_vertices)] = True
    return mask


def vertex_set(mask):
    return set(np.flatnonzero(mask).tolist())


class TestPartition:
    def test_k5(self):
        a_mask = partition_by_in_degree(gen_complete_digraph(5), 2)
        assert a_mask.tolist() == [True] * 5

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError):
            partition_by_in_degree(gen_complete_digraph(4), 2)

    def test_threshold_split(self):
        # 2-out-regular on 6 vertices; in-degrees vary around the threshold.
        g = from_pairs(
            6,
            [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1), (2, 3),
             (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)],
        )
        a_mask = partition_by_in_degree(g, 1)
        in_deg = g.in_degrees
        for v in range(6):
            assert a_mask[v] == (in_deg[v] >= 2)

    @given(out_regular_digraphs(max_ell=4, max_n=50))
    @settings(max_examples=50)
    def test_a_class_never_empty_on_regular_input(self, g_ell):
        # Total in-degree equals 2l*n, so some vertex reaches the threshold.
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        assert a_mask.shape == (g.n,)
        assert a_mask.any()


class TestScoreRoots:
    def test_k5(self):
        g = gen_complete_digraph(5)
        a_mask = partition_by_in_degree(g, 2)
        scores = score_roots(g, a_mask, 2)
        assert len(scores) == 5
        for entry in scores:
            assert entry.a_x == 4
            assert entry.vb_x == 0
            assert entry.score == 16

    def test_three_b_feeders(self):
        # Root 0 has three in-neighbors in B, each with 5 other in-neighbors.
        edges = [(b, 0) for b in (1, 2, 3)]
        edges += [(f, b) for b in (1, 2, 3) for f in range(4, 9)]
        g = from_pairs(9, edges)
        a_mask = manual_partition(9, {0})
        scores = score_roots(g, a_mask, 3)
        assert scores[0] == RootScore(x=0, a_x=0, vb_x=15, score=15)

    def test_score_zero(self):
        g = from_pairs(3, [(1, 0), (2, 0)])
        a_mask = manual_partition(3, {0})
        scores = score_roots(g, a_mask, 1)
        assert scores[0] == RootScore(x=0, a_x=0, vb_x=0, score=0)

    def test_antiparallel_middle_correction(self):
        # v -> b -> x plus both b -> x and x -> b present: x itself must not
        # be counted as a first vertex.
        g = from_pairs(3, [(1, 2), (0, 2), (2, 0)])
        a_mask = manual_partition(3, {0})
        scores = score_roots(g, a_mask, 1)
        assert scores[0].vb_x == 1

    @given(out_regular_digraphs(max_ell=3, max_n=20))
    @settings(max_examples=40)
    def test_matches_bruteforce(self, g_ell):
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        scores = score_roots(g, a_mask, ell)
        a_set = vertex_set(a_mask)
        b_set = vertex_set(~a_mask)
        for entry in scores:
            assert entry.a_x == brute_a_count(g, entry.x, a_set)
            assert entry.vb_x == brute_vb_count(g, entry.x, b_set)
            assert entry.score == 2 * ell * entry.a_x + entry.vb_x

    def test_exact_at_large_n_with_planted_antiparallel_pairs(self):
        # At n = 50,000 the pair keys x*n + b exceed the int32 range.  The
        # graph is 2-out-regular; 500 disjoint vertex pairs point at each
        # other, so many B -> A edges need the antiparallel correction.
        n, ell, n_pairs = 50_000, 1, 500
        rng = np.random.default_rng(20261018)
        src = np.repeat(np.arange(n, dtype=np.int64), 2).reshape(n, 2)
        dst = (src + rng.integers(1, n, size=(n, 2))) % n
        pairs = rng.permutation(n)[: 2 * n_pairs].reshape(n_pairs, 2)
        dst[pairs[:, 0], 0] = pairs[:, 1]
        dst[pairs[:, 1], 0] = pairs[:, 0]
        for v in np.flatnonzero(dst[:, 0] == dst[:, 1]):
            while dst[v, 1] in (v, dst[v, 0]):
                dst[v, 1] = rng.integers(n)
        g = Digraph.from_edge_arrays(n, src.ravel(), dst.ravel())
        a_mask = partition_by_in_degree(g, ell)
        scores = score_roots(g, a_mask, ell)

        in_nbrs = {v: set() for v in range(n)}
        for u, v in g.edges():
            in_nbrs[v].add(u)
        xs = np.flatnonzero(a_mask).tolist()
        want_a = [sum(1 for u in in_nbrs[x] if a_mask[u]) for x in xs]
        want_vb = [
            sum(len(in_nbrs[b] - {x}) for b in in_nbrs[x] if not a_mask[b])
            for x in xs
        ]
        assert scores.xs.tolist() == xs
        assert scores.a.tolist() == want_a
        assert scores.vb.tolist() == want_vb
        corrected = [
            (x, b)
            for x, b in pairs.tolist() + pairs[:, ::-1].tolist()
            if a_mask[x] and not a_mask[b]
        ]
        assert len(corrected) >= 100
        assert max(x for x, _ in corrected) * n > 2**31


class TestSelectRoot:
    def test_k5_tiebreak_zero(self):
        g = gen_complete_digraph(5)
        a_mask = partition_by_in_degree(g, 2)
        winner = select_root(score_roots(g, a_mask, 2))
        assert winner.x == 0
        assert winner.score == 16

    def test_single_entry(self):
        scores = RootScores(
            xs=np.array([3]), a=np.array([6]), vb=np.array([0]), ell=2
        )
        assert select_root(scores) == RootScore(x=3, a_x=6, vb_x=0, score=24)

    def test_tiebreak_smallest_id(self):
        # x=1 and x=3 both score 12 and beat x=2.
        scores = RootScores(
            xs=np.array([1, 2, 3]),
            a=np.array([3, 2, 2]),
            vb=np.array([0, 3, 4]),
            ell=2,
        )
        assert scores.score.tolist() == [12, 11, 12]
        assert select_root(scores).x == 1

    @given(out_regular_digraphs(max_ell=4, max_n=40))
    @settings(max_examples=60)
    def test_averaging_bound_holds_on_regular_inputs(self, g_ell):
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        winner = select_root(score_roots(g, a_mask, ell))
        d = 2 * ell
        assert winner.score >= d * d - d


class TestQPaths:
    def test_k5_empty_vacuous(self):
        g = gen_complete_digraph(5)
        a_mask = partition_by_in_degree(g, 2)
        pool = strong_extender_pool(g.two_paths_into(0), 0, 2, a_mask)
        q = compute_q_paths(g.two_paths_into(0), a_mask, pool)
        assert len(q) == 0

    def test_no_exclusions_keeps_all_vb_paths(self):
        g = from_pairs(4, [(1, 2), (3, 2), (2, 0)])
        a_mask = manual_partition(4, {0})
        none = np.empty(0, dtype=np.int64)
        pool = ExtenderPool(a_r=none, c_r=none)
        q = compute_q_paths(g.two_paths_into(0), a_mask, pool)
        assert set(zip(q.first.tolist(), q.middle.tolist())) == {(1, 2), (3, 2)}

    @given(out_regular_digraphs(max_ell=3, max_n=20))
    @settings(max_examples=40)
    def test_paths_validate_and_bound_holds(self, g_ell):
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        r = int(select_root(score_roots(g, a_mask, ell)).x)
        pool = strong_extender_pool(g.two_paths_into(r), r, ell, a_mask)
        q = compute_q_paths(g.two_paths_into(r), a_mask, pool)
        excluded = set(pool.a_r.tolist()) | set(pool.c_r.tolist())
        edges = set(g.edges())
        for first, middle in zip(q.first.tolist(), q.middle.tolist()):
            assert first not in (r, middle)
            assert (first, middle) in edges
            assert (middle, r) in edges
            assert not a_mask[middle]
            assert first not in excluded and middle not in excluded
        d = 2 * ell
        bound = d * d - d - (len(pool.a_r) + len(pool.c_r)) * (4 * ell - 1)
        assert len(q) >= bound

    @given(out_regular_digraphs(max_ell=3, max_n=20))
    @settings(max_examples=40)
    def test_per_vertex_caps_on_vb_paths(self, g_ell):
        # Strong extenders touch a bounded number of the 2-paths into r:
        # at most 2l-1 for a_r members, at most 4l-1 for c_r members.
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        r = int(select_root(score_roots(g, a_mask, ell)).x)
        pool = strong_extender_pool(g.two_paths_into(r), r, ell, a_mask)
        vb_paths = [
            (v, b) for v, b in brute_two_paths_to(g, r) if not a_mask[b]
        ]
        for x in pool.a_r.tolist():
            touched = sum(1 for v, b in vb_paths if x in (v, b))
            assert touched <= 2 * ell - 1
        for x in pool.c_r.tolist():
            touched = sum(1 for v, b in vb_paths if x in (v, b))
            assert touched <= 4 * ell - 1
