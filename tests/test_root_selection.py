import numpy as np
import pytest
from hypothesis import given, settings

import spiderfind.root_selection as root_selection
from spiderfind import (
    Digraph,
    gen_complete_digraph,
    gen_random_out_regular,
    gen_regular_tournament,
)
from spiderfind.extenders import ExtenderPool, strong_extender_pool
from spiderfind.root_selection import (
    RootScore,
    RootScores,
    compute_q_paths,
    partition_by_in_degree,
    score_roots,
    select_root,
)
from reference import (
    brute_a_count,
    brute_two_paths_to,
    brute_vb_count,
    from_pairs,
    paths_into,
)
from strategies import out_regular_digraphs


# The in-edges of a hand-built RootScores, which select_root never reads.
NO_EDGES = (np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))


def hand_built(xs, a, vb, ell):
    """RootScores with the given columns, scored and targeted for l = ell."""
    a, vb, d = np.array(a), np.array(vb), 2 * ell
    return RootScores(np.array(xs), a, vb, d * a + vb, d * d - d, NO_EDGES)


def rows(scores):
    """The scored prefix as (x, a_x, vb_x, score) tuples."""
    columns = (scores.xs, scores.a, scores.vb, scores.score)
    return list(zip(*(col.tolist() for col in columns)))


def manual_partition(n, a_vertices):
    mask = np.zeros(n, dtype=bool)
    mask[list(a_vertices)] = True
    return mask


def vertex_set(mask):
    return set(np.flatnonzero(mask).tolist())


def brute_scores(g, a_mask, ell):
    """{x: (score, a_x, vb_x)} for every x in A, from in-neighbor sets."""
    in_nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges():
        in_nbrs[v].add(u)
    out = {}
    for x in np.flatnonzero(a_mask).tolist():
        b_in = [b for b in in_nbrs[x] if not a_mask[b]]
        a_x = len(in_nbrs[x]) - len(b_in)
        vb_x = sum(len(in_nbrs[b] - {x}) for b in b_in)
        out[x] = (2 * ell * a_x + vb_x, a_x, vb_x)
    return out


def assert_scored_prefix(g, a_mask, ell):
    """score_roots scores A exactly, in order of in-degree (highest first,
    ties to the lowest id), in batches of 1, 2, 4, ..., and stops after the
    first batch holding a member that reaches d^2 - d.
    """
    scores = score_roots(g, a_mask, ell)
    brute = brute_scores(g, a_mask, ell)
    in_deg = g.in_degrees
    order = sorted(brute, key=lambda x: (-int(in_deg[x]), x))
    d = 2 * ell
    hits = [i for i, x in enumerate(order) if brute[x][0] >= d * d - d]
    # Batch k holds positions 2^k - 1 .. 2^(k+1) - 2.
    end = 2 ** (hits[0] + 1).bit_length() - 1 if hits else len(order)
    prefix = order[:end]
    assert scores.xs.tolist() == prefix
    assert scores.score.tolist() == [brute[x][0] for x in prefix]
    assert scores.a.tolist() == [brute[x][1] for x in prefix]
    assert scores.vb.tolist() == [brute[x][2] for x in prefix]
    # Batch k starts at 2^k - 1; the last batch's in-edges are kept.
    last = set(prefix[2 ** (end.bit_length() - 1) - 1 :])
    tail, head = scores.in_edges
    in_edges = list(zip(tail.tolist(), head.tolist()))
    assert in_edges == [(u, v) for u, v in g.edges() if v in last]
    return scores, brute


def circulant(n, d):
    """u -> u+1, ..., u+d (mod n): every in- and out-degree is d."""
    rows = (np.arange(n)[:, None] + np.arange(1, d + 1)) % n
    return Digraph(n, np.arange(n + 1) * d, rows.ravel())


class TestPartition:
    def test_k5(self):
        a_mask = partition_by_in_degree(gen_complete_digraph(5), 2)
        assert a_mask.tolist() == [True] * 5

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError):
            partition_by_in_degree(gen_complete_digraph(4), 2)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="^cannot partition the empty graph$"):
            partition_by_in_degree(from_pairs(0, []), 1)

    def test_out_degree_must_be_exact(self):
        with pytest.raises(
            ValueError, match="^vertex 0 has out-degree 4, expected exactly 2$"
        ):
            partition_by_in_degree(gen_complete_digraph(5), 1)

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
        # Every vertex scores 16 >= 12, so the first batch, vertex 0, suffices.
        g = gen_complete_digraph(5)
        a_mask = partition_by_in_degree(g, 2)
        scores = score_roots(g, a_mask, 2)
        assert rows(scores) == [(0, 4, 0, 16)]
        assert scores.target == 12

    def test_three_b_feeders(self):
        # Root 0 has three in-neighbors in B, each with 5 other in-neighbors.
        edges = [(b, 0) for b in (1, 2, 3)]
        edges += [(f, b) for b in (1, 2, 3) for f in range(4, 9)]
        g = from_pairs(9, edges)
        a_mask = manual_partition(9, {0})
        scores = score_roots(g, a_mask, 3)
        assert rows(scores) == [(0, 0, 15, 15)]

    def test_score_zero(self):
        g = from_pairs(3, [(1, 0), (2, 0)])
        a_mask = manual_partition(3, {0})
        scores = score_roots(g, a_mask, 1)
        assert rows(scores) == [(0, 0, 0, 0)]

    def test_antiparallel_middle_correction(self):
        # v -> b -> x plus both b -> x and x -> b present: x itself must not
        # be counted as a first vertex.
        g = from_pairs(3, [(1, 2), (0, 2), (2, 0)])
        a_mask = manual_partition(3, {0})
        scores = score_roots(g, a_mask, 1)
        assert scores.vb.tolist() == [1]

    @given(out_regular_digraphs(max_ell=3, max_n=20))
    @settings(max_examples=40)
    def test_matches_bruteforce(self, g_ell):
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        scores, brute = assert_scored_prefix(g, a_mask, ell)
        a_set = vertex_set(a_mask)
        b_set = vertex_set(~a_mask)
        for x, a_x, vb_x, _ in rows(scores):
            assert a_x == brute_a_count(g, x, a_set)
            assert vb_x == brute_vb_count(g, x, b_set)
        # The root is the first scored vertex that reaches d^2 - d.
        d = 2 * ell
        first = next(x for x in scores.xs.tolist() if brute[x][0] >= d * d - d)
        assert select_root(scores).x == first

    @pytest.mark.parametrize(
        "g, ell",
        [
            (gen_complete_digraph(5), 2),
            (gen_complete_digraph(7), 3),
            (gen_regular_tournament(9, seed=4), 2),
            (gen_regular_tournament(13, seed=1), 3),
            (circulant(11, 4), 2),
            (circulant(30, 6), 3),
        ],
    )
    def test_all_ties_keep_every_a_vertex(self, g, ell):
        # Every A vertex ties at one score reaching d^2 - d, so each is a
        # valid root; the tie goes to the lowest id, which one batch scores.
        a_mask = partition_by_in_degree(g, ell)
        scores, brute = assert_scored_prefix(g, a_mask, ell)
        assert len(brute) == a_mask.sum()
        assert len({s for s, _, _ in brute.values()}) == 1
        assert scores.xs.tolist() == np.flatnonzero(a_mask)[:1].tolist()
        assert select_root(scores).score >= scores.target

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pruning_drops_vertices_that_cannot_win(self, seed):
        # Scoring stops at the first batch reaching d^2 - d, well short of A.
        g = gen_random_out_regular(5000, 20, seed)
        a_mask = partition_by_in_degree(g, 10)
        scores = score_roots(g, a_mask, 10)
        assert 0 < scores.xs.shape[0] < a_mask.sum()

    def test_batches_double_until_a_member_reaches(self, batch_sizes):
        # Vertex i of A = {0..9} has in-degree i // 3 + 1, fed by sources of
        # in-degree 0, so every member scores 0 < d^2 - d = 2: all ten are
        # scored, the highest in-degree first, and the first is returned.
        # An edge 8 -> 9 from A lifts the first candidate, 9, to 2, and
        # then one batch suffices.
        edges = [(10 + k, i) for i in range(10) for k in range(i // 3 + 1)]
        g = from_pairs(14, edges)
        a_mask = manual_partition(14, range(10))
        scores, _ = assert_scored_prefix(g, a_mask, 1)
        assert batch_sizes == [1, 2, 4, 3]
        assert scores.xs.tolist() == [9, 6, 7, 8, 3, 4, 5, 0, 1, 2]
        assert select_root(scores) == RootScore(x=9, a_x=0, vb_x=0, score=0)

        batch_sizes.clear()
        g = from_pairs(14, edges + [(8, 9)])
        scores, _ = assert_scored_prefix(g, a_mask, 1)
        assert batch_sizes == [1]
        assert select_root(scores) == RootScore(x=9, a_x=1, vb_x=0, score=2)

    def test_empty_a_class(self):
        g = gen_complete_digraph(5)
        scores = score_roots(g, np.zeros(5, dtype=bool), 2)
        assert rows(scores) == []

    def test_exact_at_large_n_with_planted_antiparallel_pairs(self):
        # At n = 50,000 the pair keys x*n + b exceed the int32 range.  The
        # graph is 2-out-regular and made of 6,250 groups of eight, linked
        # in a cycle and relabeled so that the hubs take the top ids.  Each
        # group's hub z has the highest in-degree, 10, and an antiparallel
        # pair with a B vertex, and scores 9 against 10 without the
        # correction.
        n_groups, ell = 6_250, 1
        n = 8 * n_groups
        z, b, y1, y2, s11, s12, s21, s22 = (
            np.arange(n_groups) * 8 + k for k in range(8)
        )
        # The next group's hub and first y, around the cycle.
        z_next, y1_next = np.roll(z, -1), np.roll(y1, -1)
        pairs = [
            (s11, y1), (s11, z), (s12, y1), (s12, z),
            (s21, y2), (s21, z), (s22, y2), (s22, z),
            (y1, z), (y1, z_next), (y2, z), (y2, z_next),
            (z, b), (z, y1_next), (b, z), (b, z_next),
        ]
        rng = np.random.default_rng(20261018)
        perm = np.empty(n, dtype=np.int64)
        perm[z] = n - n_groups + rng.permutation(n_groups)
        perm[np.arange(n) % 8 != 0] = rng.permutation(n - n_groups)
        src = perm[np.concatenate([u for u, _ in pairs])]
        dst = perm[np.concatenate([v for _, v in pairs])]
        g = Digraph.from_edge_arrays(n, src, dst)
        a_mask = partition_by_in_degree(g, ell)

        # The lowest hub is the first candidate and reaches d^2 - d = 2.
        scores, _ = assert_scored_prefix(g, a_mask, ell)
        hubs = np.sort(perm[z])
        assert scores.xs.tolist() == [hubs[0]]
        assert scores.score.tolist() == [9]
        assert hubs[0] * n > 2**31

        # One batch of every hub needs the correction for each of them.
        a, vb, _ = root_selection._score_batch(g, a_mask, hubs)
        assert set((2 * ell * a + vb).tolist()) == {9}


class TestScoreBatch:
    """`_score_batch` on hand-built batches, against `brute_scores`."""

    def assert_batch_exact(self, g, a_mask, ell, xs):
        a, vb, (feeder, x_of) = root_selection._score_batch(
            g, a_mask, np.array(xs)
        )
        brute = brute_scores(g, a_mask, ell)
        assert a.tolist() == [brute[x][1] for x in xs]
        assert vb.tolist() == [brute[x][2] for x in xs]
        in_edges = list(zip(feeder.tolist(), x_of.tolist()))
        assert in_edges == [(u, v) for u, v in g.edges() if v in xs]

    def test_member_without_out_edges(self):
        # Sink 0 is fed by A vertex 1 and B vertices 2 and 3; the batch
        # has no out-edges at all, so no in-edge is antiparallel.
        g = from_pairs(5, [(1, 0), (2, 0), (3, 0), (4, 2), (1, 2), (4, 3)])
        a_mask = manual_partition(5, {0, 1})
        self.assert_batch_exact(g, a_mask, 1, [0])

    def test_every_feeder_antiparallel(self):
        # Each of 0's B in-neighbors 1, 2, 3 also receives an edge from 0,
        # and 5's one in-neighbor 4 receives one from 5: both members need
        # the correction on every in-edge.
        pairs = [(0, b) for b in (1, 2, 3)] + [(b, 0) for b in (1, 2, 3)]
        pairs += [(4, 5), (5, 4), (1, 3), (4, 1), (2, 4)]
        g = from_pairs(6, pairs)
        a_mask = manual_partition(6, {0, 5})
        self.assert_batch_exact(g, a_mask, 2, [0, 5])
        self.assert_batch_exact(g, a_mask, 2, [5, 0])


class TestSelectRoot:
    def test_k5_tiebreak_zero(self):
        g = gen_complete_digraph(5)
        a_mask = partition_by_in_degree(g, 2)
        winner = select_root(score_roots(g, a_mask, 2))
        assert winner.x == 0
        assert winner.score == 16

    def test_single_entry(self):
        scores = hand_built([3], [6], [0], ell=2)
        assert select_root(scores) == RootScore(x=3, a_x=6, vb_x=0, score=24)

    def test_tiebreak_smallest_id(self):
        # x=1 and x=3 both score 12 and beat x=2.
        scores = hand_built([1, 2, 3], [3, 2, 2], [0, 3, 4], ell=2)
        assert scores.score.tolist() == [12, 11, 12]
        assert select_root(scores).x == 1

    def test_first_entry_reaching_the_bound_wins(self):
        # With l = 2 the bound is 12: x=2 reaches it first, x=3 scores more.
        scores = hand_built([1, 2, 3], [2, 3, 5], [3, 0, 0], ell=2)
        assert scores.score.tolist() == [11, 12, 20]
        assert select_root(scores).x == 2

    def test_first_entry_when_none_reaches_the_bound(self):
        # Only input that is not 2l-out-regular gets here; find_spider's
        # score check then rejects the entry.
        scores = hand_built([4, 1, 3], [1, 2, 2], [1, 3, 3], ell=2)
        assert scores.score.tolist() == [5, 11, 11]
        assert select_root(scores) == RootScore(x=4, a_x=1, vb_x=1, score=5)

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
        pool = strong_extender_pool(paths_into(g, 0), 2, a_mask)
        q = compute_q_paths(paths_into(g, 0), pool)
        assert len(q) == 0

    def test_no_exclusions_keeps_all_vb_paths(self):
        g = from_pairs(4, [(1, 2), (3, 2), (2, 0)])
        none = np.empty(0, dtype=np.int64)
        pool = ExtenderPool(a_r=none, c_r=none, n=4, keys=none, forward=none)
        q = compute_q_paths(paths_into(g, 0), pool)
        assert set(zip(q.first.tolist(), q.middle.tolist())) == {(1, 2), (3, 2)}

    @given(out_regular_digraphs(max_ell=3, max_n=20))
    @settings(max_examples=40)
    def test_paths_validate_and_bound_holds(self, g_ell):
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        r = int(select_root(score_roots(g, a_mask, ell)).x)
        pool = strong_extender_pool(paths_into(g, r), ell, a_mask)
        q = compute_q_paths(paths_into(g, r), pool)
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
        pool = strong_extender_pool(paths_into(g, r), ell, a_mask)
        vb_paths = [
            (v, b) for v, b in brute_two_paths_to(g, r) if not a_mask[b]
        ]
        for x in pool.a_r.tolist():
            touched = sum(1 for v, b in vb_paths if x in (v, b))
            assert touched <= 2 * ell - 1
        for x in pool.c_r.tolist():
            touched = sum(1 for v, b in vb_paths if x in (v, b))
            assert touched <= 4 * ell - 1
