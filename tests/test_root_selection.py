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
    a_in_nbrs,
    brute_a_count,
    brute_scores,
    brute_two_paths_to,
    brute_vb_count,
    from_pairs,
    in_degrees,
    paths_into,
)
from strategies import out_regular_digraphs


# The scans of a hand-built RootScores, which select_root never reads.
NONE = np.empty(0, dtype=np.int32)


def hand_built(xs, a, vb, ell):
    """RootScores with the given columns, scored and targeted for l = ell."""
    a, vb, d = np.array(a), np.array(vb), 2 * ell
    return RootScores(
        np.array(xs), a, vb, d * a + vb, d * d - d, (NONE,) * 3, (NONE,) * 2
    )


def rows(scores):
    """The scored prefix as (x, a_x, vb_x, score) tuples."""
    columns = (scores.xs, scores.a, scores.vb, scores.score)
    return list(zip(*(col.tolist() for col in columns)))


def candidate_keys(g):
    """`partition_by_in_degree`'s keys from `g.edges()`: the in-degree over
    the first m // 4 edges, highest first, ties and misses by id.
    """
    count = np.zeros(g.n, dtype=np.int64)
    for _, v in list(g.edges())[: g.m // 4]:
        count[v] += 1
    return (count.max() - count) * g.n + np.arange(g.n)


def assert_scans(g, ell, scans, members):
    """`scans` = (in_edges, two_paths) are every edge into `members`, in
    edge order with whether each tail is in A, and every edge into those
    tails.
    """
    (tail, head, tail_in_a), (leaf, mid) = scans
    deg = in_degrees(g)
    in_edges = list(zip(tail.tolist(), head.tolist(), tail_in_a.tolist()))
    assert in_edges == [
        (u, v, bool(deg[u] >= 2 * ell)) for u, v in g.edges() if v in members
    ]
    tails = set(tail.tolist())
    two_paths = list(zip(leaf.tolist(), mid.tolist()))
    assert two_paths == [(u, w) for u, w in g.edges() if w in tails]


def assert_scored_prefix(g, ell, keys=None):
    """score_roots scores exactly the A members among the candidates, in
    key order, in batches of 1, 2, 4, ... candidates, and stops after the
    first batch holding a member that reaches d^2 - d.
    """
    keys = candidate_keys(g) if keys is None else keys
    scores = score_roots(g, keys, ell)
    brute = brute_scores(g, ell)
    order = [int(k) % g.n for k in sorted(keys.tolist())]
    d = 2 * ell
    hits = [
        i for i, x in enumerate(order) if x in brute and brute[x][0] >= d * d - d
    ]
    # Batch k holds positions 2^k - 1 .. 2^(k+1) - 2.
    end = min(2 ** (hits[0] + 1).bit_length() - 1 if hits else len(order), len(order))
    prefix = [x for x in order[:end] if x in brute]
    assert scores.xs.tolist() == prefix
    assert scores.score.tolist() == [brute[x][0] for x in prefix]
    assert scores.a.tolist() == [brute[x][1] for x in prefix]
    assert scores.vb.tolist() == [brute[x][2] for x in prefix]
    # Batch k starts at 2^k - 1; the last batch's scans are kept.
    last = set(order[2 ** (end.bit_length() - 1) - 1 : end]) & set(brute)
    assert_scans(g, ell, (scores.in_edges, scores.two_paths), last)
    return scores, brute


def root_of(g, ell):
    return int(select_root(score_roots(g, partition_by_in_degree(g, ell), ell)).x)


def circulant(n, d):
    """u -> u+1, ..., u+d (mod n): every in- and out-degree is d."""
    rows = (np.arange(n)[:, None] + np.arange(1, d + 1)) % n
    return Digraph(n, np.arange(n + 1) * d, rows.ravel())


class TestPartition:
    def test_k5(self):
        # The first 20 // 4 edges, 0 -> 1..4 and 1 -> 0, hit every vertex
        # once, so the candidates go by id.
        keys = partition_by_in_degree(gen_complete_digraph(5), 2)
        assert keys.tolist() == [0, 1, 2, 3, 4]

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
        # A batch of every vertex scores exactly those of in-degree >= 2,
        # and flags exactly those feeders as in A.
        g = from_pairs(
            6,
            [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1), (2, 3),
             (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)],
        )
        deg = in_degrees(g)
        assert deg.tolist() == [0, 5, 5, 2, 0, 0]
        batch = root_selection._score_batch(g, np.arange(6), 1)
        assert batch.xs.tolist() == [v for v in range(6) if deg[v] >= 2]
        assert_scans(g, 1, (batch.in_edges, batch.two_paths), {1, 2, 3})

    def test_prefix_count_orders_the_candidates(self):
        # 2-out-regular on 6 vertices: the first 12 // 4 = 3 edges hit 2
        # twice and 1 once, and the rest tie at zero and follow by id; by
        # in-degree, 1 and 2 would tie at 5 and 1 would go first.
        g = from_pairs(
            6,
            [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1), (2, 3),
             (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)],
        )
        keys = partition_by_in_degree(g, 1)
        assert (np.sort(keys) % 6).tolist() == [2, 1, 0, 3, 4, 5]
        assert keys.tolist() == candidate_keys(g).tolist()

    @given(out_regular_digraphs(max_ell=4, max_n=50))
    @settings(max_examples=50)
    def test_a_class_never_empty_on_regular_input(self, g_ell):
        # Total in-degree equals 2l*n, so some vertex reaches the threshold,
        # and every vertex, that one included, has a distinct key.
        g, ell = g_ell
        keys = partition_by_in_degree(g, ell)
        assert keys.tolist() == candidate_keys(g).tolist()
        assert sorted((keys % g.n).tolist()) == list(range(g.n))
        assert (in_degrees(g) >= 2 * ell).any()


class TestScoreRoots:
    def test_k5(self):
        # Every vertex scores 16 >= 12, so the first batch, vertex 0, suffices.
        g = gen_complete_digraph(5)
        scores = score_roots(g, partition_by_in_degree(g, 2), 2)
        assert rows(scores) == [(0, 4, 0, 16)]
        assert scores.target == 12

    def test_three_b_feeders(self):
        # Root 0 has three in-neighbors, all in B with one in-neighbor each:
        # a = 0 and vb = 3 >= d^2 - d = 2 at l = 1.
        edges = [(b, 0) for b in (1, 2, 3)] + [(b + 3, b) for b in (1, 2, 3)]
        g = from_pairs(7, edges)
        scores = score_roots(g, np.arange(7), 1)
        assert rows(scores) == [(0, 0, 3, 3)]

    def test_four_b_feeders(self):
        # Root 0 has four in-neighbors, all in B with three in-neighbors
        # each: a = 0 and vb = 12 = d^2 - d at l = 2.
        edges = [(b, 0) for b in (1, 2, 3, 4)]
        edges += [(f, b) for b in (1, 2, 3, 4) for f in range(5, 8)]
        g = from_pairs(8, edges)
        scores = score_roots(g, np.arange(8), 2)
        assert rows(scores) == [(0, 0, 12, 12)]

    def test_score_zero(self):
        # 0 is in A, fed by two sources; the later candidates are in B.
        g = from_pairs(3, [(1, 0), (2, 0)])
        scores = score_roots(g, np.arange(3), 1)
        assert rows(scores) == [(0, 0, 0, 0)]

    def test_antiparallel_middle_correction(self):
        # 0 has the B in-neighbors 2 and 3, and 0 -> 2 too: 0 itself must
        # not be counted as a first vertex of the 2-path through 2.
        g = from_pairs(4, [(2, 0), (3, 0), (0, 2), (1, 3)])
        scores = score_roots(g, np.arange(4), 1)
        assert rows(scores) == [(0, 0, 1, 1)]

    def test_b_candidates_are_not_scored(self, batch_sizes):
        # Only 0 reaches in-degree 2.  The keys 1, 2 and 3 = 1*n + 0 put
        # the B candidates 1 and 2 first: the batches scan them, but never
        # score them.
        g = from_pairs(3, [(1, 0), (2, 0)])
        scores = score_roots(g, np.array([1, 2, 3]), 1)
        assert batch_sizes == [1, 2]
        assert rows(scores) == [(0, 0, 0, 0)]

    @given(out_regular_digraphs(max_ell=3, max_n=20))
    @settings(max_examples=40)
    def test_matches_bruteforce(self, g_ell):
        g, ell = g_ell
        scores, brute = assert_scored_prefix(
            g, ell, partition_by_in_degree(g, ell)
        )
        deg = in_degrees(g)
        a_set = {x for x in range(g.n) if deg[x] >= 2 * ell}
        b_set = set(range(g.n)) - a_set
        for x, a_x, vb_x, _ in rows(scores):
            assert x in a_set
            assert a_x == brute_a_count(g, x, a_set)
            assert vb_x == brute_vb_count(g, x, b_set)
        # The root is the first scored vertex that reaches d^2 - d, and its
        # true in-degree is at least 2l.
        d = 2 * ell
        first = next(x for x in scores.xs.tolist() if brute[x][0] >= d * d - d)
        assert select_root(scores).x == first
        assert deg[first] >= d

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
        # Every vertex is in A and ties at one score reaching d^2 - d, so
        # each is a valid root; the first candidate, which one batch
        # scores, is the root.
        keys = partition_by_in_degree(g, ell)
        scores, brute = assert_scored_prefix(g, ell, keys)
        assert len(brute) == g.n
        assert len({s for s, _, _ in brute.values()}) == 1
        assert scores.xs.tolist() == [int(np.argmin(keys))]
        assert select_root(scores).score >= scores.target

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pruning_drops_vertices_that_cannot_win(self, seed):
        # Scoring stops at the first batch reaching d^2 - d, well short of A.
        g = gen_random_out_regular(5000, 20, seed)
        scores = score_roots(g, partition_by_in_degree(g, 10), 10)
        assert 0 < scores.xs.shape[0] < (in_degrees(g) >= 20).sum()

    def test_batches_double_until_a_member_reaches(self, batch_sizes):
        # Vertices 0..9 have in-degree 2, fed by sources of in-degree 0, so
        # every one is in A and scores 0 < d^2 - d = 2: all fourteen
        # candidates are scanned, the ten in A scored, and the first
        # returned.  An edge 8 -> 0 from A lifts the first candidate, 0, to
        # 2, and then one batch suffices.
        edges = [(10 + (i + k) % 4, i) for i in range(10) for k in range(2)]
        g = from_pairs(14, edges)
        scores, _ = assert_scored_prefix(g, 1, np.arange(14))
        assert batch_sizes == [1, 2, 4, 7]
        assert scores.xs.tolist() == list(range(10))
        assert select_root(scores) == RootScore(x=0, a_x=0, vb_x=0, score=0)

        batch_sizes.clear()
        g = from_pairs(14, edges + [(8, 0)])
        scores, _ = assert_scored_prefix(g, 1, np.arange(14))
        assert batch_sizes == [1]
        assert select_root(scores) == RootScore(x=0, a_x=1, vb_x=0, score=2)

    def test_empty_a_class(self, batch_sizes):
        # No candidate at all, and only B candidates: nothing is scored.
        g = gen_complete_digraph(5)
        assert rows(score_roots(g, np.empty(0, dtype=np.int64), 2)) == []
        assert batch_sizes == []
        g = from_pairs(3, [(1, 0), (2, 0)])
        assert rows(score_roots(g, np.array([1, 2]), 1)) == []
        assert batch_sizes == [1, 1]

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

        # The first candidate, with the most in-edges among the first m/4,
        # is a hub and reaches d^2 - d = 2.
        scores, _ = assert_scored_prefix(g, ell, partition_by_in_degree(g, ell))
        hubs = np.sort(perm[z])
        assert scores.xs.shape == (1,) and scores.xs[0] in hubs
        assert scores.score.tolist() == [9]
        assert hubs[0] * n > 2**31

        # One batch of every hub needs the correction for each of them.
        batch = root_selection._score_batch(g, hubs, ell)
        assert batch.xs.tolist() == hubs.tolist()
        assert set(batch.score.tolist()) == {9}


class TestScoreBatch:
    """`_score_batch` on hand-built batches, against `brute_scores`."""

    def assert_batch_exact(self, g, ell, xs):
        batch = root_selection._score_batch(g, np.array(xs), ell)
        brute = brute_scores(g, ell)
        members = [x for x in xs if x in brute]
        assert batch.xs.tolist() == members
        assert batch.a.tolist() == [brute[x][1] for x in members]
        assert batch.vb.tolist() == [brute[x][2] for x in members]
        assert batch.score.tolist() == [brute[x][0] for x in members]
        assert_scans(g, ell, (batch.in_edges, batch.two_paths), set(members))

    def test_member_without_out_edges(self):
        # Sink 0 is fed by A vertex 1 and B vertices 2 and 3; the batch
        # has no out-edges at all, so no in-edge is antiparallel.
        g = from_pairs(5, [(1, 0), (2, 0), (3, 0), (4, 2), (4, 1), (3, 1)])
        self.assert_batch_exact(g, 1, [0])

    def test_every_feeder_antiparallel(self):
        # Each of 0's B in-neighbors 1, 2, 3 also receives an edge from 0,
        # and 5's in-neighbor 4 receives one from 5: both members need the
        # correction there.  5's other in-neighbor 1 also feeds 0, and only
        # 0 -> 1 is an edge, so the correction is per pair, not per feeder.
        # 4 is in B and is not scored.
        pairs = [(0, b) for b in (1, 2, 3)] + [(b, 0) for b in (1, 2, 3)]
        pairs += [(4, 5), (5, 4), (1, 5)]
        g = from_pairs(6, pairs)
        for xs in ([0, 5], [5, 0], [0, 4, 5]):
            self.assert_batch_exact(g, 1, xs)
        batch = root_selection._score_batch(g, np.array([0, 5]), 1)
        assert batch.vb.tolist() == [0, 1]


class TestSelectRoot:
    def test_k5_tiebreak_zero(self):
        g = gen_complete_digraph(5)
        winner = select_root(score_roots(g, partition_by_in_degree(g, 2), 2))
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
        winner = select_root(
            score_roots(g, partition_by_in_degree(g, ell), ell)
        )
        d = 2 * ell
        assert winner.score >= d * d - d
        assert in_degrees(g)[winner.x] >= d


class TestQPaths:
    def test_k5_empty_vacuous(self):
        g = gen_complete_digraph(5)
        pool = strong_extender_pool(paths_into(g, 0), 2, a_in_nbrs(g, 0, 2), 5)
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
        r = root_of(g, ell)
        pool = strong_extender_pool(
            paths_into(g, r), ell, a_in_nbrs(g, r, ell), g.n
        )
        q = compute_q_paths(paths_into(g, r), pool)
        deg = in_degrees(g)
        excluded = set(pool.a_r.tolist()) | set(pool.c_r.tolist())
        edges = set(g.edges())
        for first, middle in zip(q.first.tolist(), q.middle.tolist()):
            assert first not in (r, middle)
            assert (first, middle) in edges
            assert (middle, r) in edges
            assert deg[middle] < 2 * ell
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
        r = root_of(g, ell)
        pool = strong_extender_pool(
            paths_into(g, r), ell, a_in_nbrs(g, r, ell), g.n
        )
        deg = in_degrees(g)
        vb_paths = [
            (v, b) for v, b in brute_two_paths_to(g, r) if deg[b] < 2 * ell
        ]
        for x in pool.a_r.tolist():
            touched = sum(1 for v, b in vb_paths if x in (v, b))
            assert touched <= 2 * ell - 1
        for x in pool.c_r.tolist():
            touched = sum(1 for v, b in vb_paths if x in (v, b))
            assert touched <= 4 * ell - 1
