import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiderfind.oracle as oracle
from spiderfind import (
    InstanceTooLarge,
    Spider,
    find_spider,
    gen_complete_digraph,
    gen_random_out_regular,
    gen_regular_tournament,
    has_spider_bruteforce,
    max_spider_at_root,
    min_out_degree,
    search_spider_free,
    verify_spider,
)
from reference import brute_max_legs, from_pairs
from strategies import digraphs


def assert_valid_legs(g, spider, count):
    """spider has `count` valid legs; verify_spider takes only count >= 1."""
    if count == 0:
        assert spider.legs == ()
    else:
        assert verify_spider(g, spider, count) is None


class TestMaxSpiderAtRoot:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_complete_on_2l_vertices_caps_at_l_minus_1(self, ell):
        g = gen_complete_digraph(2 * ell)
        for r in range(g.n):
            count, spider = max_spider_at_root(g, r)
            assert count == ell - 1
            assert_valid_legs(g, spider, count)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_complete_on_2l_plus_1_reaches_l(self, ell):
        g = gen_complete_digraph(2 * ell + 1)
        for r in range(g.n):
            count, spider = max_spider_at_root(g, r)
            assert count == ell
            assert verify_spider(g, spider, count) is None

    def test_isolated_root(self):
        g = from_pairs(4, [(1, 2)])
        count, spider = max_spider_at_root(g, 0)
        assert count == 0
        assert spider.legs == ()

    def test_cap_enforced(self):
        g = gen_complete_digraph(177)
        with pytest.raises(InstanceTooLarge):
            max_spider_at_root(g, 0)

    # Leg graph at root 0 (every other vertex points to 0, so each edge
    # u -> v adds the leg pair {u, v}): the 5-cycle 1-2-3-8-4 with the
    # path 8-7-5-6 hanging off it.  The greedy start (lowest degree first)
    # matches 5-6, 1-2 and 3-8 and leaves 4 and 7 free.  The only
    # augmenting path, 4-1=2-3=8-7, runs the cycle the long way; the search
    # from 4 first reaches 1 and 8 as inner vertices, so it finds the path
    # only after the cycle is contracted.
    BLOSSOM = [(1, 2), (1, 4), (2, 3), (3, 8), (4, 8), (5, 6), (5, 7), (7, 8)]
    BLOSSOM_DIGRAPH = BLOSSOM + [(v, 0) for v in range(1, 9)]

    def test_augmenting_path_through_blossom(self, monkeypatch):
        g = from_pairs(9, self.BLOSSOM_DIGRAPH)
        contractions = []
        contract = oracle._contract_blossom

        def spy(v, u, *rest):
            contractions.append((v, u))
            contract(v, u, *rest)

        monkeypatch.setattr(oracle, "_contract_blossom", spy)
        count, spider = max_spider_at_root(g, 0)
        assert contractions
        assert count == brute_max_legs(g, 0) == 4
        assert verify_spider(g, spider, count) is None

    # Leg graph at root 0: 7 is the only neighbour of both pendants 1 and 3,
    # plus the path 5-4-2-6 with 5 and 6 also adjacent to 7.  Greedy
    # matches 1-7 and 2-4 and leaves 3, 5 and 6 free.  The search from 3
    # fails and retires its tree {3, 7, 1}; the search from 5 must still
    # find 5-4=2-6.
    RETIRE = [(1, 7), (2, 4), (2, 6), (3, 7), (4, 5), (5, 7), (6, 7)]

    def test_failed_search_retires_only_its_tree(self, monkeypatch):
        g = from_pairs(8, self.RETIRE + [(v, 0) for v in range(1, 8)])
        searches = []
        augment = oracle._augment_from

        def spy(root, nbrs, mate, retired):
            before = list(mate)
            augment(root, nbrs, mate, retired)
            searches.append((root, mate != before))

        monkeypatch.setattr(oracle, "_augment_from", spy)
        count, spider = max_spider_at_root(g, 0)
        assert searches == [(3, False), (5, True)]
        assert count == brute_max_legs(g, 0) == 3
        assert verify_spider(g, spider, count) is None

    @pytest.mark.parametrize(
        "pairs, n, ell, expected",
        [
            # Blossom fixture: the augmented matching, legs by lower endpoint.
            (
                BLOSSOM_DIGRAPH,
                9,
                4,
                Spider(root=0, legs=((1, 4), (2, 3), (5, 6), (7, 8))),
            ),
            # Circulant tournament i -> i+1, i+2, i+3 (mod 7): several
            # maximum matchings at root 0; ties go to the lower degree, then
            # the lower id.
            (
                [(i, (i + k) % 7) for i in range(7) for k in (1, 2, 3)],
                7,
                3,
                Spider(root=0, legs=((1, 4), (2, 5), (3, 6))),
            ),
            # Leg graph 1-2, 1-5, 2-3, 2-5, 3-4 at root 0: the pendant 4
            # takes 3 first, then 1 takes its lower-degree neighbour 5, not 2.
            (
                [(1, 2), (1, 5), (2, 3), (2, 5), (3, 4)]
                + [(v, 0) for v in range(1, 6)],
                6,
                2,
                Spider(root=0, legs=((1, 5), (3, 4))),
            ),
            # K_5: every pair is realizable both ways, so the leaf is the
            # lower id.
            (
                [(u, v) for u in range(5) for v in range(5) if u != v],
                5,
                2,
                Spider(root=0, legs=((1, 2), (3, 4))),
            ),
        ],
    )
    def test_witness_pinned(self, pairs, n, ell, expected):
        g = from_pairs(n, pairs)
        first = has_spider_bruteforce(g, ell)
        second = has_spider_bruteforce(g, ell)
        assert first.witness == second.witness == expected
        assert max_spider_at_root(g, 0) == max_spider_at_root(g, 0) == (ell, expected)
        assert verify_spider(g, expected, ell) is None

    @given(digraphs(min_n=2, max_n=8))
    @settings(max_examples=80)
    def test_matches_naive_enumeration(self, g):
        for r in range(g.n):
            count, spider = max_spider_at_root(g, r)
            assert count == brute_max_legs(g, r)
            assert_valid_legs(g, spider, count)

    @given(digraphs(min_n=3, max_n=8), st.data())
    @settings(max_examples=60)
    def test_monotone_under_edge_removal(self, g, data):
        edges = list(g.edges())
        if not edges:
            return
        drop = data.draw(st.integers(0, len(edges) - 1))
        smaller = from_pairs(g.n, edges[:drop] + edges[drop + 1 :])
        for r in range(g.n):
            assert max_spider_at_root(smaller, r)[0] <= max_spider_at_root(g, r)[0]


class TestHasSpider:
    def test_k2_ell_1(self):
        res = has_spider_bruteforce(gen_complete_digraph(2), 1)
        assert res.exists is False
        assert res.witness is None
        assert res.best_per_root == {0: 0, 1: 0}

    def test_k4_ell_2(self):
        res = has_spider_bruteforce(gen_complete_digraph(4), 2)
        assert res.exists is False
        assert res.best_per_root == {r: 1 for r in range(4)}

    def test_k3_ell_1(self):
        res = has_spider_bruteforce(gen_complete_digraph(3), 1)
        assert res.exists is True
        assert res.witness.root == 0
        assert verify_spider(gen_complete_digraph(3), res.witness, 1) is None

    def test_ell_below_one_rejected(self):
        with pytest.raises(ValueError, match="ell must be >= 1"):
            has_spider_bruteforce(gen_complete_digraph(3), 0)

    def test_witness_truncated_to_ell(self):
        g = gen_complete_digraph(7)
        res = has_spider_bruteforce(g, 2)
        assert len(res.witness.legs) == 2
        assert verify_spider(g, res.witness, 2) is None

    @given(digraphs(min_n=3, max_n=9), st.integers(1, 2))
    @settings(max_examples=60)
    def test_agrees_with_solver_when_applicable(self, g, ell):
        res = has_spider_bruteforce(g, ell)
        if g.n >= 1 and min_out_degree(g) >= 2 * ell:
            assert res.exists
            out = find_spider(g, ell)
            assert verify_spider(g, out.spider, ell) is None


class TestSearch:
    def test_complete_extremal_family(self):
        out = search_spider_free(
            lambda seed: gen_complete_digraph(4), ell=2, trials=1, seed=0
        )
        assert len(out.kept) == 1
        g, res = out.kept[0]
        assert res.exists is False
        assert min_out_degree(g) == 3

    def test_small_tournaments_all_spider_free(self):
        # 3 vertices cannot host the 5 a (2,2)-spider needs.
        out = search_spider_free(
            lambda seed: gen_regular_tournament(3, seed), ell=2, trials=10, seed=0
        )
        assert len(out.kept) == 10
        assert out.skipped == 0

    def test_five_vertex_tournaments_can_host_ell_2(self):
        # 5 = 2*2+1 vertices are already enough: the circulant regular
        # tournament contains a (2,2)-spider, so nothing is kept.
        out = search_spider_free(
            lambda seed: gen_regular_tournament(5, seed), ell=2, trials=10, seed=0
        )
        assert len(out.kept) == 0

    def test_random_regular_above_threshold_never_kept(self):
        out = search_spider_free(
            lambda seed: gen_random_out_regular(10, 4, seed), ell=2, trials=20, seed=0
        )
        assert len(out.kept) == 0

    @pytest.mark.parametrize(
        "ell, trials, message",
        [(0, 1, "ell must be >= 1"), (1, -5, "trials must be >= 0")],
    )
    def test_bad_bounds_rejected(self, ell, trials, message):
        sampled = []

        def sample(seed):
            sampled.append(seed)
            return gen_complete_digraph(3)

        with pytest.raises(ValueError, match=message):
            search_spider_free(sample, ell=ell, trials=trials, seed=0)
        assert sampled == []

    def test_oversize_samples_skipped(self):
        out = search_spider_free(
            lambda seed: gen_complete_digraph(180), ell=2, trials=3, seed=0
        )
        assert out.skipped == 3
        assert out.kept == []
        assert out.trials == 3
