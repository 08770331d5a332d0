import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderfind import (
    InstanceTooLarge,
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
        g = gen_complete_digraph(17)
        with pytest.raises(InstanceTooLarge):
            max_spider_at_root(g, 0)
        with pytest.raises(InstanceTooLarge):
            max_spider_at_root(gen_complete_digraph(9), 0, cap=8)

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
            lambda seed: gen_complete_digraph(20), ell=2, trials=3, seed=0
        )
        assert out.skipped == 3
        assert out.kept == []
        assert out.trials == 3
