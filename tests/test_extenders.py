import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiderfind import (
    InternalInvariantError,
    Spider,
    gen_complete_digraph,
    verify_spider,
)
from spiderfind.extenders import (
    _extension_keys,
    greedy_extend,
    strong_extender_pool,
)
from reference import (
    a_in_nbrs,
    brute_extension_set,
    brute_greedy_extend,
    from_pairs,
    in_degrees,
    paths_into,
)
from strategies import digraphs, out_regular_digraphs

# Edges 1->2, 2->0, 3->1, 1->0: vertex 2 reaches 0 through 1->2->0 and
# vertex 3 through 3->1->0.
CHAIN = from_pairs(4, [(1, 2), (2, 0), (3, 1), (1, 0)])


# An empty a_r: the pool then finds every strong extender through c_r.
NO_A = np.empty(0, dtype=np.int32)


def pool_at(g, r):
    """A pool for root r; `greedy_extend` reads only its O(x, r) keys."""
    return strong_extender_pool(paths_into(g, r), 1, NO_A, g.n)


def assert_pool_shape(pool):
    """a_r and c_r are strictly ascending and disjoint."""
    assert np.all(np.diff(pool.a_r) > 0) and np.all(np.diff(pool.c_r) > 0)
    assert np.intersect1d(pool.a_r, pool.c_r).size == 0


def strong_set(g, r, ell, a_r):
    pool = strong_extender_pool(paths_into(g, r), ell, a_r, g.n)
    assert_pool_shape(pool)
    return set(pool.a_r.tolist()) | set(pool.c_r.tolist())


class TestExtensionSet:
    """The reference O(x, r) on hand-worked graphs."""

    def test_chain_graph(self):
        assert brute_extension_set(CHAIN, 1, 0) == {2, 3}

    def test_complete_counts_once(self):
        g = gen_complete_digraph(4)
        assert brute_extension_set(g, 1, 0) == {2, 3}

    def test_single_edge(self):
        g = from_pairs(2, [(1, 0)])
        assert brute_extension_set(g, 1, 0) == set()

    @given(digraphs(min_n=2, max_n=8), st.integers(1, 3))
    def test_matches_bruteforce_everywhere(self, g, ell):
        # Any graph and every root: a_r members are strong by in-degree
        # alone, so the pool equals the brute-force strong set.
        for r in range(g.n):
            expected = {
                x
                for x in range(g.n)
                if x != r and len(brute_extension_set(g, x, r)) >= 2 * ell - 1
            }
            assert strong_set(g, r, ell, a_in_nbrs(g, r, ell)) == expected


class TestExtensionKeys:
    """`_extension_keys` is O(x, r) exactly, at every x and every root."""

    @given(
        st.one_of(
            digraphs(min_n=2, max_n=8),
            st.integers(1, 3).map(lambda ell: gen_complete_digraph(2 * ell + 1)),
        )
    )
    def test_keys_are_the_extension_sets(self, g):
        edges = set(g.edges())
        for r in range(g.n):
            leaf, mid = paths_into(g, r)
            keys, forward = _extension_keys(g.n, leaf, mid)
            assert np.all(np.diff(keys) > 0) and np.all(np.diff(forward) > 0)
            xs, ys = (keys // g.n).tolist(), (keys % g.n).tolist()
            assert r not in xs
            for x in range(g.n):
                if x != r:
                    got = {y for kx, y in zip(xs, ys) if kx == x}
                    assert got == brute_extension_set(g, x, r)
            fwd = set(zip((forward // g.n).tolist(), (forward % g.n).tolist()))
            assert fwd == {(x, y) for x, y in edges if x != r and (y, r) in edges}


class TestIExtender:
    def test_chain_examples(self):
        # |O(1, 0)| = 2: strong at threshold 2l-1 = 1, not at 3.
        assert 1 in strong_set(CHAIN, 0, 1, NO_A)
        assert 1 not in strong_set(CHAIN, 0, 2, NO_A)

    @given(digraphs(min_n=2, max_n=7), st.integers(1, 3))
    def test_monotone(self, g, ell):
        for r in range(g.n):
            assert strong_set(g, r, ell + 1, NO_A) <= strong_set(g, r, ell, NO_A)


class TestStrongExtenderPool:
    def test_k5(self):
        g = gen_complete_digraph(5)
        pool = strong_extender_pool(paths_into(g, 0), 2, a_in_nbrs(g, 0, 2), 5)
        assert pool.a_r.tolist() == [1, 2, 3, 4]
        assert pool.c_r.tolist() == []

    def test_second_clause_membership(self):
        g = from_pairs(3, [(1, 2), (2, 0)])
        pool = strong_extender_pool(paths_into(g, 0), 1, NO_A, g.n)
        assert pool.a_r.tolist() == []
        assert pool.c_r.tolist() == [1, 2]

    def test_isolated_root(self):
        g = from_pairs(3, [(1, 2)])
        pool = strong_extender_pool(paths_into(g, 0), 1, NO_A, g.n)
        assert pool.a_r.size == 0 and pool.c_r.size == 0

    @given(out_regular_digraphs(max_ell=3, max_n=22))
    @settings(max_examples=40)
    def test_pool_is_exactly_the_strong_extenders(self, g_ell):
        g, ell = g_ell
        r = 0
        pool = strong_extender_pool(
            paths_into(g, r), ell, a_in_nbrs(g, r, ell), g.n
        )
        assert_pool_shape(pool)
        pooled = set(pool.a_r.tolist()) | set(pool.c_r.tolist())
        thr = 2 * ell - 1
        expected = {
            x
            for x in range(g.n)
            if x != r and len(brute_extension_set(g, x, r)) >= thr
        }
        assert pooled == expected
        edges = set(g.edges())
        for x in pool.a_r.tolist():
            assert (x, r) in edges
            assert in_degrees(g)[x] >= 2 * ell
        # The pool carries the O(x, r) keys it classified from.
        keys, forward = _extension_keys(g.n, *paths_into(g, r))
        assert pool.n == g.n
        assert np.array_equal(pool.keys, keys)
        assert np.array_equal(pool.forward, forward)


class TestGreedyExtend:
    def test_empty_sequence_returns_base(self):
        g = gen_complete_digraph(5)
        base = Spider(0, ((1, 2),))
        assert greedy_extend(pool_at(g, 0), base, []) == base

    def test_k5_attaches_remaining_vertex(self):
        g = gen_complete_digraph(5)
        out = greedy_extend(pool_at(g, 0), Spider(0, ((1, 2),)), [3])
        assert out.legs == ((1, 2), (3, 4))
        assert verify_spider(g, out, 2) is None

    def test_exhausted_when_options_inside_spider(self):
        base = Spider(0, ((1, 2),))
        with pytest.raises(
            InternalInvariantError,
            match="^no attachment vertex available for extender 3$",
        ):
            greedy_extend(pool_at(CHAIN, 0), base, [3])

    @pytest.mark.parametrize("f_seq", [[3, 1], [1, 3]])
    def test_empty_extension_set_anywhere_in_f_seq(self, f_seq):
        # O(3, 0) is empty and O(1, 0) = {2}: the empty run of candidates
        # fails at 3 wherever it sits, without shifting the other runs.
        g = from_pairs(4, [(1, 0), (2, 1), (3, 0)])
        with pytest.raises(
            InternalInvariantError,
            match="^no attachment vertex available for extender 3$",
        ):
            greedy_extend(pool_at(g, 0), Spider(0), f_seq)

    def test_prefers_extender_as_leaf(self):
        g = gen_complete_digraph(3)
        out = greedy_extend(pool_at(g, 0), Spider(0), [1])
        assert out.legs == ((1, 2),)

    def test_reverse_orientation_used_when_needed(self):
        g = from_pairs(3, [(2, 1), (1, 0)])
        out = greedy_extend(pool_at(g, 0), Spider(0), [1])
        assert out.legs == ((2, 1),)
        assert verify_spider(g, out, 1) is None

    def test_smallest_candidate_wins(self):
        g = gen_complete_digraph(5)
        out = greedy_extend(pool_at(g, 0), Spider(0), [1])
        assert out.legs == ((1, 2),)

    def test_candidates_skip_pending_extenders(self):
        g = gen_complete_digraph(7)
        out = greedy_extend(pool_at(g, 0), Spider(0), [1, 2, 3])
        assert verify_spider(g, out, 3) is None
        # 1 cannot grab 2 or 3: they are later extenders.
        assert out.legs[0] == (1, 4)

    def test_rejects_overlapping_f_seq(self):
        g = gen_complete_digraph(5)
        with pytest.raises(ValueError):
            greedy_extend(pool_at(g, 0), Spider(0, ((1, 2),)), [1])
        with pytest.raises(ValueError):
            greedy_extend(pool_at(g, 0), Spider(0), [3, 3])

    @given(out_regular_digraphs(max_ell=4, max_n=30))
    @settings(max_examples=60)
    def test_strong_extender_specialization(self, g_ell):
        # With f + s = ell and every extender strong, extension always
        # completes and yields a verified spider.
        g, ell = g_ell
        r = 0
        pool = strong_extender_pool(
            paths_into(g, r), ell, a_in_nbrs(g, r, ell), g.n
        )
        f_seq = np.concatenate((pool.a_r, pool.c_r))[:ell]
        if len(f_seq) < ell:
            return
        out = greedy_extend(pool, Spider(r), f_seq)
        assert verify_spider(g, out, ell) is None

    def test_tight_positional_requirements(self):
        # |O(x_i, 0)| equals the positional requirement f + 2s + i - 1
        # exactly (f=2, s=0): position 1 needs 2 options, position 2 needs 3.
        g = from_pairs(
            6,
            [(1, 3), (1, 4), (2, 3), (2, 4), (2, 5),
             (3, 0), (4, 0), (5, 0)],
        )
        assert len(brute_extension_set(g, 1, 0)) == 2
        assert len(brute_extension_set(g, 2, 0)) == 3
        out = greedy_extend(pool_at(g, 0), Spider(0), [1, 2])
        assert out.legs == ((1, 3), (2, 4))
        assert verify_spider(g, out, 2) is None

    @given(digraphs(min_n=4, max_n=11), st.data())
    @settings(max_examples=80)
    def test_counting_guarantee_with_nonempty_base(self, g, data):
        # Whenever each extender satisfies its positional requirement
        # |O(x_i, r)| >= f + 2s + i - 1 over an s-leg base, extension never
        # exhausts, for any base shape.
        from spiderfind import max_spider_at_root

        r = data.draw(st.integers(0, g.n - 1))
        s_max, base_full = max_spider_at_root(g, r)
        s = data.draw(st.integers(0, s_max))
        base = Spider(r, base_full.legs[:s])
        taken = base.vertices()
        outside = [x for x in range(g.n) if x not in taken]
        sizes = {x: len(brute_extension_set(g, x, r)) for x in outside}
        f = data.draw(st.integers(1, max(1, min(3, len(outside)))))
        # Strongest positional requirement is f + 2s + f - 1; any subset of
        # vertices meeting it satisfies every position.
        eligible = sorted(x for x in outside if sizes[x] >= 2 * f + 2 * s - 1)
        if len(eligible) < f:
            return
        f_seq = data.draw(st.permutations(eligible))[:f]
        out = greedy_extend(pool_at(g, r), base, f_seq)
        assert verify_spider(g, out, s + f) is None

    @given(
        st.one_of(
            digraphs(min_n=4, max_n=11),
            out_regular_digraphs(max_ell=3, max_n=14).map(lambda t: t[0]),
        ),
        st.data(),
    )
    @settings(max_examples=120)
    def test_matches_bruteforce_leg_for_leg(self, g, data):
        # The attachment vertex and the orientation of every leg follow the
        # documented rule exactly, whether or not extension exhausts.  The
        # out-regular graphs and the preference for extenders that meet the
        # counting requirement keep completed, multi-leg runs among the
        # examples, not only early exhaustion.
        from spiderfind import max_spider_at_root

        r = data.draw(st.integers(0, g.n - 1))
        s_max, base_full = max_spider_at_root(g, r)
        s = data.draw(st.integers(0, s_max))
        base = Spider(r, base_full.legs[:s])
        taken = base.vertices()
        outside = [x for x in range(g.n) if x not in taken]
        if not outside:
            return
        f = data.draw(st.integers(1, min(3, len(outside))))
        need = 2 * f + 2 * s - 1
        eligible = [
            x for x in outside if len(brute_extension_set(g, x, r)) >= need
        ]
        choices = eligible if len(eligible) >= f else outside
        f_seq = data.draw(st.permutations(choices))[:f]
        expected = brute_greedy_extend(g, r, base, f_seq)
        if expected is None:
            with pytest.raises(InternalInvariantError):
                greedy_extend(pool_at(g, r), base, f_seq)
        else:
            out = greedy_extend(pool_at(g, r), base, f_seq)
            assert list(out.legs) == expected
