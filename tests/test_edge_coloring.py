import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import spiderfind.edge_coloring as ec
from spiderfind import Spider, verify_spider
from spiderfind.edge_coloring import (
    build_extension_graph,
    largest_color_class,
    truncate_for_coloring,
    vizing_color,
)
from spiderfind.extenders import strong_extender_pool
from spiderfind.root_selection import (
    QPaths,
    partition_by_in_degree,
    score_roots,
    select_root,
    compute_q_paths,
)
from reference import check_proper_coloring, make_h
from strategies import out_regular_digraphs


def make_q(paths):
    """QPaths from (first, middle) pairs, each realizing first -> middle -> r."""
    return QPaths(
        first=np.asarray([f for f, _ in paths], dtype=np.int32),
        middle=np.asarray([m for _, m in paths], dtype=np.int32),
    )


def edge_list(h):
    """Each edge of h as its (lower, higher) endpoint pair."""
    return [(min(e), max(e)) for e in zip(h.leaf.tolist(), h.mid.tolist())]


def colors_used(col):
    return len(set(col.color_of.tolist()))


@st.composite
def undirected_graphs(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return edges


class TestBuild:
    def test_two_paths_share_middle(self):
        h = build_extension_graph(make_q([(1, 2), (3, 2)]))
        assert h.num_edges == 2
        assert set(edge_list(h)) == {(1, 2), (2, 3)}
        assert h.max_degree == 2

    def test_opposite_orientations_merge_first_wins(self):
        h = build_extension_graph(make_q([(2, 1), (1, 2)]))
        assert h.num_edges == 1
        assert edge_list(h) == [(1, 2)]
        assert (int(h.leaf[0]), int(h.mid[0])) == (2, 1)

    def test_empty(self):
        h = build_extension_graph(make_q([]))
        assert h.num_edges == 0
        assert h.max_degree == 0


class TestTruncate:
    def test_below_threshold_unchanged(self):
        h = make_h([(0, 1), (2, 3), (4, 5)])
        assert truncate_for_coloring(h, 2) is h

    def test_cap_applied(self):
        h = make_h([(0, i + 1) for i in range(10)])
        ht = truncate_for_coloring(h, 2)
        assert ht.num_edges == 4
        assert ht.truncated is True
        assert edge_list(ht) == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_ell_one_threshold(self):
        h = make_h([(0, 1), (2, 3)])
        ht = truncate_for_coloring(h, 1)
        assert ht.num_edges == 1

    def test_cap_guarantees_class_of_size_ell(self):
        for ell in range(1, 9):
            cap = (2 * ell - 1) * (ell - 1) + 1
            assert -(-cap // (2 * ell - 1)) == ell


class TestVizing:
    def test_triangle_needs_three(self):
        h = make_h([(0, 1), (1, 2), (0, 2)])
        col = vizing_color(h)
        assert col.palette == 3
        assert colors_used(col) == 3
        assert check_proper_coloring(edge_list(h), col.color_of.tolist())

    def test_path_two_edges(self):
        h = make_h([(0, 1), (1, 2)])
        col = vizing_color(h)
        assert colors_used(col) == 2
        assert col.palette == 3

    def test_empty(self):
        h = make_h([])
        col = vizing_color(h)
        assert col.palette == 0
        assert col.color_of.shape == (0,)

    def test_star_adversary(self):
        h = make_h([(0, i) for i in range(1, 31)])
        col = vizing_color(h)
        assert col.palette == 31
        assert colors_used(col) == 30
        assert check_proper_coloring(edge_list(h), col.color_of.tolist())

    @staticmethod
    def _color_with_spies(monkeypatch, edges):
        """Color `edges` recording each fan insertion and whether each c/d
        flip swapped a non-empty path; the coloring must be proper with
        palette Delta+1."""
        fans, flips = [], []
        insert, flip = ec._insert_with_fan, ec._flip_chain

        def spy_insert(e0, *rest):
            fans.append(e0)
            insert(e0, *rest)

        def spy_flip(start, a, b, col, free, at):
            before = list(col)
            flip(start, a, b, col, free, at)
            flips.append(col != before)

        monkeypatch.setattr(ec, "_insert_with_fan", spy_insert)
        monkeypatch.setattr(ec, "_flip_chain", spy_flip)
        col = vizing_color(make_h(edges))
        degree = np.bincount(np.asarray(edges).ravel())
        assert col.palette == int(degree.max()) + 1
        assert check_proper_coloring(edges, col.color_of.tolist())
        return fans, flips

    # Frozen edge orders on which first-fit stalls at the last edge: the
    # first needs only a fan rotation, the second also flips a non-empty
    # c/d path.
    def test_fan_without_flip(self, monkeypatch):
        edges = [(0, 4), (1, 4), (0, 2), (1, 2), (1, 3), (3, 4), (0, 3)]
        fans, flips = self._color_with_spies(monkeypatch, edges)
        assert fans == [6]
        assert not any(flips)

    def test_fan_with_path_flip(self, monkeypatch):
        edges = [(0, 2), (0, 1), (1, 4), (2, 4), (0, 3), (2, 3), (3, 4)]
        fans, flips = self._color_with_spies(monkeypatch, edges)
        assert fans == [6]
        assert any(flips)

    def test_deterministic(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
        h = make_h(edges)
        first = vizing_color(h).color_of.tolist()
        second = vizing_color(h).color_of.tolist()
        assert first == second

    @given(undirected_graphs())
    @settings(max_examples=120)
    def test_proper_within_palette(self, edges):
        h = make_h(edges)
        col = vizing_color(h)
        assert check_proper_coloring(edges, col.color_of.tolist())
        if edges:
            deg = {}
            for u, v in edges:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            delta = max(deg.values())
            assert col.palette == delta + 1
            assert colors_used(col) <= delta + 1


class TestLargestClass:
    def test_triangle_smallest_color_wins(self):
        h = make_h([(0, 1), (1, 2), (0, 2)])
        col = vizing_color(h)
        cls = largest_color_class(col)
        assert cls.shape[0] == 1
        assert int(col.color_of[cls[0]]) == 0

    def test_monochromatic_matching(self):
        h = make_h([(0, 1), (2, 3), (4, 5)])
        col = vizing_color(h)
        cls = largest_color_class(col)
        assert cls.tolist() == [0, 1, 2]

    def test_seven_edge_path_class_at_least_three(self):
        h = make_h([(i, i + 1) for i in range(7)])
        col = vizing_color(h)
        cls = largest_color_class(col)
        assert cls.shape[0] >= 3

    @given(undirected_graphs())
    @settings(max_examples=80)
    def test_class_is_matching_and_pigeonhole(self, edges):
        h = make_h(edges)
        col = vizing_color(h)
        cls = largest_color_class(col)
        if not edges:
            assert cls.shape[0] == 0
            return
        ends = [edge_list(h)[int(i)] for i in cls]
        flat = [v for e in ends for v in e]
        assert len(set(flat)) == len(flat)
        assert cls.shape[0] * col.palette >= len(edges)


class TestPayloadSoundness:
    @given(out_regular_digraphs(max_ell=3, max_n=24))
    @settings(max_examples=40)
    def test_class_payloads_form_disjoint_legs(self, g_ell):
        g, ell = g_ell
        a_mask = partition_by_in_degree(g, ell)
        r = int(select_root(score_roots(g, a_mask, ell)).x)
        pool = strong_extender_pool(g.two_paths_into(r), ell, a_mask)
        q = compute_q_paths(g.two_paths_into(r), a_mask, pool)
        h = build_extension_graph(q)
        ht = truncate_for_coloring(h, ell)
        col = vizing_color(ht)
        cls = largest_color_class(col)
        legs = tuple((int(ht.leaf[i]), int(ht.mid[i])) for i in cls)
        # An empty class has no legs to check; verify_spider needs l >= 1.
        if legs:
            assert verify_spider(g, Spider(r, legs), len(legs)) is None
