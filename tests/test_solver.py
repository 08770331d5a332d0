import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings

import spiderfind.digraph as digraph
import spiderfind.edge_coloring as edge_coloring
import spiderfind.extenders as extenders
import spiderfind.solver as solver
from spiderfind import (
    Digraph,
    InternalInvariantError,
    PreconditionOutDegree,
    explain_trace,
    find_spider,
    format_spider,
    gen_complete_digraph,
    gen_random_out_regular,
    parse_edge_list,
    verify_spider,
)
from spiderfind.edge_coloring import (
    build_extension_graph,
    largest_color_class,
    truncate_for_coloring,
    vizing_color,
)
from spiderfind.extenders import strong_extender_pool
from spiderfind.root_selection import QPaths, compute_q_paths
from reference import a_in_nbrs, from_pairs, in_degrees, paths_into
from strategies import min_out_degree_digraphs, out_regular_digraphs

TRIANGLE = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")


class TestFindSpider:
    def test_k3_ell_one(self):
        g = gen_complete_digraph(3)
        out = find_spider(g, 1)
        assert verify_spider(g, out.spider, 1) is None
        # The first m/4 = 1 edge, 0 -> 1, makes 1 the first candidate.
        assert out.spider.root == 1

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 8])
    def test_tight_complete_digraph(self, ell):
        g = gen_complete_digraph(2 * ell + 1)
        out = find_spider(g, ell)
        assert verify_spider(g, out.spider, ell) is None
        assert len(out.spider.vertices()) == 2 * ell + 1
        assert out.spider.vertices() == set(range(2 * ell + 1))

    def test_triangle_below_threshold(self):
        with pytest.raises(PreconditionOutDegree):
            find_spider(TRIANGLE, 1)

    def test_bad_parameters(self):
        g = gen_complete_digraph(3)
        with pytest.raises(ValueError):
            find_spider(g, 0)
        with pytest.raises(ValueError):
            find_spider(g, 1, mode="turbo")
        with pytest.raises(ValueError, match="unknown mode 'fast'"):
            find_spider(g, 1, mode="fast")

    def test_deterministic(self):
        g = gen_random_out_regular(300, 10, seed=9)
        first = find_spider(g, 5)
        second = find_spider(g, 5)
        assert format_spider(first.spider) == format_spider(second.spider)
        assert explain_trace(first.trace) == explain_trace(second.trace)

    def test_trace_contents(self):
        g = gen_complete_digraph(5)
        out = find_spider(g, 2)
        t = out.trace
        assert t.d == 4
        assert t.root == 0
        assert t.a == 4 and t.c == 0
        assert t.q_size == 0 and t.s == 0
        assert all(c.passed for c in t.checks)
        names = [c.name for c in t.checks]
        assert names == [
            "score >= d^2 - d",
            "|Q_r| >= d^2 - d - (a+c)(4l-1)",
            "max_deg(H) <= 2l - 2",
            "palette <= 2l - 1",
            "s(2l-1) >= |E(H_t)|",
            "a + c + s >= l",
        ]
        assert not t.truncated

    def test_trace_values_are_plain_ints(self):
        out = find_spider(gen_random_out_regular(60, 6, seed=1), 3)
        t = out.trace
        for value in (t.d, t.root, t.a, t.c, t.s, t.shortfall, t.q_size, t.vb_r):
            assert type(value) is int
        for chk in t.checks:
            assert type(chk.lhs) is int and type(chk.rhs) is int

    def test_truncated_run_records_coverage_check(self):
        g = few_extenders_instance()
        out = find_spider(g, 3)
        assert out.trace.truncated
        coverage = [c for c in out.trace.checks if c.name == "s(2l-1) >= |E(H_t)|"]
        # a + c = 2, so t = 1 and H_t holds exactly the cap (2l-1)(t-1)+1 = 1.
        assert [(c.lhs, c.rhs, c.passed) for c in coverage] == [
            (5 * out.trace.s, 1, True)
        ]
        assert (
            "shortfall t = max(0, l - a - c) = 1: coloring instance truncated "
            "to the (2l-1)(t-1)+1 edge cap\n" in explain_trace(out.trace)
        )
        assert verify_spider(g, out.spider, 3) is None

    def test_result_lives_in_original_graph(self):
        # min out-degree above 2l: the working subgraph drops edges, the
        # spider must still verify against the original.
        g = gen_random_out_regular(80, 9, seed=12)
        out = find_spider(g, 4)
        assert verify_spider(g, out.spider, 4) is None

    @given(out_regular_digraphs(max_ell=4, max_n=60))
    @settings(max_examples=80)
    def test_totality_on_regular_inputs(self, g_ell):
        g, ell = g_ell
        out = find_spider(g, ell)
        assert verify_spider(g, out.spider, ell) is None
        assert len(out.spider.legs) == ell

    @given(min_out_degree_digraphs(max_ell=3, max_n=30))
    @settings(max_examples=60)
    def test_totality_on_irregular_inputs(self, g_ell):
        g, ell = g_ell
        out = find_spider(g, ell)
        assert verify_spider(g, out.spider, ell) is None


def antiparallel_triangle_instance() -> Digraph:
    """4-out-regular graph with more surviving 2-paths than H has edges.

    Vertices 1, 2, 3 point at the root 0 and at each other in both
    directions, all with in-degree 2, so their six 2-paths into 0 survive
    the strong-extender exclusion but collapse to a 3-edge triangle in the
    extension graph.  Colored with t = l, a triangle's largest color class
    has one edge, so s(2l-1) = 3 falls short of |Q_r| = 6 but covers
    |E(H_t)| = 3: color classes cover undirected edges, not ordered paths.
    """
    edges = [(0, 4), (0, 5), (0, 6), (0, 7)]
    edges += [(1, 2), (1, 3), (1, 0), (1, 8)]
    edges += [(2, 1), (2, 3), (2, 0), (2, 9)]
    edges += [(3, 1), (3, 2), (3, 0), (3, 10)]
    for f in (4, 5, 6, 7):
        edges += [(f, 0), (f, 11), (f, 12), (f, 13)]
    for p in (8, 9, 10):
        edges += [(p, 4), (p, 5), (p, 6), (p, 7)]
    edges += [(11, 8), (11, 9), (11, 10), (11, 12)]
    edges += [(12, 8), (12, 9), (12, 10), (12, 13)]
    edges += [(13, 8), (13, 9), (13, 10), (13, 11)]
    return from_pairs(14, edges)


class TestAntiparallelPaths:
    """Opposite-orientation path pairs share one edge of H; the coverage
    check counts those edges, so every check holds and the spider comes out."""

    def test_solves_and_every_check_passes(self):
        g = antiparallel_triangle_instance()
        out = find_spider(g, 2)
        assert verify_spider(g, out.spider, 2) is None
        assert all(c.passed for c in out.trace.checks)
        assert out.trace.root == 0
        assert out.trace.q_size == 6
        # a + c = 7 >= l leaves the solve nothing to color, so color the
        # triangle through the stages with t = l.
        ht, legs = color_class(g, 0, 2)
        s = len(legs)
        assert s == 1
        assert (s * 3, ht.num_edges) == (3, 3)


def few_extenders_instance() -> Digraph:
    """6-out-regular graph whose chosen root 1 has a + c = 2 < l = 3.

    That makes the |Q_r| bound positive, 30 - 2 * 11 = 8 against
    |Q_r| = 17.  On random regular graphs the first candidate almost always
    has a >= l, which rules this out.  Found by local search over edge
    rewirings.
    """
    rows = [
        [3, 4, 7, 9, 10, 14], [2, 3, 4, 5, 6, 8], [1, 3, 8, 11, 12, 13],
        [0, 1, 2, 6, 9, 13], [5, 6, 11, 12, 13, 14], [0, 1, 7, 9, 12, 13],
        [4, 7, 9, 12, 13, 14], [0, 1, 4, 6, 9, 12], [0, 1, 2, 6, 9, 10],
        [0, 3, 5, 11, 13, 14], [1, 4, 7, 8, 9, 14], [1, 2, 4, 7, 12, 14],
        [2, 6, 7, 8, 11, 13], [4, 5, 7, 9, 10, 11], [3, 6, 8, 11, 12, 13],
    ]
    return from_pairs(15, [(v, u) for v, row in enumerate(rows) for u in row])


def color_class(g: Digraph, r: int, ell: int):
    """H_t at root r with t = l, and its largest color class as legs."""
    paths = paths_into(g, r)
    pool = strong_extender_pool(paths, ell, a_in_nbrs(g, r, ell), g.n)
    q = compute_q_paths(paths, pool)
    ht = truncate_for_coloring(build_extension_graph(q), ell, ell)
    cls = largest_color_class(vizing_color(ht)).tolist()
    return ht, {(int(ht.leaf[i]), int(ht.mid[i])) for i in cls}


class TestFewExtenders:
    def test_root_and_bound(self):
        g = few_extenders_instance()
        out = find_spider(g, 3)
        assert verify_spider(g, out.spider, 3) is None
        assert out.trace.root == 1
        assert out.trace.a + out.trace.c == 2 and out.trace.q_size == 17


def shortfall_instance() -> Digraph:
    """4-out-regular graph whose chosen root 0 has a = c = 0 < l = 2.

    The shortfall t = max(0, l - a - c) is l, so the color class supplies
    every leg: H_t is capped at (2l-1)(t-1)+1 = 4 edges, and its largest
    class has s = 2.  The score and |Q_r| bounds are both tight at 12.
    Found by local search over edge rewirings.
    """
    rows = [
        [8, 10, 11, 15], [7, 14, 15, 17], [0, 5, 7, 12], [0, 8, 9, 12],
        [0, 9, 12, 17], [8, 9, 12, 16], [1, 2, 3, 15], [1, 6, 9, 11],
        [0, 1, 3, 17], [1, 10, 13, 17], [2, 5, 6, 13], [0, 7, 15, 16],
        [4, 6, 16, 17], [0, 1, 10, 14], [4, 6, 11, 16], [7, 9, 10, 14],
        [1, 5, 6, 17], [5, 6, 9, 14],
    ]
    return from_pairs(18, [(v, u) for v, row in enumerate(rows) for u in row])


class TestBindingTerm:
    """The color class covers only what the extenders leave short."""

    def test_color_class_supplies_every_leg(self):
        g = shortfall_instance()
        out = find_spider(g, 2)
        assert verify_spider(g, out.spider, 2) is None
        assert out.trace.root == 0
        assert out.trace.a == out.trace.c == 0 and out.trace.q_size == 12
        assert out.trace.shortfall == 2 and out.trace.s >= 2
        _, legs = color_class(g, 0, 2)
        assert set(out.spider.legs) <= legs

    def test_c_extender_supplies_the_last_leg(self):
        # A corpus spec with a = 18 < l <= a + c: t = 0, and the extenders
        # are a_r followed by the first vertex of c_r.
        g = gen_random_out_regular(480, 38, seed=3575540632687644267)
        out = find_spider(g, 19)
        assert verify_spider(g, out.spider, 19) is None
        assert (out.trace.root, out.trace.a, out.trace.c) == (222, 18, 16)
        assert out.trace.shortfall == 0 and out.trace.s == 0
        assert (
            "shortfall t = max(0, l - a - c) = 0: coloring instance truncated "
            "to the 0 edge cap\n" in explain_trace(out.trace)
        )
        pool = strong_extender_pool(
            paths_into(g, 222), 19, a_in_nbrs(g, 222, 19), g.n
        )
        vertices = out.spider.vertices()
        assert set(pool.a_r.tolist()) <= vertices
        assert int(pool.c_r[0]) in vertices


def three_batch_instance() -> Digraph:
    """2-out-regular graph whose root is in the third batch of candidates.

    The first m/4 = 7 edges hit 0, 1, 6, 9, 10, 11 and 12 once each, so
    they are the candidates, by id.  0 scores 0 < 2: its in-neighbors 3
    and 6 are in B, 3 with no in-neighbor and 6 with only 0.  In the
    second batch 6 is in B, and 1 scores 1: its in-neighbors 2, 5 and 6
    are in B, and only 6 has an in-neighbor other than 1.  In the third
    batch 9 has the in-neighbor 0 in A and scores 2, the root.
    """
    rows = [
        [6, 9], [10, 11], [12, 1], [0, 9], [12, 10], [14, 1], [0, 1], [10, 14],
        [14, 12], [10, 12], [11, 7], [12, 13], [11, 10], [14, 8], [11, 12],
    ]
    return from_pairs(15, [(v, u) for v, row in enumerate(rows) for u in row])


def decoy_prefix_instance(k: int) -> Digraph:
    """2-out-regular graph on 4k vertices whose first m/4 edges all point
    into B.

    The k sources 0..k-1 own the first m/4 = 2k edges, one into each decoy
    k..3k-1, and no other edge enters a decoy: their in-degree 1 puts them
    in B, yet they lead the candidate order.  Every other edge goes into
    T = {0..k-1} and {3k..4k-1}, whose members have in-degree 3 on average.
    """
    targets = [*range(k), *range(3 * k, 4 * k)]
    pairs = [(v, k + 2 * v + i) for v in range(k) for i in range(2)]
    for j, v in enumerate(range(k, 4 * k)):
        for step in (0, 3):
            u = targets[(j + step) % (2 * k)]
            pairs.append((v, targets[(j + 5) % (2 * k)] if u == v else u))
    return from_pairs(4 * k, pairs)


class TestRootBatches:
    """The root is the first candidate in A that reaches d^2 - d."""

    def test_later_batch_runs_inside_find_spider(self, batch_sizes):
        g = three_batch_instance()
        out = find_spider(g, 1)
        assert verify_spider(g, out.spider, 1) is None
        assert all(c.passed for c in out.trace.checks)
        assert out.trace.root == 9
        assert batch_sizes == [1, 2, 4]
        # 0 and 1, then 9, 10, 11 and 12.
        assert out.trace.scored == 6
        # At most floor(log2 n) + 1 batches.
        assert len(batch_sizes) <= g.n.bit_length()

    @pytest.mark.parametrize("k", [4, 50])
    def test_prefix_into_b_still_roots_in_a(self, batch_sizes, k):
        # Every decoy is scanned and passed over; the root is in A.
        g = decoy_prefix_instance(k)
        deg = in_degrees(g)
        assert all(deg[v] < 2 for _, v in list(g.edges())[: g.m // 4])
        out = find_spider(g, 1)
        assert verify_spider(g, out.spider, 1) is None
        assert deg[out.trace.root] >= 2
        assert out.trace.root not in range(k, 3 * k)
        assert sum(batch_sizes) > 2 * k
        assert len(batch_sizes) <= g.n.bit_length()


def _low_score(select_root, ell):
    return lambda scores: dataclasses.replace(select_root(scores), score=0)


def _short_q(compute_q_paths, ell):
    def stage(paths, pool):
        q = compute_q_paths(paths, pool)
        d = 2 * ell
        keep = d * d - d - (len(pool.a_r) + len(pool.c_r)) * (4 * ell - 1) - 1
        assert keep >= 0
        return QPaths(q.first[:keep], q.middle[:keep])

    return stage


def _high_degree(build_extension_graph, ell):
    def stage(q):
        h = build_extension_graph(q)
        h.max_degree = 2 * ell - 1
        return h

    return stage


def _wide_palette(vizing_color, ell):
    return lambda h: dataclasses.replace(vizing_color(h), palette=2 * ell)


def _empty_class(largest_color_class, ell):
    return lambda col: largest_color_class(col)[:0]


STAGE_DEFECTS = [
    # stage, defect, the inequality it breaks, instance, l
    ("select_root", _low_score, "score >= d^2 - d",
     lambda: gen_complete_digraph(5), 2),
    ("compute_q_paths", _short_q, "|Q_r| >= d^2 - d - (a+c)(4l-1)",
     few_extenders_instance, 3),
    ("build_extension_graph", _high_degree, "max_deg(H) <= 2l - 2",
     few_extenders_instance, 3),
    ("vizing_color", _wide_palette, "palette <= 2l - 1",
     few_extenders_instance, 3),
    ("largest_color_class", _empty_class, "s(2l-1) >= |E(H_t)|",
     few_extenders_instance, 3),
]


# Every stage find_spider calls between regularizing and verifying.
STAGES = [
    "partition_by_in_degree",
    "score_roots",
    "select_root",
    "strong_extender_pool",
    "compute_q_paths",
    "build_extension_graph",
    "truncate_for_coloring",
    "vizing_color",
    "largest_color_class",
    "greedy_extend",
]


class TestOneEnforcementPoint:
    """Stages only compute; find_spider alone records and enforces the
    proof inequalities, so a defective stage result surfaces there."""

    def test_no_stage_takes_the_mode(self):
        for stage in STAGES:
            params = inspect.signature(getattr(solver, stage)).parameters
            assert not {"checked", "mode"} & set(params), stage

    def test_enough_legs_is_enforced(self, monkeypatch):
        # No extenders and an edgeless H pass every check but the last.
        none = np.empty(0, dtype=np.int64)
        monkeypatch.setattr(
            solver,
            "strong_extender_pool",
            lambda *args: dataclasses.replace(
                strong_extender_pool(*args), a_r=none, c_r=none
            ),
        )
        build_extension_graph = solver.build_extension_graph
        monkeypatch.setattr(
            solver,
            "build_extension_graph",
            lambda q: build_extension_graph(QPaths(q.first[:0], q.middle[:0])),
        )
        with pytest.raises(
            InternalInvariantError,
            match=r"^proof inequality failed: a \+ c \+ s >= l \(0 vs 1\)",
        ):
            find_spider(gen_random_out_regular(30, 2, seed=0), 1)

    def test_coloring_self_check_runs(self, monkeypatch):
        calls = []
        check_proper = edge_coloring._check_proper

        def spied(*args):
            calls.append(args)
            return check_proper(*args)

        monkeypatch.setattr(edge_coloring, "_check_proper", spied)
        out = find_spider(shortfall_instance(), 2)
        assert out.trace.s >= 2
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "stage, defect, check, make_graph, ell",
        STAGE_DEFECTS,
        ids=[row[0] for row in STAGE_DEFECTS],
    )
    def test_defective_stage_is_caught(
        self, monkeypatch, stage, defect, check, make_graph, ell
    ):
        g = make_graph()
        assert all(c.passed for c in find_spider(g, ell).trace.checks)
        monkeypatch.setattr(solver, stage, defect(getattr(solver, stage), ell))
        with pytest.raises(
            InternalInvariantError,
            match="^" + re.escape(f"proof inequality failed: {check} ("),
        ):
            find_spider(g, ell)

    def test_empty_a_class_raises(self, monkeypatch):
        # No candidate, so none shows in-degree 2l on its own scan.
        monkeypatch.setattr(
            solver,
            "partition_by_in_degree",
            lambda g, ell: np.empty(0, dtype=np.int64),
        )
        with pytest.raises(
            InternalInvariantError,
            match="^2l-out-regular graph must contain a high-in-degree vertex$",
        ):
            find_spider(gen_complete_digraph(5), 2)

    def test_leg_through_root_fails_verification(self, monkeypatch):
        # Paths 0 -> 1 -> 0 and 2 -> 3 -> 0 at root 0 touch the root; they
        # color into one class that is the spider.  With the pool emptied
        # t = l, and six copies of each path meet the |Q_r| bound
        # d^2 - d = 12.
        none = np.empty(0, dtype=np.int64)
        monkeypatch.setattr(
            solver,
            "strong_extender_pool",
            lambda *args: dataclasses.replace(
                strong_extender_pool(*args), a_r=none, c_r=none
            ),
        )
        monkeypatch.setattr(
            solver,
            "compute_q_paths",
            lambda paths, pool: QPaths(
                np.array([0, 2] * 6), np.array([1, 3] * 6)
            ),
        )
        g = gen_complete_digraph(5)
        with pytest.raises(
            InternalInvariantError,
            match="^constructed spider failed verification: root 0",
        ):
            find_spider(g, 2)


class TestOneRootView:
    """Every stage after root selection reads one edge scan's 2-paths."""

    @pytest.mark.parametrize(
        "make_graph, ell",
        [
            (lambda: gen_complete_digraph(5), 2),
            (shortfall_instance, 2),
            (three_batch_instance, 1),
        ],
        ids=["k5_antiparallel", "shortfall", "three_batches"],
    )
    def test_root_paths_match_reference(self, monkeypatch, make_graph, ell):
        # Every graph is 2l-out-regular, so the working graph is g itself.
        # The root's batch in three_batch_instance has four members, whose
        # in-neighbors' 2-paths the root must leave out.
        seen = []
        pool = solver.strong_extender_pool

        def spied(paths, ell, a_r, n):
            seen.append((paths, a_r, n))
            return pool(paths, ell, a_r, n)

        monkeypatch.setattr(solver, "strong_extender_pool", spied)
        g = make_graph()
        r = find_spider(g, ell).spider.root
        [((leaf, mid), a_r, n)] = seen
        assert n == g.n
        assert r not in leaf.tolist()
        for got, want in zip((leaf, mid), paths_into(g, r)):
            assert np.array_equal(got, want)
        assert np.array_equal(a_r, a_in_nbrs(g, r, ell))

    @pytest.mark.parametrize(
        "make_graph, ell, shortfall",
        [
            (lambda: gen_random_out_regular(300, 6, seed=3), 3, 0),
            (shortfall_instance, 2, 2),
        ],
        ids=["t0_random", "t_equals_l"],
    )
    def test_extension_keys_run_once(self, monkeypatch, make_graph, ell, shortfall):
        # The strong-extender pool and greedy extension read one O(x, r) sort.
        calls = []
        extension_keys = extenders._extension_keys

        def counted(n, leaf, mid):
            calls.append(n)
            return extension_keys(n, leaf, mid)

        monkeypatch.setattr(extenders, "_extension_keys", counted)
        out = find_spider(make_graph(), ell)
        assert out.trace.shortfall == shortfall
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "make_graph, ell",
        [
            (lambda: gen_random_out_regular(2000, 10, seed=0), 5),
            (lambda: gen_random_out_regular(2000, 10, seed=1), 5),
            (three_batch_instance, 1),
            (lambda: gen_complete_digraph(5), 2),
            (shortfall_instance, 2),
        ],
        ids=["random0", "random1", "three_batches", "greedy", "no_greedy"],
    )
    def test_one_edge_scan_per_batch_plus_one(
        self, monkeypatch, batch_sizes, make_graph, ell
    ):
        """A solve reads tails from the CSR, never the per-edge source
        array, and makes two passes over all m edge heads per scoring batch
        and none after: the pass into the batch, an equality scan for a
        one-vertex batch and a mask gather otherwise, and a gather into the
        in-neighbors of its members, which are the root's 2-paths in the
        last batch.
        """
        g = make_graph()
        assert (g.out_degrees == 2 * ell).all()

        def no_edge_src(self):
            raise AssertionError("a solve read Digraph.edge_src")

        scans = []
        gather = digraph._gather

        def counted(table, idx):
            if idx.shape[0] == g.m:
                scans.append("gather")
            return gather(table, idx)

        class EdgeHeads(np.ndarray):
            """The graph's edge heads, counting each compare against them."""

            def __eq__(self, other):
                if self is heads:
                    scans.append("scan")
                return np.ndarray.__eq__(self, other)

        heads = g.edge_dst.view(EdgeHeads)
        monkeypatch.setattr(g, "_indices", heads)
        monkeypatch.setattr(Digraph, "edge_src", property(no_edge_src))
        monkeypatch.setattr(digraph, "_gather", counted)
        out = find_spider(g, ell)
        assert verify_spider(g, out.spider, ell) is None
        assert batch_sizes
        # A one-vertex batch, the first one included, makes no gather.
        per_batch = [
            ["scan" if size == 1 else "gather", "gather"] for size in batch_sizes
        ]
        assert scans == sum(per_batch, [])


class TestExplainTrace:
    def test_pass_lines(self):
        out = find_spider(gen_complete_digraph(5), 2)
        text = explain_trace(out.trace)
        assert "score >= d^2 - d: 16 >= 12 PASS" in text
        assert "greedy extension added 2 legs" in text
        assert "FAIL" not in text

    def test_skip_note_when_base_suffices(self):
        g = shortfall_instance()
        out = find_spider(g, 2)
        text = explain_trace(out.trace)
        assert out.trace.s >= 2
        assert "greedy extension skipped (s >= l)" in text
        assert "truncated" in text
