import dataclasses
import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings

import spiderfind.edge_coloring as edge_coloring
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
from spiderfind.extenders import ExtenderPool
from spiderfind.root_selection import QPaths
from reference import from_pairs
from strategies import min_out_degree_digraphs, out_regular_digraphs

TRIANGLE = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")


class TestFindSpider:
    def test_k3_ell_one(self):
        g = gen_complete_digraph(3)
        out = find_spider(g, 1)
        assert verify_spider(g, out.spider, 1) is None
        assert out.spider.root == 0

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
        for value in (t.d, t.root, t.a, t.c, t.s, t.q_size, t.vb_r):
            assert type(value) is int
        for chk in t.checks:
            assert type(chk.lhs) is int and type(chk.rhs) is int

    def test_truncated_run_records_coverage_check(self):
        g = gen_random_out_regular(200, 10, seed=3)
        out = find_spider(g, 5)
        assert out.trace.truncated
        coverage = [c for c in out.trace.checks if c.name == "s(2l-1) >= |E(H_t)|"]
        # H_t holds exactly the cap (2l-1)(l-1)+1 = 37 edges.
        assert [(c.lhs, c.rhs, c.passed) for c in coverage] == [
            (9 * out.trace.s, 37, True)
        ]
        assert (
            "coloring instance was truncated to the (2l-1)(l-1)+1 cap\n"
            in explain_trace(out.trace)
        )
        assert verify_spider(g, out.spider, 5) is None

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
    extension graph.  A triangle's largest color class has one edge, so
    s(2l-1) = 3 falls short of |Q_r| = 6 but covers |E(H_t)| = 3: color
    classes cover undirected edges, not ordered paths.
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
        assert out.trace.q_size == 6 and out.trace.s == 1
        coverage = [c for c in out.trace.checks if c.name == "s(2l-1) >= |E(H_t)|"]
        assert [(c.lhs, c.rhs) for c in coverage] == [(3, 3)]


def few_extenders_instance() -> Digraph:
    """6-out-regular graph whose chosen root 5 has a + c = 2 < l = 3.

    That makes the |Q_r| bound positive, 30 - 2 * 11 = 8 against
    |Q_r| = 19.  On random regular graphs the first candidate by in-degree
    almost always has a >= l, which rules this out.  Found by local search
    over edge rewirings.
    """
    rows = [
        [1, 6, 7, 8, 11, 12], [2, 5, 9, 10, 11, 14], [1, 5, 8, 9, 10, 12],
        [0, 4, 8, 9, 12, 13], [0, 1, 3, 5, 12, 14], [1, 2, 6, 7, 12, 13],
        [0, 1, 7, 9, 13, 14], [1, 5, 10, 11, 12, 13], [0, 2, 5, 6, 9, 12],
        [0, 3, 6, 7, 10, 11], [1, 2, 5, 6, 9, 12], [0, 1, 3, 5, 7, 9],
        [2, 3, 6, 7, 8, 14], [0, 4, 5, 6, 7, 9], [0, 4, 5, 6, 9, 12],
    ]
    return from_pairs(15, [(v, u) for v, row in enumerate(rows) for u in row])


class TestFewExtenders:
    def test_root_and_bound(self):
        g = few_extenders_instance()
        out = find_spider(g, 3)
        assert verify_spider(g, out.spider, 3) is None
        assert out.trace.root == 5
        assert out.trace.a + out.trace.c == 2 and out.trace.q_size == 19


def three_batch_instance() -> Digraph:
    """2-out-regular graph whose first three root candidates score 0 < 2.

    The hubs 0, 1, 2 have in-degree 3, the highest, and are fed only by the
    sources 3..7 of in-degree 0, so they have no A in-neighbor and no 2-path
    through B.  The hubs point into 8..14, which also have in-degree 3 and
    an in-neighbor in A, so the third batch, 8..11, holds the root 8.
    """
    rows = [
        [8, 9], [10, 11], [12, 13], [0, 1], [0, 2], [1, 2], [0, 1], [2, 8],
        [9, 14], [10, 14], [11, 14], [12, 13], [13, 9], [8, 10], [11, 12],
    ]
    return from_pairs(15, [(v, u) for v, row in enumerate(rows) for u in row])


class TestRootBatches:
    """The root is the first candidate, by in-degree, that reaches d^2 - d."""

    def test_later_batch_runs_inside_find_spider(self, batch_sizes):
        g = three_batch_instance()
        out = find_spider(g, 1)
        assert verify_spider(g, out.spider, 1) is None
        assert all(c.passed for c in out.trace.checks)
        assert out.trace.root == 8
        assert batch_sizes == [1, 2, 4]
        a_size = int((g.in_degrees >= 2).sum())
        assert a_size == 10
        # At most floor(log2 |A|) + 1 batches.
        assert len(batch_sizes) <= a_size.bit_length()


def _low_score(select_root, ell):
    return lambda scores: dataclasses.replace(select_root(scores), score=0)


def _short_q(compute_q_paths, ell):
    def stage(paths, a_mask, pool):
        q = compute_q_paths(paths, a_mask, pool)
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
     lambda: gen_random_out_regular(18, 4, seed=1), 2),
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
            lambda paths, ell, a_mask: ExtenderPool(a_r=none, c_r=none),
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
        out = find_spider(gen_random_out_regular(200, 10, seed=3), 5)
        assert out.trace.s >= 5
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
        monkeypatch.setattr(
            solver,
            "partition_by_in_degree",
            lambda g, ell: np.zeros(g.n, dtype=bool),
        )
        with pytest.raises(
            InternalInvariantError,
            match="^2l-out-regular graph must contain a high-in-degree vertex$",
        ):
            find_spider(gen_complete_digraph(5), 2)

    def test_leg_through_root_fails_verification(self, monkeypatch):
        # Paths 0 -> 1 -> 0 and 2 -> 3 -> 0 at root 0 touch the root and
        # strong extenders; they color into one class that is the spider.
        monkeypatch.setattr(
            solver,
            "compute_q_paths",
            lambda paths, a_mask, pool: QPaths(np.array([0, 2]), np.array([1, 3])),
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
        "make_graph, ell, added",
        [
            (lambda: gen_complete_digraph(5), 2, 2),
            (lambda: gen_random_out_regular(200, 10, seed=3), 5, 0),
        ],
        ids=["greedy", "no_greedy"],
    )
    def test_two_paths_into_runs_once(self, monkeypatch, make_graph, ell, added):
        roots = []
        two_paths_into = Digraph.two_paths_into

        def counted(g, r):
            roots.append(r)
            return two_paths_into(g, r)

        monkeypatch.setattr(Digraph, "two_paths_into", counted)
        out = find_spider(make_graph(), ell)
        assert max(ell - out.trace.s, 0) == added
        assert roots == [out.spider.root]


class TestExplainTrace:
    def test_pass_lines(self):
        out = find_spider(gen_complete_digraph(5), 2)
        text = explain_trace(out.trace)
        assert "score >= d^2 - d: 16 >= 12 PASS" in text
        assert "greedy extension added 2 legs" in text
        assert "FAIL" not in text

    def test_skip_note_when_base_suffices(self):
        g = gen_random_out_regular(200, 10, seed=3)
        out = find_spider(g, 5)
        text = explain_trace(out.trace)
        assert out.trace.s >= 5
        assert "greedy extension skipped (s >= l)" in text
        assert "truncated" in text
