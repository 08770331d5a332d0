import pytest
from hypothesis import given
from hypothesis import strategies as st

from spiderfind import (
    Spider,
    SpiderFormatError,
    ViolationKind,
    format_spider,
    gen_complete_digraph,
    parse_edge_list,
    parse_spider,
    verify_spider,
)
from strategies import digraphs

TRIANGLE = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")


class TestVerify:
    def test_ok_in_complete(self):
        g = gen_complete_digraph(3)
        assert verify_spider(g, Spider(0, ((2, 1),)), 1) is None

    def test_leaf_equals_middle(self):
        g = gen_complete_digraph(3)
        report = verify_spider(g, Spider(0, ((1, 1),)), 1)
        assert report is not None
        assert report.kind is ViolationKind.REPEATED_VERTEX
        assert str(report) == "vertex 1 appears more than once"

    def test_triangle_path(self):
        # 1 -> 2 -> 0 is one of the triangle's two simple 2-paths into 0.
        assert verify_spider(TRIANGLE, Spider(0, ((1, 2),)), 1) is None
        # The reversed leg does not exist in the cycle orientation.
        assert verify_spider(TRIANGLE, Spider(0, ((2, 1),)), 1) is not None

    @pytest.mark.parametrize("ell", [0, -1])
    def test_ell_below_one_rejected(self, ell):
        # A bare root used to pass as a "(2,0)-spider" and -1 legs as a
        # wrong leg count; l < 1 names no spider at all.
        with pytest.raises(ValueError, match="^ell must be >= 1$"):
            verify_spider(TRIANGLE, Spider(99), ell)

    def test_wrong_leg_count(self):
        g = gen_complete_digraph(5)
        report = verify_spider(g, Spider(0, ((1, 2),)), 2)
        assert report.kind is ViolationKind.WRONG_LEG_COUNT

    def test_root_in_leg(self):
        g = gen_complete_digraph(5)
        report = verify_spider(g, Spider(0, ((0, 1), (2, 3))), 2)
        assert report.kind is ViolationKind.ROOT_IN_LEG

    def test_repeated_across_legs(self):
        g = gen_complete_digraph(7)
        report = verify_spider(g, Spider(0, ((1, 2), (3, 2))), 2)
        assert report.kind is ViolationKind.REPEATED_VERTEX
        assert str(report) == "vertex 2 appears more than once"

    def test_missing_edge_detail(self):
        g = parse_edge_list("4 2\n1 2\n3 0\n")
        report = verify_spider(g, Spider(0, ((1, 2),)), 1)
        assert report.kind is ViolationKind.MISSING_EDGE
        assert str(report) == "edge 2 -> 0 not in graph"

    def test_check_order_leg_count_first(self):
        g = gen_complete_digraph(3)
        report = verify_spider(g, Spider(0, ((1, 1),)), 5)
        assert report.kind is ViolationKind.WRONG_LEG_COUNT

    def test_verifier_is_pure(self):
        g = gen_complete_digraph(5)
        s = Spider(0, ((1, 2), (3, 4)))
        assert verify_spider(g, s, 2) == verify_spider(g, s, 2)

    def test_order_insensitive(self):
        g = gen_complete_digraph(5)
        assert verify_spider(g, Spider(0, ((1, 2), (3, 4))), 2) is None
        assert verify_spider(g, Spider(0, ((3, 4), (1, 2))), 2) is None

    @given(digraphs(max_n=6), st.integers(1, 3))
    def test_small_graphs_cannot_hide_big_spiders(self, g, ell):
        # Fewer than 2*ell+1 vertices can never support ell disjoint legs;
        # the exhaustive oracle confirms none exists at any root.
        from spiderfind import has_spider_bruteforce

        if g.n >= 2 * ell + 1:
            return
        assert has_spider_bruteforce(g, ell).exists is False

    @given(digraphs(max_n=5), st.data())
    def test_verifier_total_on_arbitrary_certificates(self, g, data):
        # Any (root, legs) input yields ok or a report, never an exception,
        # for every l >= 1; l = 0 is rejected whatever the certificate.
        root = data.draw(st.integers(-1, g.n))
        legs = data.draw(
            st.lists(
                st.tuples(st.integers(-1, g.n), st.integers(-1, g.n)),
                max_size=4,
            )
        )
        ell = data.draw(st.integers(0, 4))
        if ell == 0:
            with pytest.raises(ValueError, match="ell must be >= 1"):
                verify_spider(g, Spider(root, tuple(legs)), ell)
            return
        report = verify_spider(g, Spider(root, tuple(legs)), ell)
        if report is None:
            assert len(legs) == ell


class TestOrder:
    def test_zero_legs(self):
        assert len(Spider(0).vertices()) == 1

    def test_four_legs_is_nine(self):
        s = Spider(0, ((1, 2), (3, 4), (5, 6), (7, 8)))
        assert len(s.vertices()) == 9

    @given(st.integers(0, 60))
    def test_formula(self, ell):
        legs = tuple((2 * i + 1, 2 * i + 2) for i in range(ell))
        assert len(Spider(0, legs).vertices()) == 2 * ell + 1


class TestText:
    def test_round_trip(self):
        s = Spider(7, ((1, 2), (3, 4)))
        assert parse_spider(format_spider(s)) == s

    def test_format(self):
        assert format_spider(Spider(2, ((0, 1),))) == "root 2\n0 1\n"

    def test_parse_errors(self):
        with pytest.raises(SpiderFormatError):
            parse_spider("")
        with pytest.raises(SpiderFormatError):
            parse_spider("r 2\n")
        with pytest.raises(SpiderFormatError) as exc:
            parse_spider("root 2\n1 2 3\n")
        assert exc.value.line == 2
        with pytest.raises(SpiderFormatError, match="root id must be an integer"):
            parse_spider("root 1_0\n")
        with pytest.raises(SpiderFormatError, match="two integers") as exc:
            parse_spider("root 2\n\n+1 3\n")
        assert exc.value.line == 3
