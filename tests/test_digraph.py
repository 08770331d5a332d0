import hashlib
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spiderfind import (
    Digraph,
    EdgeListError,
    PreconditionOutDegree,
    find_spider,
    gen_complete_digraph,
    gen_random_out_regular,
    gen_regular_tournament,
    min_out_degree,
    parse_edge_list,
    write_edge_list,
)
from reference import (
    NOT_LINE_ENDS,
    brute_in_neighbors,
    from_pairs,
    in_degrees,
    reference_gen_random_out_regular,
    reference_parse_edge_list,
    reference_write_edge_list,
)
from spiderfind.digraph import (
    _GATHER_CHUNK,
    _bincount,
    _duplicate_rows,
    _gather,
    extract_exact_outdegree_subgraph,
)
from strategies import digraphs
from tracing import traced_peak

# Vertex counts where the widest id gains a digit, and a few between.
_DIGIT_BOUNDARY_NS = [1, 9, 10, 11, 100, 101, 1000, 1001, 100_000, 100_001]


# Graphs with out-degree-0 vertices at the first, a middle and the last id,
# a run of them, and no edges at all.
_EMPTY_ROW_GRAPHS = {
    "first": (5, [(1, 2), (1, 0), (2, 1), (3, 4), (4, 1), (4, 0)]),
    "middle": (5, [(0, 1), (0, 4), (1, 0), (1, 2), (3, 4), (4, 2)]),
    "last": (5, [(0, 1), (1, 4), (2, 0), (3, 0), (3, 4), (3, 2)]),
    "run": (6, [(0, 5), (0, 3), (5, 0), (5, 2)]),
    "no_edges": (4, []),
}


@st.composite
def text_graphs(draw, max_n: int = 100_001):
    """Graphs with no edges, a few edges anywhere, or d out-edges each."""
    n = draw(
        st.sampled_from([k for k in _DIGIT_BOUNDARY_NS if k <= max_n])
        | st.integers(1, max_n)
    )
    kind = draw(st.sampled_from(["empty", "sparse", "regular"]))
    if kind == "regular" and n <= 2000:
        d = draw(st.integers(0, min(n - 1, 6)))
        return gen_random_out_regular(n, d, draw(st.integers(0, 2**31 - 1)))
    if kind == "empty" or n == 1:
        return from_pairs(n, [])
    ids = st.integers(0, n - 1)
    pairs = draw(
        st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                 max_size=12, unique=True)
    )
    return from_pairs(n, pairs)


def _mutate(text: str, kind: str, data) -> str:
    """One edit of canonical edge-list text; `data` draws where it lands.

    Edits of an edge line leave text without edges unchanged.
    """
    lines = text.split("\n")[:-1]
    n, m = map(int, lines[0].split())
    i = data.draw(st.integers(0, m), label="line")
    j = data.draw(st.integers(1, m), label="edge") if m else None
    u, _, v = lines[i].partition(" ")
    if kind == "comment":
        lines.insert(i, "# comment")
    elif kind == "blank":
        lines.insert(i, "")
    elif kind == "crlf":
        lines[i] += "\r"
    elif kind == "tab":
        lines[i] = f"{u}\t{v}"
    elif kind == "double_space":
        lines[i] = f"{u}  {v}"
    elif kind == "leading_zero":
        lines[i] = f"0{u} {v}"
    elif kind == "missing_token":
        lines[i] = f"{u} "
    elif kind == "eleven_digits":
        lines[i] = f"{u} {v.zfill(11)}"
    elif kind == "no_final_newline":
        return "\n".join(lines)
    elif kind == "huge_header":
        lines[0] = f"{2**31 + 1} {m}"
    elif kind == "unicode_space":
        lines[i] = f"{u}{data.draw(st.sampled_from(_UNICODE_SPACES), label='ch')}{v}"
    elif kind == "ascii_blank":
        lines[i] = f"{u}{data.draw(st.sampled_from(_ASCII_BLANKS), label='ch')}{v}"
    elif kind == "char_in_token":
        lines[i] = f"{u} {v}{data.draw(st.sampled_from(_TOKEN_BREAKERS), label='ch')}0"
    elif kind == "plus_sign":
        lines[i] = f"{u} +{v}"
    elif kind == "lone_cr":
        return "\r".join(lines) + "\r"
    elif kind == "indented_comment":
        lines.insert(i, "   # comment")
    elif kind == "hash_mid_line":
        lines[i] = f"{u} {v} # comment"
    elif kind == "minus_sign":
        # "-0" reads as 0; any other negative id is out of range.
        lines[i] = f"-{u} {v}"
    elif kind == "twenty_digits":
        lines[i] = f"{u} {v.zfill(20)}"
    elif kind == "beyond_int64":
        lines[i] = f"{u} 1{v.zfill(19)}"
    elif kind == "edge_too_few":
        lines[0] = f"{n} {m + 1}"
    elif j is None:
        pass
    elif kind == "edge_too_many":
        lines[0] = f"{n} {m - 1}"
    elif kind == "duplicate_edge":
        lines.insert(j, lines[j])
        lines[0] = f"{n} {m + 1}"
    elif kind == "self_loop":
        src = lines[j].split()[0]
        lines[j] = f"{src} {src}"
    elif kind == "out_of_range":
        src = lines[j].split()[0]
        lines[j] = f"{src} {n + data.draw(st.integers(0, 3), label='excess')}"
    return "\n".join(lines) + "\n"


_MUTATIONS = [
    "none", "comment", "blank", "crlf", "tab", "double_space",
    "leading_zero", "missing_token", "eleven_digits", "no_final_newline",
    "huge_header", "edge_too_few", "edge_too_many", "duplicate_edge",
    "self_loop", "out_of_range", "unicode_space", "ascii_blank",
    "char_in_token", "plus_sign", "lone_cr", "indented_comment",
    "hash_mid_line", "minus_sign", "twenty_digits", "beyond_int64",
]

# Separators str.split() accepts beyond ' ', '\t' and '\n'; none ends a line.
_UNICODE_SPACES = ["\xa0", "\u2028", "\u3000", "\x85"]
_ASCII_BLANKS = ["\f", "\v", "\x1c"]
# Characters that make a token fail -?[0-9]+, though int() takes some of
# them: a lone surrogate (an undecodable byte), a non-ASCII digit, a digit
# separator and NUL.
_TOKEN_BREAKERS = ["\udc80", "\u0663", "_", "\x00"]


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except EdgeListError as exc:
        return (exc.line, str(exc))


# Pieces of edge-list text: the spellings of _MUTATIONS, signs, long
# tokens, and header and edge lines.
_PIECES = [
    " ", "  ", "\t", "\n", "\r\n", "\r", "#", "  #", "+1", "1_0", "-", "-0", "-1",
    "0", "1", "2", "007", "9" * 20, "0" * 19 + "1", "-" + "9" * 20,
    "3 2\n", "0 1\n", "1 2\n", "2 0\n", "1 0\n", "# c\n",
    *_UNICODE_SPACES, *_ASCII_BLANKS, *_TOKEN_BREAKERS,
]


def parse_checked(text: str) -> Digraph:
    """parse_edge_list(text), once its graph or its error's (line, message)
    is seen to equal the reference parser's.
    """
    expected = _parse_outcome(reference_parse_edge_list, text)
    assert _parse_outcome(parse_edge_list, text) == expected
    return parse_edge_list(text)


def out_rows(g: Digraph) -> list[np.ndarray]:
    """Each vertex's out-neighbours, cut from edge_dst by the out-degrees."""
    return np.split(g.edge_dst, np.cumsum(g.out_degrees)[:-1])


def assert_edges_into(g: Digraph, mask: np.ndarray) -> None:
    """edges_into(heads) lists the edges into the mask's vertices in edge
    order, with the tails `edge_src` holds.
    """
    tail, head = g.edges_into(np.flatnonzero(mask))
    assert tail.dtype == head.dtype == np.int32
    e = np.flatnonzero(mask[g.edge_dst])
    assert np.array_equal(tail, g.edge_src[e])
    assert np.array_equal(head, g.edge_dst[e])


def in_nbr_mask(g: Digraph, v: int) -> np.ndarray:
    """N^-(v) as a boolean mask over [0, n), by scanning every edge."""
    mask = np.zeros(g.n, dtype=bool)
    mask[brute_in_neighbors(g, v)] = True
    return mask


def assert_mirror_consistent(g: Digraph) -> None:
    """edges_into(N^-(v)), the edges of the 2-paths into v, agrees with
    edge scans at every vertex v.
    """
    for v in range(g.n):
        assert_edges_into(g, in_nbr_mask(g, v))
    assert g.m == len(set(g.edges()))


class TestParse:
    def test_triangle(self):
        g = parse_checked("3 3\n0 1\n1 2\n2 0\n")
        assert g.n == 3 and g.m == 3
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 0)]
        assert_mirror_consistent(g)

    def test_antiparallel_pair_accepted(self):
        g = parse_checked("2 2\n0 1\n1 0\n")
        assert g.m == 2
        assert set(g.edges()) == {(0, 1), (1, 0)}

    def test_duplicate_edge_rejected_with_line(self):
        with pytest.raises(EdgeListError) as exc:
            parse_checked("2 2\n0 1\n0 1\n")
        assert exc.value.line == 3
        assert "duplicate" in str(exc.value)

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListError) as exc:
            parse_checked("2 1\n1 1\n")
        assert exc.value.line == 2

    def test_vertex_out_of_range(self):
        with pytest.raises(EdgeListError) as exc:
            parse_checked("2 1\n0 5\n")
        assert exc.value.line == 2

    def test_malformed_header(self):
        with pytest.raises(EdgeListError) as exc:
            parse_checked("banana\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "1.0", "--1", "0x1"])
    def test_only_ascii_decimal_tokens(self, token):
        # Python's int() accepts the first three.
        with pytest.raises(EdgeListError, match="edge line must be two integers") as exc:
            parse_checked(f"# c\n12 1\n0 {token}\n")
        assert exc.value.line == 3
        with pytest.raises(EdgeListError, match="header must be two integers") as exc:
            parse_checked(f"{token} 0\n")
        assert exc.value.line == 1

    @given(
        st.text(
            alphabet=st.one_of(st.sampled_from("0123456789-+_"), st.characters()),
            min_size=1,
            max_size=5,
        )
    )
    def test_token_rule_matches_regex(self, token):
        assume(not any(ch.isspace() for ch in token))
        try:
            parse_checked(f"12 1\n0 {token}\n")
            rejected = False
        except EdgeListError as exc:
            rejected = "two integers" in str(exc)
        assert rejected == (re.fullmatch(r"-?[0-9]+", token) is None)

    def test_header_beyond_int32_ids(self):
        with pytest.raises(EdgeListError, match="int32") as exc:
            parse_checked("9223372036854775808 0\n")
        assert exc.value.line == 1

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListError):
            parse_checked("3 2\n0 1\n")
        with pytest.raises(EdgeListError):
            parse_checked("3 1\n0 1\n1 2\n")

    def test_comments_and_blanks_skipped_in_line_numbers(self):
        g = parse_checked("# a comment\n3 2\n\n0 1\n1 2\n")
        assert g.m == 2
        with pytest.raises(EdgeListError) as exc:
            parse_checked("# a comment\n2 2\n0 1\n0 1\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize("ch", NOT_LINE_ENDS)
    def test_comment_runs_to_the_line_end(self, ch):
        g = parse_checked(f"# c{ch}more\n2 2\n0 1\n1 0\n")
        assert g == parse_checked("2 2\n0 1\n1 0\n")
        with pytest.raises(EdgeListError, match="duplicate") as exc:
            parse_checked(f"# c{ch}more\n2 2\n0 1\n0 1\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_end_lines(self, newline):
        g = parse_checked(newline.join(["# c", "2 2", "0 1", "1 0", ""]))
        assert g == parse_checked("2 2\n0 1\n1 0\n")
        with pytest.raises(EdgeListError, match="duplicate") as exc:
            parse_checked(newline.join(["# c", "2 2", "0 1", "0 1", ""]))
        assert exc.value.line == 4

    def test_empty_graph(self):
        g = parse_checked("1 0\n")
        assert g.n == 1 and g.m == 0
        for n in (0, 1, 10):
            assert write_edge_list(parse_checked(f"{n} 0\n")) == f"{n} 0\n"

    @given(digraphs())
    def test_round_trip(self, g):
        again = parse_checked(write_edge_list(g))
        assert again == g


class TestWrite:
    @given(text_graphs())
    def test_matches_reference_writer(self, g):
        assert write_edge_list(g) == reference_write_edge_list(g)

    @pytest.mark.parametrize("n", [0, 1_000_000, 1_000_001])
    def test_wide_ids(self, n):
        # Ids of 1, 2, 5 and 6 digits, and n - 1 (7 digits at n = 1000001),
        # each both a source and a destination; n = 0 writes "0 0\n".
        ids = sorted({v for v in (0, 9, 10, 99_999, 999_999, n - 1) if 0 <= v < n})
        pairs = list(zip(ids, ids[1:])) + list(zip(ids[1:], ids))
        g = from_pairs(n, pairs)
        assert write_edge_list(g) == reference_write_edge_list(g)

    @pytest.mark.parametrize("name", list(_EMPTY_ROW_GRAPHS))
    def test_reads_sources_from_the_csr_rows(self, name, monkeypatch):
        n, pairs = _EMPTY_ROW_GRAPHS[name]
        g = from_pairs(n, pairs)
        expected = reference_write_edge_list(g)
        monkeypatch.setattr(
            Digraph, "edge_src", property(lambda _: pytest.fail("built edge_src"))
        )
        text = write_edge_list(g)
        assert text == expected
        assert parse_edge_list(text) == g


class TestCanonicalParse:
    @settings(max_examples=500)
    @given(text_graphs(max_n=200), st.sampled_from(_MUTATIONS), st.data())
    def test_agrees_with_line_parser(self, g, kind, data):
        text = _mutate(write_edge_list(g), kind, data)
        expected = _parse_outcome(reference_parse_edge_list, text)
        assert _parse_outcome(parse_edge_list, text) == expected
        if kind == "none":
            assert expected == g

    @settings(max_examples=400)
    @given(
        st.sampled_from(["", "3 3\n", "3 2\n"]),
        st.lists(st.sampled_from(_PIECES), max_size=16),
    )
    def test_piece_texts_agree_with_line_parser(self, header, pieces):
        text = header + "".join(pieces)
        expected = _parse_outcome(reference_parse_edge_list, text)
        assert _parse_outcome(parse_edge_list, text) == expected

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("3 1\n-99999999999999999999 1\n", 2,
             "vertex -99999999999999999999 out of range [0, 3)"),
            ("3 1\n0 -99999999999999999999\n", 2,
             "vertex -99999999999999999999 out of range [0, 3)"),
            ("3 1\n99999999999999999999 1\n", 2,
             "vertex 99999999999999999999 out of range [0, 3)"),
            ("3 1\n0 99999999999999999999\n", 2,
             "vertex 99999999999999999999 out of range [0, 3)"),
            ("99999999999999999999 0\n", 1,
             "vertex count 99999999999999999999 exceeds the int32 id range"),
            ("-99999999999999999999 0\n", 1, "header values must be non-negative"),
            ("3 99999999999999999999\n0 1\n", 1,
             "expected 99999999999999999999 edges, found 1"),
        ],
    )
    def test_tokens_beyond_int64_keep_their_value(self, text, line, message):
        # np.fromstring saturates such tokens; messages print the token's int.
        expected = (line, f"line {line}: {message}")
        assert _parse_outcome(reference_parse_edge_list, text) == expected
        assert _parse_outcome(parse_edge_list, text) == expected

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_tokens_at_int_digit_limit(self, sign, extra):
        # int() reads at most sys.get_int_max_str_digits() digits, leading
        # zeros included; past that a token is not an integer.
        token = sign + "0" * (sys.get_int_max_str_digits() - 1 + extra) + "1"
        for text in (f"3 1\n0 {token}\n", f"3 1\n{token} 0\n"):
            expected = _parse_outcome(reference_parse_edge_list, text)
            assert _parse_outcome(parse_edge_list, text) == expected

    def test_empty_tokens_are_not_read_as_arrays(self):
        # One space and one newline per line, and 2 + 2m tokens in all, but
        # the header line has one token: read as a token stream, this would
        # be the graph 0 -> 1, 2 -> 0.
        with pytest.raises(EdgeListError, match="header must be 'n m'") as exc:
            parse_checked("3 \n2 0\n1 2\n 0\n")
        assert exc.value.line == 1


def repeated_last_edge(g: Digraph) -> tuple[str, str]:
    """The text of g with its first edge repeated as the last line and m
    raised to match, and the error that the repeat raises.
    """
    header, body = write_edge_list(g).split("\n", 1)
    first = body.split("\n", 1)[0]
    u, v = first.split()
    text = f"{g.n} {g.m + 1}\n{body}{first}\n"
    return text, f"line {g.m + 2}: duplicate directed edge {u} -> {v}"


class TestTracedPeaks:
    """Traced peaks of one parse of 200k edges (n = 4000, d = 50), per byte
    of text.  Both texts measured 5.45 with Python 3.11 and numpy 2.4; the
    bounds add 10%.  With the line parser as fallback, the repeated-edge
    text peaked at 19.1, and the canonical text at 6.08.
    """

    GRAPH = gen_random_out_regular(4000, 50, seed=1)
    BOUND = 6.0

    def test_canonical_text(self):
        text = write_edge_list(self.GRAPH)
        g, peak = traced_peak(lambda: parse_edge_list(text))
        assert g == self.GRAPH == reference_parse_edge_list(text)
        assert peak / len(text) <= self.BOUND

    def test_last_line_repeats_an_edge(self):
        text, message = repeated_last_edge(self.GRAPH)
        outcome, peak = traced_peak(lambda: _parse_outcome(parse_edge_list, text))
        assert outcome == (self.GRAPH.m + 2, message)
        assert outcome == _parse_outcome(reference_parse_edge_list, text)
        assert peak / len(text) <= self.BOUND


class TestComplete:
    def test_two_vertices(self):
        g = gen_complete_digraph(2)
        assert sorted(g.edges()) == [(0, 1), (1, 0)]
        assert all(d == 1 for d in g.out_degrees)
        assert all(d == 1 for d in in_degrees(g))

    def test_five_vertices(self):
        g = gen_complete_digraph(5)
        assert g.m == 20
        assert all(d == 4 for d in g.out_degrees)

    def test_single_vertex(self):
        g = gen_complete_digraph(1)
        assert g.n == 1 and g.m == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            gen_complete_digraph(0)

    def test_mirror_consistency(self):
        assert_mirror_consistent(gen_complete_digraph(6))
        assert_mirror_consistent(gen_regular_tournament(7, seed=3))


@st.composite
def out_regular_specs(draw):
    """(n, d, seed) with n <= 300; d leans to 0, 1, n - 2, n - 1 and the
    last rejection and first dense out-degree, d^2 <= 3(n - 1) < (d + 1)^2.
    """
    n = draw(st.integers(1, 300))
    edge = math.isqrt(3 * (n - 1))
    special = [d for d in (0, 1, n - 2, n - 1, edge, edge + 1) if 0 <= d < n]
    d = draw(st.sampled_from(special) | st.integers(0, n - 1))
    return n, d, draw(st.integers(0, 2**64 - 1))


class TestRandomOutRegular:
    def test_forced_complete(self):
        assert gen_random_out_regular(5, 4, seed=9) == gen_complete_digraph(5)

    def test_deterministic_and_regular(self):
        g1 = gen_random_out_regular(100, 6, seed=7)
        g2 = gen_random_out_regular(100, 6, seed=7)
        assert g1 == g2
        assert g1.m == 600
        assert min_out_degree(g1) == 6

    def test_different_seeds_differ(self):
        assert gen_random_out_regular(60, 5, seed=1) != gen_random_out_regular(
            60, 5, seed=2
        )

    def test_rows_distinct_and_no_self(self):
        # Exercise both sampling regimes and out-degrees 0 and 1.
        for n, d in [(200, 3), (30, 20), (12, 10), (1, 0), (2, 0), (7, 0), (50, 1)]:
            g = gen_random_out_regular(n, d, seed=5)
            for v, row in enumerate(out_rows(g)):
                row = row.tolist()
                assert len(row) == d
                assert len(set(row)) == d
                assert v not in row
            assert_mirror_consistent(g)

    def test_d_too_large(self):
        with pytest.raises(ValueError):
            gen_random_out_regular(3, 3, seed=0)

    @given(out_regular_specs())
    @example((1, 0, 0))
    @example((300, 0, 1))
    @example((300, 1, 2))
    @example((13, 6, 5))
    @example((13, 7, 5))
    @example((300, 298, 3))
    def test_matches_reference(self, spec):
        assert gen_random_out_regular(*spec) == reference_gen_random_out_regular(*spec)

    def test_two_block_dense_matches_reference(self):
        # 2,499 choices per row: blocks of 1,600 and 900 rows.
        assert gen_random_out_regular(2500, 100, 4) == reference_gen_random_out_regular(
            2500, 100, 4
        )


# sha256 of edge_dst.tobytes().  The acceptance corpus stops at n = 2,000,
# so these pin large-n rejection, multi-block dense and int32-pool draws.
@pytest.mark.parametrize(
    "n, d, seed, digest",
    [
        (100000, 50, 1, "1390f849cb3f057722c4a80f7ed7d3115d4c60492c731f3aff64978b9043cd52"),
        (20000, 54, 7, "59b3d21dfae08d0620e066ca74497391a072ee52c3a178ca5fbe9067c8be706a"),
        (2000, 100, 3, "5450faea42619b48fc79089df088d6feba5dbdecfbe852b09919942e57abddbf"),
        (32769, 315, 4, "f2311189ab1b3c9760e5dcde8123728ac1952d65c722cfbda536007f18205801"),
    ],
)
def test_random_out_regular_stream_pinned(n, d, seed, digest):
    g = gen_random_out_regular(n, d, seed)
    assert hashlib.sha256(g.edge_dst.tobytes()).hexdigest() == digest


class TestDuplicateRows:
    def test_rows_with_a_repeat_flagged(self):
        mat = np.array([[1, 2, 3], [4, 4, 5], [6, 7, 6], [9, 9, 9]], dtype=np.int32)
        assert _duplicate_rows(mat).tolist() == [False, True, True, True]

    def test_value_shared_across_a_row_end_is_clean(self):
        # Sorted and flattened, row 0 ends in 3 and row 1 starts with 3.
        mat = np.array([[3, 1], [5, 3]], dtype=np.int32)
        assert not _duplicate_rows(mat).any()

    def test_single_column_never_flagged(self):
        assert not _duplicate_rows(np.full((4, 1), 7, dtype=np.int32)).any()

    def test_zero_columns(self):
        # The suite turns warnings into errors.
        assert _duplicate_rows(np.zeros((5, 0), dtype=np.int32)).tolist() == [False] * 5

    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    def test_matches_row_sets(self, rows, d, data):
        cells = data.draw(st.lists(st.integers(0, 5), min_size=rows * d, max_size=rows * d))
        mat = np.array(cells, dtype=np.int32).reshape(rows, d)
        expected = [len(set(row)) < d for row in mat.tolist()]
        assert _duplicate_rows(mat).tolist() == expected


@pytest.mark.parametrize(
    "make",
    [
        gen_complete_digraph,
        lambda n: gen_random_out_regular(n, 1, seed=0),
        lambda n: gen_regular_tournament(n, seed=0),
    ],
)
def test_generators_reject_vertex_count_beyond_int32_ids(make):
    with pytest.raises(ValueError, match="exceeds the int32 id range"):
        make(2**31 + 1)


class TestRegularTournament:
    def test_single_vertex(self):
        g = gen_regular_tournament(1, seed=0)
        assert g.m == 0
        assert g.out_degrees.tolist() == [0]

    def test_three_vertices(self):
        g = gen_regular_tournament(3, seed=0)
        assert g.m == 3
        assert all(d == 1 for d in g.out_degrees)
        assert all(d == 1 for d in in_degrees(g))

    def test_seven_vertices(self):
        g = gen_regular_tournament(7, seed=11)
        assert g.m == 21
        assert all(d == 3 for d in g.out_degrees)
        assert all(d == 3 for d in in_degrees(g))

    def test_exactly_one_orientation_per_pair(self):
        g = gen_regular_tournament(9, seed=2)
        edges = set(g.edges())
        for u in range(9):
            for v in range(u + 1, 9):
                assert ((u, v) in edges) != ((v, u) in edges)

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            gen_regular_tournament(4, seed=0)

    def test_seed_relabels(self):
        assert gen_regular_tournament(11, seed=0) != gen_regular_tournament(
            11, seed=1
        )


def test_equal_graphs_hash_equal_and_key_a_dict():
    # The same edges built two ways: generated CSR rows, and edge arrays.
    g = gen_random_out_regular(50, 4, seed=0)
    same = from_pairs(g.n, g.edges())
    assert same == g and hash(same) == hash(g)
    kept = {g: "result"}
    assert kept[same] == "result"
    assert gen_random_out_regular(50, 4, seed=1) not in kept


def test_no_per_edge_array_is_kept():
    # The CSR indices are the one per-edge array a graph keeps; edge_src is
    # derived on each call, also after edges() and a solve have run.
    g = gen_random_out_regular(50, 4, seed=0)
    list(g.edges())
    find_spider(g, 2)
    kept = [name for name in Digraph.__slots__ if np.size(getattr(g, name)) == g.m]
    assert kept == ["_indices"]


class TestFromEdgeArrays:
    @pytest.mark.parametrize(
        "src, dst",
        [
            ([0], [1, 2, 3]),
            ([0, 1], [1, 2, 3]),
            (np.zeros((0, 2)), np.zeros((0, 2))),
        ],
        ids=["shorter-dst", "unbroadcastable", "two-dimensional"],
    )
    def test_shapes_must_match(self, src, dst):
        src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
        with pytest.raises(
            ValueError, match="^src and dst must be 1-D arrays of equal length$"
        ):
            Digraph.from_edge_arrays(5, src, dst)


class TestExtract:
    def test_identity_on_exact(self):
        g = gen_complete_digraph(5)
        assert extract_exact_outdegree_subgraph(g, 4) == g

    def test_k6_keeps_first_four(self):
        g = gen_complete_digraph(6)
        sub = extract_exact_outdegree_subgraph(g, 4)
        assert sub.m == 24
        for v, row in enumerate(out_rows(sub)):
            expected = [u for u in range(6) if u != v][:4]
            assert row.tolist() == expected
        assert_mirror_consistent(sub)

    def test_insufficient(self):
        tri = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")
        with pytest.raises(PreconditionOutDegree) as exc:
            extract_exact_outdegree_subgraph(tri, 2)
        assert (exc.value.min_out, exc.value.needed) == (1, 2)

    def test_empty_graph_rejected(self):
        with pytest.raises(
            ValueError, match="^empty graph has no minimum out-degree$"
        ):
            extract_exact_outdegree_subgraph(from_pairs(0, []), 0)

    @given(digraphs(min_n=2, max_n=9), st.integers(0, 3))
    def test_subset_and_exact_degree(self, g, d):
        if int(g.out_degrees.min()) < d:
            with pytest.raises(PreconditionOutDegree):
                extract_exact_outdegree_subgraph(g, d)
            return
        sub = extract_exact_outdegree_subgraph(g, d)
        assert set(sub.edges()) <= set(g.edges())
        assert all(deg == d for deg in sub.out_degrees)
        assert_mirror_consistent(sub)


class TestDegrees:
    def test_min_out_degree_examples(self):
        assert min_out_degree(gen_complete_digraph(5)) == 4
        assert min_out_degree(parse_edge_list("3 3\n0 1\n1 2\n2 0\n")) == 1
        assert min_out_degree(gen_complete_digraph(1)) == 0

    def test_empty_graph_rejected(self):
        g = from_pairs(0, [])
        with pytest.raises(ValueError):
            min_out_degree(g)

    def test_degree_profile(self):
        g = parse_edge_list("3 2\n0 1\n2 1\n")
        assert g.out_degrees.tolist() == [1, 0, 1]
        assert in_degrees(g).tolist() == [0, 2, 0]
        assert min_out_degree(g) == 0

    @given(digraphs())
    def test_degree_sums(self, g):
        assert int(g.out_degrees.sum()) == g.m
        assert int(in_degrees(g).sum()) == g.m


def assert_one_head_scan(g: Digraph, v: int, expected: list) -> None:
    """edges_into([v]), an equality scan, lists `expected`, the edges into
    v in edge order, and the same edges as the mask gather.  A second head
    sends edges_into through the gather, and its edges are then dropped.
    """
    tail, head = g.edges_into(np.array([v]))
    assert tail.dtype == head.dtype == np.int32
    assert list(zip(tail.tolist(), head.tolist())) == expected
    if g.n > 1:
        m_tail, m_head = g.edges_into(np.array([v, (v + 1) % g.n]))
        into_v = m_head == v
        assert np.array_equal(tail, m_tail[into_v])
        assert np.array_equal(head, m_head[into_v])


class TestEdgesInto:
    @pytest.mark.parametrize("name", list(_EMPTY_ROW_GRAPHS))
    def test_every_mask_over_empty_rows(self, name):
        n, pairs = _EMPTY_ROW_GRAPHS[name]
        g = from_pairs(n, pairs)
        assert name == "no_edges" or (g.out_degrees == 0).any()
        for bits in range(2**n):
            mask = np.array([(bits >> v) & 1 for v in range(n)], dtype=bool)
            assert_edges_into(g, mask)

    @pytest.mark.parametrize("name", list(_EMPTY_ROW_GRAPHS))
    def test_empty_and_full_mask(self, name):
        n, pairs = _EMPTY_ROW_GRAPHS[name]
        g = from_pairs(n, pairs)
        tail, head = g.edges_into(np.arange(0))
        assert tail.size == head.size == 0
        tail, head = g.edges_into(np.arange(n))
        # The pairs are listed by source, so they are in edge order.
        assert list(zip(tail.tolist(), head.tolist())) == pairs

    @given(digraphs(), st.data())
    def test_matches_bruteforce(self, g, data):
        bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        assert_edges_into(g, np.array(bits, dtype=bool))

    def test_matches_bruteforce_across_gather_slices(self):
        g = gen_random_out_regular(5000, 40, 2)
        assert g.m >= 3 * _GATHER_CHUNK
        assert_edges_into(g, np.random.default_rng(0).random(g.n) < 0.01)

    @given(digraphs(), st.data())
    def test_in_neighbourhood_matches_bruteforce(self, g, data):
        r = data.draw(st.integers(0, g.n - 1))
        assert_edges_into(g, in_nbr_mask(g, r))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_in_neighbourhood_across_gather_slices(self, seed):
        g = gen_random_out_regular(5000, 40, seed)
        assert g.m >= 3 * _GATHER_CHUNK
        for r in (0, 2500, 4999):
            assert_edges_into(g, in_nbr_mask(g, r))


class TestOneHeadScan:
    """The scan for a single head agrees with the mask gather and with
    brute force, on every vertex: v = 0, v = n - 1, vertices with no
    in-edges, and heads whose tails sit next to rows of out-degree 0.
    """

    @pytest.mark.parametrize("name", list(_EMPTY_ROW_GRAPHS))
    def test_every_vertex_over_empty_rows(self, name):
        n, pairs = _EMPTY_ROW_GRAPHS[name]
        g = from_pairs(n, pairs)
        assert (in_degrees(g) == 0).any()
        for v in range(n):
            assert_one_head_scan(g, v, [(u, w) for u, w in pairs if w == v])

    @given(digraphs())
    def test_every_vertex_matches_bruteforce(self, g):
        for v in range(g.n):
            assert_one_head_scan(g, v, [(u, w) for u, w in g.edges() if w == v])

    def test_every_vertex_across_gather_slices(self):
        g = gen_random_out_regular(5000, 40, 2)
        assert g.m >= 3 * _GATHER_CHUNK
        # The edges into each vertex, in edge order, from one stable sort.
        e = np.argsort(g.edge_dst, kind="stable")
        into = np.split(e, np.cumsum(in_degrees(g))[:-1])
        src = g.edge_src
        for v in range(g.n):
            assert_one_head_scan(g, v, [(int(u), v) for u in src[into[v]]])


def assert_edges_out_of(g: Digraph, xs: list[int]) -> None:
    """edges_out_of(xs) lists the rows of `xs` in the order of `xs`."""
    tail, head = g.edges_out_of(np.asarray(xs, dtype=np.int64))
    assert tail.dtype == head.dtype == np.int32
    pairs = list(zip(tail.tolist(), head.tolist()))
    assert pairs == [(u, v) for x in xs for u, v in g.edges() if u == x]


class TestEdgesOutOf:
    @pytest.mark.parametrize("name", list(_EMPTY_ROW_GRAPHS))
    def test_every_vertex_and_all_in_reverse(self, name):
        n, pairs = _EMPTY_ROW_GRAPHS[name]
        g = from_pairs(n, pairs)
        assert_edges_out_of(g, [])
        for v in range(n):
            assert_edges_out_of(g, [v])
        assert_edges_out_of(g, list(range(n))[::-1])

    @given(digraphs(), st.data())
    def test_matches_bruteforce(self, g, data):
        xs = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        assert_edges_out_of(g, xs)


_C = _GATHER_CHUNK


class TestGather:
    @pytest.mark.parametrize("size", [0, 1, _C - 1, _C, _C + 1, 3 * _C + 7])
    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_matches_fancy_indexing(self, size, dtype):
        rng = np.random.default_rng(size)
        high = 2 if dtype is bool else 2**40
        table = rng.integers(0, high, size=1000).astype(dtype)
        idx = rng.integers(0, table.size, size=size, dtype=np.int32)
        out = _gather(table, idx)
        assert out.dtype == table.dtype
        assert np.array_equal(out, table[idx])

    def test_extreme_ids_at_the_slice_boundary(self):
        # The lowest and highest ids on both sides of every slice boundary
        # read their own entries; no in-range index is clipped.
        n = 1000
        table = np.arange(n, dtype=np.int64) * 7 + 3
        idx = np.full(3 * _C, n // 2, dtype=np.int32)
        for edge in (_C, 2 * _C):
            idx[edge - 2 : edge + 2] = [0, n - 1, 0, n - 1]
        idx[0], idx[-1] = n - 1, 0
        assert np.array_equal(_gather(table, idx), table[idx])


class TestBincount:
    @pytest.mark.parametrize("size", [0, 1, _C - 1, _C, _C + 1, 3 * _C + 7])
    @pytest.mark.parametrize("n", [1000, _C + 5])
    # Every case is unweighted: _bincount only counts.
    @pytest.mark.parametrize("weighted", [False])
    def test_matches_bincount(self, size, n, weighted):
        rng = np.random.default_rng(size)
        idx = rng.integers(0, n, size=size, dtype=np.int32)
        out = _bincount(idx, n)
        assert out.dtype == np.int64
        assert np.array_equal(out, np.bincount(idx, minlength=n))
