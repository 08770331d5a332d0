import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spiderfind.solver as solver
from spiderfind import (
    explain_trace,
    find_spider,
    format_spider,
    gen_complete_digraph,
    gen_random_out_regular,
    gen_regular_tournament,
    parse_edge_list,
    parse_spider,
    verify_spider,
    write_edge_list,
)
from spiderfind.cli import main
from strategies import digraphs
from test_solver import (
    _empty_class,
    antiparallel_triangle_instance,
    few_extenders_instance,
)


def _stdin(data):
    """A byte-backed stdin, like the real one; `data` is str or bytes."""
    raw = data if isinstance(data, bytes) else data.encode()
    return io.TextIOWrapper(io.BytesIO(raw))


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", _stdin(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_complete_to_stdout(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["generate", "complete", "--n", "5"])
        assert code == 0
        assert parse_edge_list(out) == gen_complete_digraph(5)

    def test_random_out_regular_deterministic(self, capsys, monkeypatch):
        argv = ["generate", "random-out-regular", "--n", "30", "--d", "4", "--seed", "7"]
        code, out1, _ = run(capsys, monkeypatch, argv)
        _, out2, _ = run(capsys, monkeypatch, argv)
        assert code == 0 and out1 == out2
        g = parse_edge_list(out1)
        assert all(d == 4 for d in g.out_degrees)

    def test_complete_takes_no_seed(self, capsys, monkeypatch):
        argv = ["generate", "complete", "--n", "5", "--seed", "1"]
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 64 and out == ""
        assert "--seed" in err

    def test_tournament_uses_its_seed(self, capsys, monkeypatch):
        argv = ["generate", "tournament", "--n", "7", "--seed", "3"]
        code, out, _ = run(capsys, monkeypatch, argv)
        assert code == 0
        assert parse_edge_list(out) == gen_regular_tournament(7, 3)

    def test_tournament_even_order_is_usage_error(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["generate", "tournament", "--n", "4"])
        assert code == 64
        assert "usage error" in err

    def test_vertex_count_beyond_int32_ids_is_usage_error(self, capsys, monkeypatch):
        # The generator refuses before it allocates anything.
        argv = ["generate", "random-out-regular", "--n", "2147483649", "--d", "1"]
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 64 and out == ""
        assert err == "usage error: vertex count 2147483649 exceeds the int32 id range\n"

    def test_output_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "g.txt"
        code, out, _ = run(
            capsys, monkeypatch,
            ["generate", "complete", "--n", "3", "-o", str(path)],
        )
        assert code == 0 and out == ""
        assert parse_edge_list(path.read_text()) == gen_complete_digraph(3)


class TestSolve:
    def test_pipe_solve_verify(self, capsys, monkeypatch, tmp_path):
        graph_text = write_edge_list(gen_complete_digraph(5))
        code, spider_text, _ = run(
            capsys, monkeypatch, ["solve", "--ell", "2"], stdin=graph_text
        )
        assert code == 0
        assert spider_text.startswith("root ")
        gpath = tmp_path / "g.txt"
        spath = tmp_path / "s.txt"
        gpath.write_text(graph_text)
        spath.write_text(spider_text)
        code, out, _ = run(
            capsys, monkeypatch,
            ["verify", "--ell", "2", "--graph", str(gpath), "--spider", str(spath)],
        )
        assert code == 0
        assert out == "ok\n"

    def test_below_threshold_exits_2(self, capsys, monkeypatch):
        graph_text = write_edge_list(gen_complete_digraph(4))
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "2"], stdin=graph_text
        )
        assert code == 2
        assert out == ""
        assert "out-degree" in err

    def test_trace_goes_to_stderr(self, capsys, monkeypatch):
        graph_text = write_edge_list(gen_complete_digraph(5))
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "2", "--trace"], stdin=graph_text
        )
        assert code == 0
        assert "PASS" in err
        assert "PASS" not in out

    def test_trace_is_explain_trace_only(self, capsys, monkeypatch):
        # H_t is truncated to 37 edges here; none of them reach stderr.
        g = gen_random_out_regular(200, 10, seed=3)
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "5", "--trace"],
            stdin=write_edge_list(g),
        )
        expected = find_spider(g, 5)
        assert code == 0
        assert out == format_spider(expected.spider)
        assert err == explain_trace(expected.trace)

    def test_empty_graph_is_usage_error(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "1"], stdin="0 0\n"
        )
        assert code == 64
        assert out == ""
        assert err == "usage error: empty graph has no minimum out-degree\n"

    def test_parse_error_exits_65(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["solve", "--ell", "2"], stdin="2 1\n0 9\n"
        )
        assert code == 65
        assert "parse error" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 1\n0 1_0\n", "line 2: edge line must be two integers"),
            ("9223372036854775808 0\n", "line 1: vertex count"),
        ],
    )
    def test_bad_integers_exit_65(self, capsys, monkeypatch, text, message):
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "1"], stdin=text
        )
        assert code == 65
        assert out == ""
        assert err.startswith(f"parse error: {message}")

    def test_out_of_memory_exits_64(self, capsys, monkeypatch):
        # A header such as "2147483648 0" passes the n bound and then asks
        # for a 16 GiB CSR; the failing allocation is simulated, not made.
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr("spiderfind.cli.parse_edge_list", exhausted)
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "1"], stdin="2147483648 0\n"
        )
        assert code == 64
        assert out == ""
        assert err == "usage error: instance too large: out of memory\n"

    def test_failed_inequality_exits_70(self, capsys, monkeypatch):
        monkeypatch.setattr(
            solver, "largest_color_class", _empty_class(solver.largest_color_class, 3)
        )
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "3"],
            stdin=write_edge_list(few_extenders_instance()),
        )
        assert code == 70
        assert out == ""
        assert err.startswith(
            "internal invariant violation: proof inequality failed: "
            "s(2l-1) >= |E(H_t)| ("
        )

    def test_antiparallel_paths_solve(self, capsys, monkeypatch):
        # Six 2-paths into the root collapse to a 3-edge H.
        g = antiparallel_triangle_instance()
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "2"], stdin=write_edge_list(g)
        )
        assert code == 0
        assert err == ""
        assert out == format_spider(find_spider(g, 2).spider)
        assert verify_spider(g, parse_spider(out), 2) is None

    def test_mode_flag_is_gone(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["solve", "--ell", "1", "--mode", "fast"],
            stdin=write_edge_list(gen_complete_digraph(3)),
        )
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments: --mode fast")


class TestVerify:
    @pytest.mark.parametrize("ell", ["0", "-1"])
    def test_ell_below_one_is_usage_error(self, capsys, monkeypatch, tmp_path, ell):
        # A bare root on a 3-vertex graph used to print "ok" for l = 0 and
        # exit 3 for l = -1.
        gpath = tmp_path / "g.txt"
        spath = tmp_path / "s.txt"
        gpath.write_text("3 3\n0 1\n1 2\n2 0\n")
        spath.write_text("root 99\n")
        code, out, err = run(
            capsys, monkeypatch,
            ["verify", "--ell", ell, "--graph", str(gpath), "--spider", str(spath)],
        )
        assert code == 64
        assert out == ""
        assert err == "usage error: ell must be >= 1\n"

    def test_violation_exits_3(self, capsys, monkeypatch, tmp_path):
        gpath = tmp_path / "g.txt"
        spath = tmp_path / "s.txt"
        gpath.write_text("3 3\n0 1\n1 2\n2 0\n")
        spath.write_text("root 0\n2 1\n")
        code, _, err = run(
            capsys, monkeypatch,
            ["verify", "--ell", "1", "--graph", str(gpath), "--spider", str(spath)],
        )
        assert code == 3
        assert "missing-edge" in err

    def test_id_beyond_int64_is_a_missing_edge(self, capsys, monkeypatch, tmp_path):
        # The first leg's leaf exceeds int64; it names no edge of K_5, and the
        # report is the same as for any other missing edge.
        gpath = tmp_path / "g.txt"
        spath = tmp_path / "s.txt"
        gpath.write_text(write_edge_list(gen_complete_digraph(5)))
        spath.write_text("root 0\n100000000000000000000 1\n2 3\n")
        code, out, err = run(
            capsys, monkeypatch,
            ["verify", "--ell", "2", "--graph", str(gpath), "--spider", str(spath)],
        )
        assert (code, out) == (3, "")
        assert err == (
            "violation: missing-edge: edge 100000000000000000000 -> 1 not in graph\n"
        )


class TestOracle:
    def test_extremal_negative_exits_1(self, capsys, monkeypatch):
        graph_text = write_edge_list(gen_complete_digraph(4))
        code, out, _ = run(
            capsys, monkeypatch, ["oracle", "--ell", "2"], stdin=graph_text
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "exists false"
        assert "best 0 1" in lines

    def test_positive_prints_witness(self, capsys, monkeypatch):
        graph_text = write_edge_list(gen_complete_digraph(5))
        code, out, _ = run(
            capsys, monkeypatch, ["oracle", "--ell", "2"], stdin=graph_text
        )
        assert code == 0
        assert out.splitlines()[0] == "exists true"
        assert any(line.startswith("root ") for line in out.splitlines())

    def test_oversize_is_usage_error(self, capsys, monkeypatch):
        graph_text = write_edge_list(gen_complete_digraph(178))
        code, _, err = run(
            capsys, monkeypatch, ["oracle", "--ell", "2"], stdin=graph_text
        )
        assert code == 64
        assert err == "usage error: graph has 178 vertices, exhaustive cap is 176\n"

    def test_cap_flag_is_gone(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["oracle", "--ell", "2", "--cap", "10"],
            stdin=write_edge_list(gen_complete_digraph(4)),
        )
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments: --cap 10")

    def test_ell_zero_is_usage_error(self, capsys, monkeypatch):
        graph_text = write_edge_list(gen_complete_digraph(3))
        code, out, err = run(
            capsys, monkeypatch, ["oracle", "--ell", "0"], stdin=graph_text
        )
        assert code == 64
        assert out == ""
        assert err == "usage error: ell must be >= 1\n"


class TestSearch:
    def test_complete_family_hit(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch,
            ["search", "--family", "complete", "--n", "4", "--ell", "2",
             "--trials", "1"],
        )
        assert code == 0
        assert out.startswith("# hit 0 min_out 3")
        assert "kept 1 of 1" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ell", "0", "--trials", "1"], "ell must be >= 1"),
            (["--ell", "1", "--trials", "-5"], "trials must be >= 0"),
        ],
    )
    def test_bad_bounds_are_usage_errors(self, capsys, monkeypatch, flags, message):
        code, out, err = run(
            capsys, monkeypatch,
            ["search", "--family", "complete", "--n", "3", *flags],
        )
        assert code == 64
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_cap_flag_is_gone(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch,
            ["search", "--family", "complete", "--n", "4", "--ell", "2",
             "--cap", "10"],
        )
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments: --cap 10")

    def test_oversize_n_is_usage_error_before_sampling(self, capsys, monkeypatch):
        # Every sample has --n vertices, so none is built above the cap.
        calls = []

        def spy(n):
            calls.append(n)
            return gen_complete_digraph(n)

        monkeypatch.setattr("spiderfind.cli.gen_complete_digraph", spy)
        code, out, err = run(
            capsys, monkeypatch,
            ["search", "--family", "complete", "--n", "177", "--ell", "1",
             "--trials", "2"],
        )
        assert code == 64
        assert out == ""
        assert err == "usage error: graph has 177 vertices, exhaustive cap is 176\n"
        assert calls == []

    def test_hits_are_parseable_edge_lists(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["search", "--family", "tournament", "--n", "3", "--ell", "2",
             "--trials", "2", "--seed", "5"],
        )
        assert code == 0
        blocks = [b for b in out.split("# hit")[1:]]
        for block in blocks:
            body = "\n".join(block.splitlines()[1:]) + "\n"
            parse_edge_list(body)


class TestIOErrors:
    def test_missing_input_file(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch,
            ["solve", "--ell", "1", "-i", "/nonexistent/graph.txt"],
        )
        assert code == 64
        assert "error" in err

    def test_unwritable_output_path(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "no-such-dir" / "spider.txt"
        code, out, err = run(
            capsys, monkeypatch,
            ["solve", "--ell", "1", "-o", str(out_path)],
            stdin=write_edge_list(gen_complete_digraph(3)),
        )
        assert code == 64 and out == ""
        assert err.startswith("io error: ")
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("path", ["stdin", "file"])
    def test_non_utf8_graph_is_parse_error(self, capsys, monkeypatch, tmp_path, path):
        # Invalid UTF-8 decodes the same way from stdin and from a file, so
        # both report the offending line instead of a codec error.
        data = b"3 1\n0 \xff\n"
        argv = ["solve", "--ell", "1"]
        if path == "file":
            gpath = tmp_path / "g.txt"
            gpath.write_bytes(data)
            argv += ["--input", str(gpath)]
            data = b""
        code, out, err = run(capsys, monkeypatch, argv, stdin=data)
        assert code == 65
        assert out == ""
        assert err == "parse error: line 2: edge line must be two integers\n"

    def test_non_utf8_spider_file_is_parse_error(self, capsys, monkeypatch, tmp_path):
        gpath = tmp_path / "g.txt"
        spath = tmp_path / "s.txt"
        gpath.write_text("3 3\n0 1\n1 2\n2 0\n")
        spath.write_bytes(b"# \xe9\nroot \xc3\n")
        code, out, err = run(
            capsys, monkeypatch,
            ["verify", "--ell", "1", "--graph", str(gpath), "--spider", str(spath)],
        )
        assert code == 65
        assert out == ""
        assert err == "parse error: line 2: root id must be an integer\n"


def _run_isolated(argv, stdin):
    """main(argv) with its own stdin/stdout/stderr; usable under @given."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = _stdin(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# Integers stay in -3..40: a header n near 2^31 passes the n bound and then
# allocates GBs (memory follows the claimed n, not the input size), a
# separately tracked defect that a fuzz run must not trigger.
_INT = st.integers(-3, 40).map(str)
_TOKEN = _INT | st.sampled_from(["root", "#", "x", "1_0", "+1", "-", "\u0663"])
_LINE = st.lists(_TOKEN, max_size=3).map(" ".join)
_LINES = st.lists(_LINE, max_size=12).map(lambda ls: "\n".join(ls).encode())
_PAYLOAD = st.one_of(
    _LINES,
    st.binary(max_size=48),
    st.tuples(_LINES, st.binary(max_size=6), _LINES).map(b"".join),
    digraphs(max_n=9).map(lambda g: write_edge_list(g).encode()),
    st.integers(1, 9).map(lambda n: write_edge_list(gen_complete_digraph(n)).encode()),
    st.tuples(_INT, st.lists(st.tuples(_INT, _INT), max_size=4)).map(
        lambda t: "".join(
            [f"root {t[0]}\n"] + [f"{u} {v}\n" for u, v in t[1]]
        ).encode()
    ),
)


class TestFuzz:
    @given(
        command=st.sampled_from(["solve", "verify", "oracle"]),
        ell=st.integers(-1, 3).map(str) | _INT,
        graph=_PAYLOAD,
        spider=_PAYLOAD,
    )
    @settings(max_examples=300)
    def test_random_input_gets_a_documented_exit(
        self, tmp_path_factory, command, ell, graph, spider
    ):
        if command == "verify":
            d = tmp_path_factory.mktemp("fuzz")
            (d / "g.txt").write_bytes(graph)
            (d / "s.txt").write_bytes(spider)
            argv = ["verify", "--ell", ell, "--graph", str(d / "g.txt"),
                    "--spider", str(d / "s.txt")]
        elif command == "oracle":
            argv = ["oracle", "--ell", ell]
        else:
            argv = ["solve", "--ell", ell]
        code, out, err = _run_isolated(argv, graph)
        assert code in {0, 1, 2, 3, 64, 65, 70}
        assert "Traceback" not in err
        if command == "oracle" and code == 1:
            # "no spider" is the oracle's answer, printed like "exists true".
            assert out.startswith("exists false\n")
        elif code != 0:
            assert out == ""


class TestModuleEntry:
    def test_python_dash_m(self):
        import os
        import subprocess
        from pathlib import Path

        import spiderfind

        # The child imports the same package as this process, installed or not.
        src = str(Path(spiderfind.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        proc = subprocess.run(
            [sys.executable, "-m", "spiderfind", "generate", "complete", "--n", "3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert parse_edge_list(proc.stdout) == gen_complete_digraph(3)


class TestUsage:
    def test_unknown_command(self, capsys, monkeypatch):
        for command in ("frobnicate", "bench"):
            code, out, _ = run(capsys, monkeypatch, [command])
            assert code == 64
            assert out == ""

    def test_missing_required(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["solve"])
        assert code == 64

    def test_generate_random_requires_d(self, capsys, monkeypatch):
        code, out, err = run(
            capsys, monkeypatch, ["generate", "random-out-regular", "--n", "5"]
        )
        assert code == 64
        assert out == ""
        assert "the following arguments are required: --d" in err

    def test_search_requires_d_for_random(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch,
            ["search", "--family", "random-out-regular", "--n", "10",
             "--ell", "1", "--trials", "1"],
        )
        assert code == 64
