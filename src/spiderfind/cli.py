"""Command-line surface: generate, solve, verify, oracle, search.

stdout carries machine-parseable payloads only; diagnostics go to stderr.
Exit codes: 0 success, 1 oracle found no spider, 2 solve precondition not
met, 3 verification violation, 64 usage error, 65 parse error, 70 internal
invariant violation.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .digraph import (
    gen_complete_digraph,
    gen_random_out_regular,
    gen_regular_tournament,
    min_out_degree,
    parse_edge_list,
    write_edge_list,
)
from .errors import (
    EdgeListError,
    InstanceTooLarge,
    InternalInvariantError,
    PreconditionOutDegree,
    SpiderFormatError,
)
from .oracle import EXHAUSTIVE_CAP, has_spider_bruteforce, search_spider_free
from .solver import explain_trace, find_spider
from .spider import format_spider, parse_spider, verify_spider

EXIT_OK = 0
EXIT_ORACLE_NO_SPIDER = 1
EXIT_PRECONDITION = 2
EXIT_VERIFY_VIOLATION = 3
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spiderfind", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an edge-list graph")
    gsub = gen.add_subparsers(dest="family", required=True)
    g_complete = gsub.add_parser("complete")
    g_complete.add_argument("--n", type=int, required=True)
    # The family builders take a seed; the complete digraph ignores it.
    g_complete.set_defaults(seed=0)
    g_random = gsub.add_parser("random-out-regular")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--d", type=int, required=True)
    g_random.add_argument("--seed", type=int, default=0)
    g_tourn = gsub.add_parser("tournament")
    g_tourn.add_argument("--n", type=int, required=True)
    g_tourn.add_argument("--seed", type=int, default=0)
    for p in (g_complete, g_random, g_tourn):
        p.add_argument("--output", "-o", default="-")

    solve = sub.add_parser("solve", help="find a (2,l)-spider")
    solve.add_argument("--ell", type=int, required=True)
    solve.add_argument("--trace", action="store_true")
    solve.add_argument("--input", "-i", default="-")
    solve.add_argument("--output", "-o", default="-")

    verify = sub.add_parser("verify", help="check a spider against a graph")
    verify.add_argument("--ell", type=int, required=True)
    verify.add_argument("--graph", required=True)
    verify.add_argument("--spider", required=True)

    oracle = sub.add_parser("oracle", help="exhaustive spider search")
    oracle.add_argument("--ell", type=int, required=True)
    oracle.add_argument("--input", "-i", default="-")

    search = sub.add_parser("search", help="sample graphs, keep spider-free ones")
    search.add_argument(
        "--family",
        choices=("complete", "random-out-regular", "tournament"),
        required=True,
    )
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--d", type=int)
    search.add_argument("--ell", type=int, required=True)
    search.add_argument("--trials", type=int, default=1)
    search.add_argument("--seed", type=int, default=0)
    return parser


def _read_text(path: str) -> str:
    """UTF-8 text of a file or of stdin ("-"), whatever the locale.

    Undecodable bytes survive as lone surrogates, so they fail parsing with
    a line-numbered error (exit 65) on both paths.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return data.decode("utf-8", "surrogateescape")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _make_family(args):
    if args.family == "complete":
        return lambda seed: gen_complete_digraph(args.n)
    if args.family == "random-out-regular":
        if args.d is None:
            raise _UsageError("random-out-regular family requires --d")
        return lambda seed: gen_random_out_regular(args.n, args.d, seed)
    return lambda seed: gen_regular_tournament(args.n, seed)


def _cmd_generate(args) -> int:
    _write_text(args.output, write_edge_list(_make_family(args)(args.seed)))
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    try:
        outcome = find_spider(g, args.ell)
    except PreconditionOutDegree as exc:
        sys.stderr.write(f"solve: {exc}\n")
        return EXIT_PRECONDITION
    _write_text(args.output, format_spider(outcome.spider))
    if args.trace:
        sys.stderr.write(explain_trace(outcome.trace))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = parse_edge_list(_read_text(args.graph))
    s = parse_spider(_read_text(args.spider))
    report = verify_spider(g, s, args.ell)
    if report is None:
        sys.stdout.write("ok\n")
        return EXIT_OK
    sys.stderr.write(f"violation: {report.kind.value}: {report}\n")
    return EXIT_VERIFY_VIOLATION


def _cmd_oracle(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    res = has_spider_bruteforce(g, args.ell)
    sys.stdout.write(f"exists {'true' if res.exists else 'false'}\n")
    if res.witness is not None:
        sys.stdout.write(format_spider(res.witness))
    for r in sorted(res.best_per_root):
        sys.stdout.write(f"best {r} {res.best_per_root[r]}\n")
    return EXIT_OK if res.exists else EXIT_ORACLE_NO_SPIDER


def _cmd_search(args) -> int:
    sample = _make_family(args)
    # Every sample has --n vertices, so above the cap all would be skipped.
    if args.n > EXHAUSTIVE_CAP:
        raise InstanceTooLarge(args.n, EXHAUSTIVE_CAP)
    out = search_spider_free(sample, args.ell, args.trials, args.seed)
    for i, (g, _res) in enumerate(out.kept):
        sys.stdout.write(f"# hit {i} min_out {min_out_degree(g)}\n")
        sys.stdout.write(write_edge_list(g))
    sys.stderr.write(
        f"search: kept {len(out.kept)} of {out.trials} trials"
        f" ({out.skipped} skipped)\n"
    )
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "search": _cmd_search,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (EdgeListError, SpiderFormatError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal invariant violation: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        sys.stderr.write("usage error: instance too large: out of memory\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
