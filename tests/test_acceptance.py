"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they happen.  Criteria 1, 3, and 7 and the pinned corpus digest share
the 10,050-instance corpus defined in acceptance_corpus (50 values of l,
one tight complete digraph plus 200 seeded random 2l-out-regular graphs
each).
"""
import hashlib
import time

import numpy as np
import pytest

import acceptance_corpus as corpus
from reference import brute_max_legs, check_proper_coloring, from_pairs, make_h
from spiderfind import (
    EXHAUSTIVE_CAP,
    Digraph,
    find_spider,
    gen_complete_digraph,
    gen_random_out_regular,
    has_spider_bruteforce,
    max_spider_at_root,
    min_out_degree,
    verify_spider,
)
from spiderfind.edge_coloring import vizing_color

REQUIRED_CHECKS = [
    "score >= d^2 - d",
    "|Q_r| >= d^2 - d - (a+c)(4l-1)",
    "max_deg(H) <= 2l - 2",
    "palette <= 2l - 1",
    "s(2l-1) >= |E(H_t)|",
    "a + c + s >= l",
]


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_theorem_totality():
    """Every corpus instance yields a spider passing the independent verifier."""
    results, elapsed = corpus.corpus_results("first")
    bad = [r for r in results if not r["verified"] or r["error"]]
    ok = not bad and len(results) == 10_050
    _report(
        1,
        ok,
        f"{len(results)} solves across l=1..50, {len(bad)} failures, "
        f"{elapsed:.1f}s elapsed (expected < 60s)",
    )
    assert len(results) == 10_050
    assert not bad, bad[:5]


def test_corpus_digest_matches_reference():
    """Spiders and traces over the whole corpus match the pinned digest."""
    results, _ = corpus.corpus_results("first")
    joined = "\n".join(r["digest"] for r in results)
    assert hashlib.sha256(joined.encode()).hexdigest() == corpus.CORPUS_DIGEST


def test_criterion_2_extremal_negative():
    """K_{2l} admits no (2,l)-spider; every root caps at l-1 legs."""
    t0 = time.perf_counter()
    problems = []
    for ell in range(1, 51):
        res = has_spider_bruteforce(gen_complete_digraph(2 * ell), ell)
        if res.exists:
            problems.append((ell, "oracle claims existence"))
        for r in range(2 * ell):
            count = res.best_per_root[r]
            if count != ell - 1:
                problems.append((ell, f"root {r} reaches {count}"))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    _report(2, ok, f"K_2l for l=1..50 spider-free, {elapsed:.2f}s (< 5s)")
    assert not problems, problems
    assert elapsed < 5.0


def test_criterion_3_proof_inequality_suite():
    """All six proof inequalities are recorded and hold on every corpus run."""
    results, _ = corpus.corpus_results("first")
    violations = [r for r in results if r["failed_checks"] or r["error"]]
    missing = [r["spec"] for r in results if r["check_names"] != REQUIRED_CHECKS]
    ok = not violations and not missing
    _report(
        3,
        ok,
        f"{len(results)} runs, {len(violations)} inequality violations, "
        f"{len(missing)} runs with missing checks",
    )
    assert not violations, violations[:5]
    assert not missing, missing[:5]


def _random_min_out_digraph(rng, ell: int, n_stop: int = 13) -> Digraph:
    n = int(rng.integers(2 * ell + 1, n_stop))
    edges = []
    for v in range(n):
        dv = int(rng.integers(2 * ell, n))
        vals = rng.permutation(n - 1)[:dv]
        vals = vals + (vals >= v)
        edges.extend((v, int(u)) for u in vals)
    return from_pairs(n, edges)


def test_criterion_4_oracle_cross_validation():
    """Oracle and solver agree above threshold; matching count matches naive."""
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    disagreements = []
    runs = 0
    for ell in (1, 2, 3):
        for _ in range(350):
            g = _random_min_out_digraph(rng, ell)
            assert min_out_degree(g) >= 2 * ell
            res = has_spider_bruteforce(g, ell)
            out = find_spider(g, ell)
            report = verify_spider(g, out.spider, ell)
            if not res.exists or report is not None:
                disagreements.append((ell, g.n, res.exists, str(report)))
            runs += 1

    count_mismatches = []
    checked_counts = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.9)
        g = from_pairs(n, [p for p, k in zip(pairs, keep) if k])
        for r in range(n):
            bnb, _ = max_spider_at_root(g, r)
            naive = brute_max_legs(g, r)
            if bnb != naive:
                count_mismatches.append((n, r, bnb, naive))
        checked_counts += 1

    # Past the naive count's reach: l = 4..10 on up to 40 vertices, where
    # the oracle's witness is checked too.
    rng_large = np.random.default_rng(515151)
    large_runs = 0
    for ell in range(4, 11):
        for _ in range(50):
            g = _random_min_out_digraph(rng_large, ell, n_stop=41)
            assert min_out_degree(g) >= 2 * ell
            res = has_spider_bruteforce(g, ell)
            out = find_spider(g, ell)
            report = verify_spider(g, out.spider, ell)
            if not res.exists or report is not None:
                disagreements.append((ell, g.n, res.exists, str(report)))
            elif verify_spider(g, res.witness, ell) is not None:
                disagreements.append((ell, g.n, "oracle witness invalid"))
            large_runs += 1
    elapsed = time.perf_counter() - t0
    ok = not disagreements and not count_mismatches
    _report(
        4,
        ok,
        f"{runs} oracle/solver instances (l=1..3, n <= 12) + {large_runs} "
        f"(l=4..10, n <= 40) + {checked_counts} matching-count "
        f"instances, {len(disagreements)} disagreements, "
        f"{len(count_mismatches)} count mismatches, {elapsed:.1f}s",
    )
    assert runs >= 1000 and checked_counts >= 200 and large_runs == 350
    assert not disagreements, disagreements[:5]
    assert not count_mismatches, count_mismatches[:5]


def test_criterion_4_networkx_matching_sizes():
    """Per-root oracle sizes equal networkx's blossom matching (optional)."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(616161)
    mismatches = []
    roots = 0
    for _ in range(4):
        n = int(rng.integers(50, EXHAUSTIVE_CAP + 1))
        g = gen_random_out_regular(n, 9, int(rng.integers(0, 2**31)))
        edges = list(g.edges())
        in_nbrs = [set() for _ in range(n)]
        for u, v in edges:
            in_nbrs[v].add(u)
        best = has_spider_bruteforce(g, 1).best_per_root
        for r in range(n):
            legs = nx.Graph()
            legs.add_edges_from(
                (u, v) for u, v in edges if u != r and v in in_nbrs[r]
            )
            size = len(nx.max_weight_matching(legs, maxcardinality=True))
            if best[r] != size:
                mismatches.append((n, r, best[r], size))
            roots += 1
    assert roots >= 200
    assert not mismatches, mismatches[:5]


def _coloring_violations(edges, col) -> list[str]:
    out = []
    colors = col.color_of.tolist()
    if edges:
        deg: dict[int, int] = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        delta = max(deg.values())
        if col.palette > delta + 1:
            out.append(f"palette {col.palette} > {delta + 1}")
        if colors and max(colors) >= col.palette:
            out.append("color outside palette")
    if not check_proper_coloring(edges, colors):
        out.append("improper")
    by_color: dict[int, list[int]] = {}
    for (u, v), c in zip(edges, colors):
        by_color.setdefault(c, []).extend((u, v))
    for c, ends in by_color.items():
        if len(set(ends)) != len(ends):
            out.append(f"class {c} is not a matching")
    return out


def test_criterion_5_vizing_properties():
    """10k random colorings plus adversaries: proper, <= Delta+1, matchings."""
    rng = np.random.default_rng(5150)
    t0 = time.perf_counter()
    violations = []
    graphs = 0

    adversaries = [
        [(0, 1), (1, 2), (0, 2)],           # odd cycle forces Delta+1
        [(0, i) for i in range(1, 31)],     # star with Delta = 30
    ]
    for edges in adversaries:
        bad = _coloring_violations(edges, vizing_color(make_h(edges)))
        if bad:
            violations.append(("adversary", bad))
        graphs += 1

    pair_cache = {}
    while graphs < 10_002:
        n = int(rng.integers(3, 23))
        if n not in pair_cache:
            pair_cache[n] = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = pair_cache[n]
        keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.95)
        edges = [p for p, k in zip(pairs, keep) if k]
        col = vizing_color(make_h(edges))
        bad = _coloring_violations(edges, col)
        if bad:
            violations.append((graphs, n, bad))
        graphs += 1
    elapsed = time.perf_counter() - t0
    ok = not violations
    _report(
        5,
        ok,
        f"{graphs} colorings (with triangle and star adversaries), "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert graphs >= 10_000
    assert not violations, violations[:5]


def test_criterion_6_scaling():
    """Coarse near-linearity of solves on a 0.5M..5M edge ladder.

    Repeats are interleaved across sizes and each size keeps its fastest
    wall time, so shared-machine noise hits all rungs alike; a noisy first
    measurement pass gets one fresh pass merged in before judging.
    """
    ell = 25
    sizes = (10_000, 30_000, 100_000)
    graphs = [
        gen_random_out_regular(n, 2 * ell, seed=idx)
        for idx, n in enumerate(sizes)
    ]
    find_spider(gen_random_out_regular(2000, 2 * ell, seed=99), ell)
    best = [float("inf")] * len(sizes)

    def measure(repeats: int) -> None:
        for _ in range(repeats):
            for i, g in enumerate(graphs):
                t0 = time.perf_counter()
                out = find_spider(g, ell)
                best[i] = min(best[i], time.perf_counter() - t0)
                assert verify_spider(g, out.spider, ell) is None

    def ratios_ok() -> tuple[bool, list[str]]:
        ok = True
        detail = []
        for i in (1, 2):
            t_ratio = best[i] / best[i - 1]
            bound = 1.5 * graphs[i].m / graphs[i - 1].m
            detail.append(f"t x{t_ratio:.2f} vs bound x{bound:.2f}")
            if t_ratio > bound:
                ok = False
        return ok, detail

    measure(repeats=4)
    ratio_ok, detail = ratios_ok()
    if not ratio_ok:
        measure(repeats=4)
        ratio_ok, detail = ratios_ok()
    big_time = best[-1]
    ok = ratio_ok and big_time < 30.0
    _report(
        6,
        ok,
        f"n=1e4/3e4/1e5: {', '.join(f'{b * 1000:.0f}ms' for b in best)}; "
        f"{'; '.join(detail)}; largest solve {big_time:.2f}s (< 30s)",
    )
    assert ratio_ok, detail
    assert big_time < 30.0


def test_criterion_7_determinism():
    """Repeating the corpus with the same seeds reproduces every byte."""
    first, _ = corpus.corpus_results("first")
    second, elapsed = corpus.corpus_results("second")
    by_spec = {tuple(r["spec"]): r["digest"] for r in first}
    mismatches = [
        r["spec"]
        for r in second
        if by_spec.get(tuple(r["spec"])) != r["digest"] or not r["digest"]
    ]
    ok = not mismatches and len(second) == len(first)
    _report(
        7,
        ok,
        f"{len(second)} re-solves, {len(mismatches)} fingerprint mismatches, "
        f"{elapsed:.1f}s",
    )
    assert not mismatches, mismatches[:5]
