"""Hypothesis strategies shared across test modules."""
from __future__ import annotations

from hypothesis import strategies as st

from reference import from_pairs
from spiderfind import gen_random_out_regular


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 10):
    """Arbitrary simple digraphs over a small vertex range."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        )
    else:
        edges = []
    return from_pairs(n, edges)


@st.composite
def out_regular_digraphs(draw, max_ell: int = 4, max_n: int = 40):
    """(graph, ell) pairs where the graph is exactly 2*ell-out-regular."""
    ell = draw(st.integers(1, max_ell))
    n = draw(st.integers(2 * ell + 1, max(2 * ell + 1, max_n)))
    seed = draw(st.integers(0, 2**31 - 1))
    g = gen_random_out_regular(n, 2 * ell, seed)
    return g, ell


@st.composite
def min_out_degree_digraphs(draw, max_ell: int = 3, max_n: int = 24):
    """(graph, ell) pairs with min out-degree >= 2*ell but not regular."""
    ell = draw(st.integers(1, max_ell))
    n = draw(st.integers(2 * ell + 2, max(2 * ell + 2, max_n)))
    seed = draw(st.integers(0, 2**31 - 1))
    extra = draw(st.integers(0, min(3, n - 1 - 2 * ell)))
    g = gen_random_out_regular(n, 2 * ell + extra, seed)
    return g, ell
