"""Directed-graph core: representation, degree queries, generators, text I/O.

A Digraph is an immutable simple directed graph (antiparallel pairs allowed,
no loops, no duplicate edges) over dense 0-based vertex ids.  Out-adjacency
is the only stored adjacency, CSR-style in two numpy arrays, and nothing
is derived lazily or cached: no in-degrees are kept, and the per-edge
source array `edge_src`, which `edges()` reads, is derived from the
out-degrees on each call.  The one in-adjacency primitive,
`edges_into(heads)`, makes one pass over the edge heads: an equality scan
for a single head, one `_gather(mask, edge_dst)` of their mask for
several.  It reads the tails of the hits from the CSR row bounds;
`edges_out_of(xs)` reads the rows of `xs`, and `write_edge_list` repeats
one token per vertex along them.  None of the three builds the per-edge
source array.
"""
from __future__ import annotations

import io
import math
from typing import Iterator

import numpy as np

from .errors import EdgeListError, PreconditionOutDegree

__all__ = [
    "Digraph",
    "parse_edge_list",
    "write_edge_list",
    "gen_complete_digraph",
    "gen_random_out_regular",
    "gen_regular_tournament",
    "extract_exact_outdegree_subgraph",
    "min_out_degree",
]

# Vertex ids are stored as int32.
_MAX_VERTICES = 2**31

# Longest token the canonical parse path reads; ids below 2^31 have at most
# ten digits.
_CANONICAL_DIGITS = 10

# Rejection sampling is used while the expected per-row collision count stays
# small; denser rows switch to a blocked Fisher-Yates shuffle over pools of
# about this many cells.  A block's rows draw their steps together, so the
# block size also fixes the order in which the draws fill the rows: change
# it and every dense graph changes.
_FY_BLOCK_CELLS = 4_000_000

# Indices per `_gather` slice (and the least per `_bincount` slice), whose
# intp copy (512 KiB) stays in cache.
_GATHER_CHUNK = 65_536


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of `keys`, ascending; sorts `keys` in place.

    This is np.unique(keys), whose hash path on numpy 2.4 took 6.7 s on
    5M int64 keys where a sort and a neighbour compare took 0.09 s (one
    core of a 2-CPU host).
    """
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx] for int32 `idx` in [0, len(table)), without numpy's
    whole-array intp cast.

    Every index is in range, so mode="clip" changes no output; it spares
    the copy through a buffer that the default mode="raise" always makes
    of `out`.  A 5M-edge bool-mask gather took 6.22 ms against 6.79 ms
    (minimum of 150 interleaved calls each, 2-CPU host).
    """
    out = np.empty(idx.shape[0], dtype=table.dtype)
    for lo in range(0, idx.shape[0], _GATHER_CHUNK):
        hi = lo + _GATHER_CHUNK
        np.take(table, idx[lo:hi], out=out[lo:hi], mode="clip")
    return out


def _bincount(idx: np.ndarray, n: int) -> np.ndarray:
    """np.bincount(idx, minlength=n) for integer `idx` in [0, n), without
    numpy's whole-array intp cast of int32 `idx`.

    Slices hold at least n indices, so adding a slice's counts into the
    total never costs more than counting them: at n = 1e6 and 2M indices,
    fixed 64K slices took 94 ms where one whole-array call took 26 ms.
    """
    out = np.zeros(n, dtype=np.int64)
    step = max(_GATHER_CHUNK, n)
    for lo in range(0, idx.shape[0], step):
        part = np.bincount(idx[lo : lo + step])
        out[: part.shape[0]] += part
    return out


class Digraph:
    """Immutable directed graph stored as out-adjacency CSR."""

    __slots__ = ("n", "m", "_indptr", "_indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.m = int(indices.shape[0])
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_edge_arrays(cls, n: int, src: np.ndarray, dst: np.ndarray) -> "Digraph":
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        src = np.asarray(src)
        dst = np.asarray(dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if src.size and (src.min() < 0 or src.max() >= n):
            raise ValueError("source vertex out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= n):
            raise ValueError("destination vertex out of range")
        if np.any(src == dst):
            bad = int(np.flatnonzero(src == dst)[0])
            raise ValueError(f"self-loop at edge {bad}")
        key = src.astype(np.int64) * n + dst
        if _sorted_distinct(key).size != key.size:
            raise ValueError("duplicate directed edge")
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(_bincount(src, n), out=indptr[1:])
        return cls(n, indptr, dst[order].astype(np.int32))

    # ---- queries -----------------------------------------------------------

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    @property
    def edge_src(self) -> np.ndarray:
        """Per-edge source vertex, aligned with `edge_dst`; built per call."""
        return np.repeat(np.arange(self.n, dtype=np.int32), self.out_degrees)

    @property
    def edge_dst(self) -> np.ndarray:
        """Per-edge destination vertex, in out-adjacency order."""
        return self._indices

    def edges_into(self, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every edge tail -> head with head among the distinct ids `heads`,
        in out-adjacency order.

        One head is found by comparing every edge head with it, which took
        about 1 ms at 5M edges where gathering a one-vertex mask took 6-9 ms
        (2-CPU host); several by one gather of their mask.  Edge e lies in the row of the
        last vertex whose row starts at or before e; side="right" skips the
        repeated starts of empty rows.
        """
        if heads.shape[0] == 1:
            # A Python int keeps the compare in int32; a numpy int64 scalar
            # would widen every edge head.
            hit = self._indices == int(heads[0])
        else:
            mask = np.zeros(self.n, dtype=bool)
            mask[heads] = True
            hit = _gather(mask, self._indices)
        e = np.flatnonzero(hit)
        tail = np.searchsorted(self._indptr, e, side="right") - 1
        return tail.astype(np.int32), self._indices[e]

    def edges_out_of(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every edge tail -> head with tail in `xs`: the rows of `xs`, in
        the order of `xs`, read without a scan.
        """
        starts = self._indptr[xs]
        deg = self._indptr[xs + 1] - starts
        # Edge ids starts[i] .. starts[i] + deg[i] - 1 for each i, in one run.
        e = np.repeat(starts - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
        return np.repeat(xs, deg).astype(np.int32), self._indices[e]

    def edges(self) -> Iterator[tuple[int, int]]:
        return zip(self.edge_src.tolist(), self._indices.tolist())

    # ---- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    # Graphs key dicts: perfbench's oracle_search check maps each to its result.
    def __hash__(self):
        return hash((self.n, self.m, self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


# ---- text I/O ---------------------------------------------------------------


def _int_token(tok: str) -> int:
    """Value of an ASCII `-?[0-9]+` token; ValueError for anything else."""
    # On a whitespace-free token, int() goes beyond -?[0-9]+ only by
    # accepting '+', '_' digit separators and non-ASCII digits.  Ruling
    # those out is much cheaper than a regex match per token.
    if not tok.isascii() or "_" in tok or "+" in tok:
        raise ValueError(f"not an integer token: {tok!r}")
    return int(tok)


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each line that is neither blank nor a '#'
    comment; lines end only at '\n', '\r\n' or '\r', not at form feeds.
    """
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line.split()


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list interchange format from a string.

    First non-comment line is "n m"; the next m non-comment lines are "u v",
    one directed edge each, 0-indexed.  Lines starting with '#' and blank
    lines are ignored.  Rejects self-loops and duplicate directed edges,
    reporting the offending physical line.

    Canonical text, as `write_edge_list` emits it, is read as whole arrays;
    any other text, and any invalid graph, goes through the line parser,
    which alone reports errors.
    """
    g = _parse_canonical(text)
    return g if g is not None else _parse_lines(text)


def _parse_canonical(text: str) -> Digraph | None:
    """The graph of canonical edge-list text, or None for any other input.

    Canonical text is ASCII lines "digits SP digits\n" with tokens of at
    most ten digits, a valid header and exactly m edge lines, describing a
    simple loopless graph.  None leaves every diagnostic to `_parse_lines`.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    b = np.frombuffer(data, dtype=np.uint8)
    if b.size == 0 or b[-1] != ord("\n"):
        return None
    sep = np.flatnonzero((b < ord("0")) | (b > ord("9")))
    # Separators must alternate ' ', '\n' (the last byte is '\n', so their
    # count is even) with 1 to 10 digits before each.
    if not (
        (b[sep[0::2]] == ord(" ")).all()
        and (b[sep[1::2]] == ord("\n")).all()
    ):
        return None
    width = np.diff(sep, prepend=-1)
    if width.min() < 2 or width.max() > _CANONICAL_DIGITS + 1:
        return None
    del sep, width
    vals = np.fromstring(data, dtype=np.int64, sep=" ")
    n, m = int(vals[0]), int(vals[1])
    if n > _MAX_VERTICES or vals.size != 2 + 2 * m:
        return None
    try:
        return Digraph.from_edge_arrays(n, vals[2::2], vals[3::2])
    except ValueError:
        return None


def _parse_lines(text: str) -> Digraph:
    """Line-by-line parser for any edge-list text; the one error reporter."""
    header = None
    header_line = 0
    src: list[int] = []
    dst: list[int] = []
    seen: set[int] = set()
    n = m = 0
    for lineno, parts in _content_lines(text):
        if header is None:
            if len(parts) != 2:
                raise EdgeListError(lineno, "header must be 'n m'")
            try:
                n, m = _int_token(parts[0]), _int_token(parts[1])
            except ValueError:
                raise EdgeListError(lineno, "header must be two integers") from None
            if n < 0 or m < 0:
                raise EdgeListError(lineno, "header values must be non-negative")
            if n > _MAX_VERTICES:
                raise EdgeListError(
                    lineno, f"vertex count {n} exceeds the int32 id range"
                )
            header = (n, m)
            header_line = lineno
            continue
        if len(parts) != 2:
            raise EdgeListError(lineno, "edge line must be 'u v'")
        try:
            u, v = _int_token(parts[0]), _int_token(parts[1])
        except ValueError:
            raise EdgeListError(lineno, "edge line must be two integers") from None
        if len(src) >= m:
            raise EdgeListError(lineno, f"more than {m} edges")
        if not (0 <= u < n):
            raise EdgeListError(lineno, f"vertex {u} out of range [0, {n})")
        if not (0 <= v < n):
            raise EdgeListError(lineno, f"vertex {v} out of range [0, {n})")
        if u == v:
            raise EdgeListError(lineno, f"self-loop at vertex {u}")
        key = u * n + v
        if key in seen:
            raise EdgeListError(lineno, f"duplicate directed edge {u} -> {v}")
        seen.add(key)
        src.append(u)
        dst.append(v)
    if header is None:
        raise EdgeListError(1, "missing header")
    if len(src) != m:
        raise EdgeListError(
            header_line, f"expected {m} edges, found {len(src)}"
        )
    return Digraph.from_edge_arrays(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    )


def write_edge_list(g: Digraph) -> str:
    """Serialize per out-adjacency order; parse_edge_list round-trips exactly.

    Every edge line is two items of one per-vertex token table.  Item v is
    the digits of v and '\\n' in w + 1 bytes, w the width of n - 1, with
    NUL bytes where the leading zeros would be.  Sources repeat the table
    along the CSR rows and destinations gather it, so no per-edge source
    array is built.  The source's '\\n' becomes ' ', and one byte delete
    drops the NULs.
    """
    w = len(str(g.n - 1))
    digits = np.empty((g.n, w + 1), dtype=np.uint8)
    digits[:, w] = ord("\n")
    rest = np.arange(g.n, dtype=np.int32)
    for k in range(w):
        col = digits[:, w - 1 - k]
        np.remainder(rest, 10, out=col, casting="unsafe")
        col += ord("0")
        rest //= 10
        # Digit k from the right: the ids below 10^k, k > 0, have none.
        col[: 10**k if k else 0] = 0
    table = digits.view(f"V{w + 1}").ravel()
    cells = np.empty((g.m, 2), dtype=table.dtype)
    cells[:, 0] = np.repeat(table, g.out_degrees)
    cells[:, 1] = _gather(table, g.edge_dst)
    cells.view(np.uint8)[:, w] = ord(" ")
    header = f"{g.n} {g.m}\n".encode("ascii")
    return (header + cells.tobytes().translate(None, b"\0")).decode("ascii")


# ---- generators --------------------------------------------------------------


def _check_vertex_count(n: int) -> None:
    """Reject n beyond the int32 ids before anything is allocated."""
    if n > _MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the int32 id range")


def gen_complete_digraph(n: int) -> Digraph:
    """All n(n-1) ordered pairs; out-rows ascending by neighbor id."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_vertex_count(n)
    base = np.tile(np.arange(n - 1, dtype=np.int32), (n, 1))
    base += base >= np.arange(n, dtype=np.int32)[:, None]
    indptr = np.arange(n + 1, dtype=np.int64) * (n - 1)
    return Digraph(n, indptr, base.ravel())


def _duplicate_rows(mat: np.ndarray) -> np.ndarray:
    """Whether each row of `mat` repeats a value.

    One row sort and one compare of neighbours in the flattened sort; pair
    k compares cells k and k + 1, which lie in different rows when the
    row length divides k + 1, so those pairs are masked.
    """
    rows, d = mat.shape
    d = max(1, d)
    srt = np.sort(mat, axis=1).ravel()
    dup = srt[1:] == srt[:-1]
    dup[d - 1 :: d] = False
    flags = np.zeros(rows, dtype=bool)
    flags[np.flatnonzero(dup) // d] = True
    return flags


def _sample_rows_rejection(rng, rows, n_choices, d):
    """rows x d matrix, each row d distinct draws from [0, n_choices).

    Each round redraws the rows that still repeat a value, in ascending
    order, until none is left.  Int32 draws take their 32-bit words from
    the bit generator, which keeps the spare half of a 64-bit word between
    calls, so how the draws are cut into calls changes no value.  The
    retry rows therefore come from bulk draws, handed out in stream order;
    rows drawn past the last round are never read.
    """
    mat = rng.integers(0, n_choices, size=(rows, d), dtype=np.int32)
    bad = np.flatnonzero(_duplicate_rows(mat))
    # A bulk draw covers the retries that the first draw's share of clean
    # rows predicts, and never holds more rows than `mat`.
    per_clean = rows / max(1, rows - bad.size)
    spare = mat[:0]
    spare_bad = np.zeros(0, dtype=bool)
    while bad.size:
        k = bad.size
        if spare.shape[0] < k:
            more = min(rows, math.ceil(k * per_clean))
            fresh = rng.integers(0, n_choices, size=(more, d), dtype=np.int32)
            spare = np.concatenate((spare, fresh))
            spare_bad = np.concatenate((spare_bad, _duplicate_rows(fresh)))
        mat[bad] = spare[:k]
        bad = bad[spare_bad[:k]]
        spare, spare_bad = spare[k:], spare_bad[k:]
    return mat


def _sample_rows_fisher_yates(rng, rows, n_choices, d):
    """Dense case: partial Fisher-Yates per row, blocked to bound memory.

    A block of b rows draws all its swap targets in one call, step i's b
    of them from [i, n_choices): the values d calls of one bound each
    would give.  The pool is position-major, one column per row of the
    block, so step i swaps one contiguous pool row with one cell per
    column.  Later blocks reuse the pool once the cells the last block
    moved hold their positions again.
    """
    out = np.empty((rows, d), dtype=np.int32)
    dtype = np.int16 if n_choices <= np.iinfo(np.int16).max else np.int32
    block = min(rows, max(1, _FY_BLOCK_CELLS // max(1, n_choices)))
    pool = np.empty((n_choices, block), dtype=dtype)
    pool[:] = np.arange(n_choices, dtype=dtype)[:, None]
    cells = pool.reshape(-1)
    steps = np.arange(d)[:, None]
    for lo in range(0, rows, block):
        if lo:
            cells[target] = target // block
            pool[:d] = steps
        b = min(block, rows - lo)
        # The flat pool index of each step's target in each column.
        target = rng.integers(steps, n_choices, size=(d, b))
        target *= block
        target += np.arange(b)
        for i, t in enumerate(target):
            drawn = cells[t]
            cells[t] = pool[i, :b]
            pool[i, :b] = drawn
        out[lo : lo + b] = pool[:d, :b].T
    return out


def gen_random_out_regular(n: int, d: int, seed: int) -> Digraph:
    """Every vertex gets d out-neighbors drawn uniformly without replacement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_vertex_count(n)
    if d < 0:
        raise ValueError("d must be >= 0")
    if d >= n:
        raise ValueError(f"d = {d} must be < n = {n}")
    rng = np.random.default_rng(seed)
    if d == n - 1:
        return gen_complete_digraph(n)
    # Rejection keeps the clean-row probability above ~0.2 while
    # d^2 <= 3(n-1); denser rows fall back to per-row Fisher-Yates.
    if d * d <= 3 * (n - 1):
        mat = _sample_rows_rejection(rng, n, n - 1, d)
    else:
        mat = _sample_rows_fisher_yates(rng, n, n - 1, d)
    # Drawn from [0, n-2]; shift to skip each row's own vertex.
    mat += mat >= np.arange(n, dtype=np.int32)[:, None]
    indptr = np.arange(n + 1, dtype=np.int64) * d
    return Digraph(n, indptr, mat.ravel())


def gen_regular_tournament(n: int, seed: int) -> Digraph:
    """Circulant orientation u -> u+j (mod n), j = 1..(n-1)/2, randomly relabeled."""
    if n < 1 or n % 2 == 0:
        raise ValueError("regular tournaments require odd order n >= 1")
    _check_vertex_count(n)
    k = (n - 1) // 2
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).astype(np.int32)
    shifts = (
        np.arange(n, dtype=np.int64)[:, None] + np.arange(1, k + 1, dtype=np.int64)
    ) % n
    rows = np.empty((n, k), dtype=np.int32)
    rows[perm] = perm[shifts]
    indptr = np.arange(n + 1, dtype=np.int64) * k
    return Digraph(n, indptr, rows.ravel())


# ---- derived graphs -----------------------------------------------------------


def extract_exact_outdegree_subgraph(g: Digraph, d: int) -> Digraph:
    """Spanning subgraph where every vertex keeps its first d out-edges.

    Raises ValueError for the empty graph (it has no minimum out-degree)
    and PreconditionOutDegree when some vertex has fewer than d out-edges.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    mo = min_out_degree(g)
    if mo < d:
        raise PreconditionOutDegree(mo, d)
    if bool((g.out_degrees == d).all()):
        return g
    starts = g._indptr[:-1]
    take = (starts[:, None] + np.arange(d, dtype=np.int64)).ravel()
    indptr = np.arange(g.n + 1, dtype=np.int64) * d
    return Digraph(g.n, indptr, g._indices[take])


def min_out_degree(g: Digraph) -> int:
    if g.n < 1:
        raise ValueError("empty graph has no minimum out-degree")
    return int(g.out_degrees.min())
