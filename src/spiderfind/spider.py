"""Spider certificates and their independent verifier.

A (2,l)-spider is l directed 2-paths leaf -> middle -> root, pairwise
vertex-disjoint outside the shared root.  The verifier below is the ground
truth for every other module: it looks only at the graph's adjacency and a
candidate Spider value, never at solver state.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .digraph import Digraph, _int_token
from .errors import SpiderFormatError

__all__ = [
    "Spider",
    "ViolationKind",
    "ViolationReport",
    "verify_spider",
    "format_spider",
    "parse_spider",
]


@dataclass(frozen=True)
class Spider:
    """Root plus ordered (leaf, middle) legs; leg (x, y) encodes x -> y -> root."""

    root: int
    legs: tuple[tuple[int, int], ...] = ()

    def vertices(self) -> set[int]:
        out = {self.root}
        for leaf, mid in self.legs:
            out.add(leaf)
            out.add(mid)
        return out


class ViolationKind(enum.Enum):
    WRONG_LEG_COUNT = "wrong-leg-count"
    ROOT_IN_LEG = "root-in-leg"
    REPEATED_VERTEX = "repeated-vertex"
    MISSING_EDGE = "missing-edge"


@dataclass(frozen=True)
class ViolationReport:
    kind: ViolationKind
    message: str

    def __str__(self) -> str:
        return self.message


def verify_spider(g: Digraph, s: Spider, ell: int) -> Optional[ViolationReport]:
    """Return None iff s is a valid (2,ell)-spider in g.

    Checks run in a fixed order -- leg count, vertex distinctness, then edge
    existence -- and the first violation wins, so diagnostics are
    deterministic.  Only g's adjacency is consulted.  Raises ValueError
    for ell < 1, which names no spider.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if len(s.legs) != ell:
        return ViolationReport(
            ViolationKind.WRONG_LEG_COUNT,
            f"expected {ell} legs, found {len(s.legs)}",
        )
    seen = {s.root}
    for leaf, mid in s.legs:
        for v in (leaf, mid):
            if v == s.root:
                return ViolationReport(
                    ViolationKind.ROOT_IN_LEG,
                    f"root {s.root} appears inside a leg",
                )
            if v in seen:
                return ViolationReport(
                    ViolationKind.REPEATED_VERTEX,
                    f"vertex {v} appears more than once",
                )
            seen.add(v)
    for leaf, mid in s.legs:
        if not g.has_edge(leaf, mid):
            return ViolationReport(
                ViolationKind.MISSING_EDGE,
                f"edge {leaf} -> {mid} not in graph",
            )
        if not g.has_edge(mid, s.root):
            return ViolationReport(
                ViolationKind.MISSING_EDGE,
                f"edge {mid} -> {s.root} not in graph",
            )
    return None


def format_spider(s: Spider) -> str:
    lines = [f"root {s.root}"]
    lines.extend(f"{leaf} {mid}" for leaf, mid in s.legs)
    return "\n".join(lines) + "\n"


def parse_spider(text: str) -> Spider:
    """Parse the spider text format: 'root r' then one 'leaf middle' per leg."""
    root = None
    legs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if root is None:
            if len(parts) != 2 or parts[0] != "root":
                raise SpiderFormatError(lineno, "expected 'root <id>'")
            try:
                root = _int_token(parts[1])
            except ValueError:
                raise SpiderFormatError(lineno, "root id must be an integer") from None
            continue
        if len(parts) != 2:
            raise SpiderFormatError(lineno, "leg line must be 'leaf middle'")
        try:
            legs.append((_int_token(parts[0]), _int_token(parts[1])))
        except ValueError:
            raise SpiderFormatError(lineno, "leg line must be two integers") from None
    if root is None:
        raise SpiderFormatError(1, "missing 'root' line")
    return Spider(root=root, legs=tuple(legs))
