"""Exception types shared across the package.

Two families matter to callers: user-facing input problems (bad edge
lists, out-degree below the solve threshold, instances too large for the
exhaustive oracle) and internal invariant violations.  The latter are
theorems about correct code -- they are never expected on valid input,
and the CLI maps them to a distinct exit code.
"""
from __future__ import annotations


class EdgeListError(ValueError):
    """Malformed edge-list text.  `line` is 1-based, counting every physical line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SpiderFormatError(ValueError):
    """Malformed spider text."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class InsufficientOutDegree(ValueError):
    """A vertex has out-degree below the requested exact out-degree."""

    def __init__(self, vertex: int, actual: int, needed: int):
        self.vertex = vertex
        self.actual = actual
        self.needed = needed
        super().__init__(
            f"vertex {vertex} has out-degree {actual} < {needed}"
        )


class PreconditionOutDegree(ValueError):
    """Input graph does not meet the solver's minimum out-degree threshold."""

    def __init__(self, min_out: int, needed: int):
        self.min_out = min_out
        self.needed = needed
        super().__init__(
            f"minimum out-degree {min_out} is below the required {needed}"
        )


class InstanceTooLarge(ValueError):
    """Graph exceeds the exhaustive oracle's vertex cap."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"graph has {n} vertices, exhaustive cap is {cap}")


class InternalInvariantError(AssertionError):
    """A quantity the underlying theorems guarantee came out wrong.

    Raising one of these means the implementation (not the input) is
    defective; they exist so bugs surface as loud, named failures.
    """


class EmptyA(InternalInvariantError):
    """No vertex reached the in-degree threshold, impossible for out-regular input."""


class ExtensionExhausted(InternalInvariantError):
    """Greedy extension found no attachment vertex: a precondition was violated."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"no attachment vertex available for extender {vertex}")
