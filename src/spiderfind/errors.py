"""Exception types shared across the package.

Two families matter to callers: user-facing input problems (bad edge
lists, out-degree below a required threshold, instances too large for the
exhaustive oracle) and internal invariant violations.  The latter are
theorems about correct code -- they are never expected on valid input,
and the CLI maps them to a distinct exit code.
"""
from __future__ import annotations


class _LineError(ValueError):
    """A parse error at a 1-based line, counting every physical line."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EdgeListError(_LineError):
    """Malformed edge-list text."""


class SpiderFormatError(_LineError):
    """Malformed spider text."""


class PreconditionOutDegree(ValueError):
    """A graph's minimum out-degree is below a required threshold: 2l for
    the solver, d for an exact out-degree-d subgraph."""

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
