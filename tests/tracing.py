"""Memory measurement for tests: what one call allocates, by tracemalloc.

numpy reports its buffers to tracemalloc, so a traced peak counts exactly
the bytes a call allocated, repeats from run to run and does not depend on
the host's speed, unlike the RSS of the process.
"""
from __future__ import annotations

import gc
import tracemalloc
from typing import Callable, TypeVar

T = TypeVar("T")


def traced_peak(call: Callable[[], T]) -> tuple[T, int]:
    """(call(), the most bytes traced at once while it ran)."""
    gc.collect()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
