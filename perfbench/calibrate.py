"""Reference kernels that measure how fast the host runs at the moment.

The 2-vCPU host this benchmark was built on switches between speed states
for seconds to minutes at a time.  The change is ~1.5x for
interpreter-bound Python and ~1.1x for numpy array code.  The raw op times
of some workloads therefore spread by 18-40% across runs, which is wider
than any regression bound worth having.

A workload that names a kernel has it timed every `INTERVAL_S` seconds of
wall time.  The kernel is benchmark code, not spiderfind.  Each op's time
is multiplied by `reference_s / kernel_s`, where `kernel_s` is the median
of the last five kernel times.  That gives seconds on a host where the
kernel takes `reference_s`, which is its time on that host in its fast
state.  A change to spiderfind moves the op time and not the kernel, so it
shows in full.

Each workload names the kernel whose speed was measured to track its op:
the small Python kernel for the cache-resident oracle, the large one for
writing megabytes of edge-list text, and the numpy one for the many short
numpy calls of small solves.  `large_regular` names none and reports raw
seconds: its numpy-bound op moves least with the host state, and scaling
widened its spread over ten seeds from 0.05 to 0.09.
"""
from __future__ import annotations

import functools
import statistics
import time

import numpy as np


@functools.cache
def _data(size: int, high: int) -> np.ndarray:
    # Built on first use, so a run holds only its own kernel's data.
    return np.random.default_rng(20260217).integers(0, high, size=size)


@functools.cache
def _text(size: int, high: int) -> str:
    return " ".join(str(v) for v in _data(size, high).tolist())


def python_kernel() -> int:
    """Parse, hash and format 12k integers: cache-resident interpreter work."""
    seen = set()
    out = []
    for tok in _text(12_000, 10**6).split():
        v = int(tok)
        seen.add(v)
        out.append(f"{v} {v % 977}")
    return len("\n".join(out)) + len(seen)


def python_big_kernel() -> int:
    """Parse and hash 150k integers into a set and two lists, like text I/O."""
    seen = set()
    src = []
    dst = []
    for i, tok in enumerate(_text(150_000, 10**9).split()):
        v = int(tok)
        seen.add(v)
        (src if i & 1 else dst).append(v)
    return len(seen) + len(src) + len(dst)


def numpy_kernel() -> int:
    """Sort, search and count over 100k int64: array-bound like the solver."""
    arr = _data(100_000, 2**40)
    keys = np.sort(arr)
    pos = np.searchsorted(keys, arr[::2])
    return int(np.bincount(pos & 1023).max())


# Per kernel: seconds at the reference speed (the fast state of the host
# above), and the wall-time interval between samples, which keeps the
# kernel's share of a run near 4%.
KERNELS = {
    python_kernel: (0.0070, 0.25),
    python_big_kernel: (0.052, 1.0),
    numpy_kernel: (0.0100, 0.25),
}


class HostSpeed:
    """Runs one kernel now and then and scales op times by its speed.

    With no kernel, nothing runs and the factor is 1.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self._last = -float("inf")
        if kernel is not None:
            kernel()  # untimed: builds the kernel's data

    def maybe_sample(self) -> None:
        """Time the kernel if its interval has passed since the last sample."""
        now = time.perf_counter()
        if self.kernel is None or now - self._last < KERNELS[self.kernel][1]:
            return
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def factor(self) -> float:
        """reference_s / kernel_s, from the median of the last five samples."""
        if self.kernel is None:
            return 1.0
        return KERNELS[self.kernel][0] / statistics.median(self.samples[-5:])
