"""Calibration kernel that puts times on a reference machine speed.

The machine this benchmark runs on shares its cores with other tenants, and
the speed left to one process drifts by tens of percent over tens of
seconds. The benchmark therefore times this fixed kernel around every pass
and every set-up sample, and reports ``seconds * REFERENCE_S / kernel_s``:
the time the same work would take when the kernel takes ``REFERENCE_S``.
The kernel mixes what the program spends its time on: interpreter-bound
dict and loop work, many small numpy calls, and a scatter-add that streams
arrays larger than the per-core caches (as the Katz series does).

Do not change the kernel, its array sizes or ``REFERENCE_S``: they define the
unit, and results from before and after such a change are not comparable.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.2


class Calibration:
    """Owns the kernel's arrays (16 MB, allocated once) and times the kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random(64)
        self.idx = rng.integers(0, 100_000, 1_000_000).astype(np.intp)
        self.weights = rng.random(1_000_000)

    def seconds(self) -> float:
        """Wall time of one run of the fixed kernel."""
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(300_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        acc = 0.0
        for i in range(6000):
            acc += float(np.add.reduce(self.small * i))
            self.small[i & 63] = acc % 1.0
        for _ in range(40):
            np.bincount(self.idx, weights=self.weights, minlength=100_000)
        return time.perf_counter() - t0


def scale(kernel_s: float) -> float:
    """Factor that turns a wall time measured next to ``kernel_s`` into reference seconds."""
    return REFERENCE_S / kernel_s
