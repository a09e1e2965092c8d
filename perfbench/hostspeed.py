"""Host speed reference: a fixed numpy kernel timed next to every timed call.

On a shared machine other tenants slow a whole process by 20-40% for tens of
seconds at a time, so a call's raw time says as much about the neighbours as
about the program.  Timing a fixed kernel just before and just after a call
measures that slowdown, and ``scale`` turns the call's time into its time at
the reference speed.  The kernel uses numpy only, a small matrix product and
a vectorized cosine, never spectralvol, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time at the reference speed: its typical time on the 2-vCPU
# Xeon virtual machine the benchmark was written on.  A constant, so scaled
# times from different runs and commits compare directly.
REFERENCE_S = 0.008

_MATRIX = np.random.default_rng(1).standard_normal((160, 160))
_VECTOR = np.random.default_rng(2).standard_normal(400_000)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(4):
        _MATRIX @ _MATRIX
    float(np.cos(_VECTOR).sum())
    return time.perf_counter() - t0


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
