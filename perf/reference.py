"""Fixed reference work that tells how fast the host runs right now.

The host this benchmark was built on shares its CPUs with other machines:
over seconds to minutes it runs the same code up to ~1.8x slower, and a
median over one run cannot remove a slow stretch that covers the whole run.
So every timed child runs reference slices between its figure calls, and
the parent scales the calls' time by how fast the slices ran.

A slice is fixed work owned by the benchmark, never by the program under
test, so a change to the program cannot speed it up: an interpreter loop,
small numpy array operations and small matrix products, the three kinds of
work the figure calls do.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one slice takes at reference speed: the fast state of a 2-vCPU
#: x86-64 VM (Python 3.11, OpenBLAS on one thread) on which the benchmark
#: was calibrated.
SLICE_S = 0.03
#: After each timed figure call, slices run until their time adds up to
#: this share of the child's figure-call time.
SHARE = 0.3

_X = np.linspace(0.0, 1.0, 16)
_Y = np.linspace(1.0, 2.0, 16)
_M = np.random.default_rng(0).standard_normal((64, 64))


def run_slice() -> float:
    """Run one slice; return its host seconds."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(100_000):
        acc += (i * i) % 7
        table[i & 255] = acc
    for _ in range(4_000):
        np.sin(_X * 1.5 + _Y).sum()
    for _ in range(1_000):
        _M @ _M
    return time.perf_counter() - start


def speed(slices: int, slice_s: float) -> float:
    """Host speed relative to the reference: ``SLICE_S`` over the measured
    seconds per slice (below 1 on a slower host)."""
    return SLICE_S * slices / slice_s
