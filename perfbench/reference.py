"""A fixed reference workload that measures how fast the machine is right now.

Shared virtual machines change speed by tens of percent over seconds to
minutes, in interpreter-bound and numpy-bound code alike. The benchmark
times this reference before and after every timed call and scales the
call's time by ``NOMINAL_S`` over the mean of the two, which cancels the
machine's drift but not a change of the program. The reference does the three kinds of work the
program does: interpreter work on small objects, arithmetic over long
complex arrays, and many numpy calls on short arrays. It allocates nothing
large, so the allocator state the program leaves behind does not change it.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time on the machine the bounds were set on, in a quiet period
# (a 2-vCPU Intel Xeon virtual machine); scaled times read as milliseconds there.
NOMINAL_S = 3.5e-3

_TABLE = {(i, 1): i for i in range(256)}
_LONG = np.exp(1j * np.linspace(0.0, 40.0, 262144)) + 1.5
_LONG_OUT = np.empty_like(_LONG)
_SHORT = np.exp(1j * np.linspace(0.0, 6.0, 192)) + 1.5


def _interpreter():
    total = 0
    for i in range(5000):
        total += _TABLE[(i & 255, 1)]
    return total


def _long_arrays():
    np.multiply(_LONG, _LONG, out=_LONG_OUT)
    np.divide(1.0, _LONG_OUT, out=_LONG_OUT)
    np.add(_LONG_OUT, _LONG, out=_LONG_OUT)


def _short_arrays():
    for _ in range(50):
        np.log(_SHORT * _SHORT + 1.0).sum()


def reference_s() -> float:
    """Seconds the reference takes now: the faster of two tries per part."""
    total = 0.0
    for part in (_interpreter, _long_arrays, _short_arrays):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total
