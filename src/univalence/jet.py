"""Derivative-stack arithmetic over the complex numbers.

A derivative *stack* is a numpy array of shape ``(order+1, ...)`` holding a
function's value and its first ``order`` derivatives at each point. The
quotient recurrence below carries whole stacks through one operation, for
any order up to 4: the Moebius quotient of the catalog is built from it.
"""

from __future__ import annotations

import numpy as np

_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))


def stack_div(a, b):
    q = [a[0] / b[0]]
    for i in range(1, len(a)):
        s = a[i]
        for k in range(i):
            s = s - _BINOM[i][k] * (q[k] * b[i - k])
        q.append(s / b[0])
    return np.stack(q)
