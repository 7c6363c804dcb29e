"""Derivative-stack arithmetic over the complex numbers.

A derivative *stack* is a numpy array of shape ``(order+1, ...)`` holding a
function's value and its first ``order`` derivatives at each point. The
quotient, exp and log recurrences below carry whole stacks through one
operation each, for any order up to 4: the Moebius quotient of the catalog
and the power ``v = (g'/f')^alpha`` are built from them.
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


def stack_exp(a):
    g = [np.exp(a[0])]
    for n in range(1, len(a)):
        s = a[1] * g[n - 1]
        for k in range(2, n + 1):
            s = s + _BINOM[n - 1][k - 1] * (a[k] * g[n - k])
        g.append(s)
    return np.stack(g)


def stack_log(a):
    """Stack of the principal log(a); derivatives are branch-independent."""
    g = [np.log(a[0])]
    for n in range(1, len(a)):
        s = a[n]
        for j in range(n - 1):
            s = s - _BINOM[n - 1][j] * (g[j + 1] * a[n - 1 - j])
        g.append(s / a[0])
    return np.stack(g)
