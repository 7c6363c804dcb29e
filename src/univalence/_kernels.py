"""Hot numeric kernels, vectorized with numpy.

``laurent_derivs`` evaluates the derivative stack of a Laurent-family function
and ``winding_sum`` accumulates the phase of a closed polyline around a point.
Both are pure functions of their arguments.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Laurent-family derivative evaluation: f(z) = b z + b0 + sum tail[k] z^-(k+1)
# Returns the stack (f, f', f'', f''', f'''') evaluated at each point.
# ---------------------------------------------------------------------------


def laurent_derivs(points, b, b0, tail):
    x = 1.0 / points
    d0 = b * points + b0
    d1 = np.full_like(points, b)
    d2 = np.zeros_like(points)
    d3 = np.zeros_like(points)
    d4 = np.zeros_like(points)
    p = x.copy()
    for k in range(tail.shape[0]):
        kk = k + 1.0
        t = tail[k] * p
        d0 = d0 + t
        t = t * x
        d1 = d1 - kk * t
        t = t * x
        d2 = d2 + kk * (kk + 1.0) * t
        t = t * x
        d3 = d3 - kk * (kk + 1.0) * (kk + 2.0) * t
        t = t * x
        d4 = d4 + kk * (kk + 1.0) * (kk + 2.0) * (kk + 3.0) * t
        p = p * x
    return np.stack((d0, d1, d2, d3, d4))


# ---------------------------------------------------------------------------
# Winding number support: accumulated phase and minimum segment distance.
# ---------------------------------------------------------------------------


def winding_sum(xs, ys, px, py):
    ax = xs[:-1] - px
    ay = ys[:-1] - py
    bx = xs[1:] - px
    by = ys[1:] - py
    total = float(np.sum(np.arctan2(ax * by - ay * bx, ax * bx + ay * by)))
    ex = bx - ax
    ey = by - ay
    ee = ex * ex + ey * ey
    t = np.where(ee > 0.0, -(ax * ex + ay * ey) / np.where(ee > 0.0, ee, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    dx = ax + t * ex
    dy = ay + t * ey
    min_dist = float(np.sqrt(np.min(dx * dx + dy * dy)))
    return total, min_dist
