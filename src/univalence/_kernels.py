"""Hot numeric kernels, vectorized with numpy.

``laurent_derivs`` evaluates the derivative stack of a Laurent-family function
and ``winding_sum`` accumulates the phase of a closed polyline around each of
a vector of points. Both are pure functions of their arguments.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Laurent-family derivative evaluation: f(z) = b z + b0 + sum tail[k] z^-(k+1)
# Returns the stack (f, f', ..., f^(order)) evaluated at each point.
# ---------------------------------------------------------------------------


def laurent_derivs(points, b, b0, tail, order=4, inv=None):
    # Row r of term k is (-1)^r kk (kk+1) ... (kk+r-1) tail[k] z^-(k+1+r); each
    # row sees the same operation sequence at every order, so a lower-order
    # stack is bitwise the leading rows of a higher-order one. Entries past
    # double range come out non-finite, for the caller to diagnose. ``inv``,
    # when given, is 1.0 / points from a caller that evaluates several
    # functions at the same points.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.empty((order + 1,) + points.shape, dtype=np.complex128)
        np.multiply(b, points, out=out[0])
        out[0] += b0
        if order >= 1:
            out[1] = b
            out[2:] = 0.0
        x = p = (1.0 / points if inv is None else inv) if tail.shape[0] else None
        for k in range(tail.shape[0]):
            if k:
                p = p * x
            kk = k + 1.0
            t = tail[k] * p
            out[0] += t
            coeff = 1.0
            for r in range(1, order + 1):
                t = t * x
                coeff = coeff * (kk + (r - 1.0))
                if r % 2:
                    out[r] -= coeff * t
                else:
                    out[r] += coeff * t
        return out


# ---------------------------------------------------------------------------
# Winding number support: accumulated phase and minimum segment distance.
# ---------------------------------------------------------------------------


def winding_sum(xs, ys, px, py):
    # One row per probe point (px, py may be scalars or arrays): the phase
    # sum and the distance to the nearest segment, reduced along the row.
    px = np.asarray(px, dtype=np.float64)[..., None]
    py = np.asarray(py, dtype=np.float64)[..., None]
    ax = xs[:-1] - px
    ay = ys[:-1] - py
    bx = xs[1:] - px
    by = ys[1:] - py
    total = np.sum(np.arctan2(ax * by - ay * bx, ax * bx + ay * by), axis=-1)
    ex = bx - ax
    ey = by - ay
    ee = ex * ex + ey * ey
    t = np.where(ee > 0.0, -(ax * ex + ay * ey) / np.where(ee > 0.0, ee, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    dx = ax + t * ex
    dy = ay + t * ey
    min_dist = np.sqrt(np.min(dx * dx + dy * dy, axis=-1))
    return total, min_dist
