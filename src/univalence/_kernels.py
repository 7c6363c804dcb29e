"""Hot numeric kernels, vectorized with numpy.

``laurent_derivs_scaled`` is the one Laurent kernel: the rows a caller asks
for of the scaled stack z^j u^(j) of a Laurent map u, from z and 1/z, in
which the power of 1/z of a term does not advance from row to row. Every
catalog function's values and criterion pieces are closed forms in these
rows (``catalog.MeromorphicFn.pieces``). ``winding_sum`` counts the signed
crossings of a ray from each of a vector of points by a closed polyline, for
a batch of polylines at once, and gives a point no number where rounding
could decide its count. Both are pure functions of their arguments.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Laurent-family scaled rows: f(z) = b z + b0 + sum tail[k] z^-(k+1), row j
# z^j f^(j), so no row advances the power.
# ---------------------------------------------------------------------------


def laurent_derivs_scaled(points, inv, b, b0, tail, order=4, first=0):
    # Rows first..order of z^j u^(j) at each point z, given inv = 1/z: row j
    # is b z if j <= 1, plus b0 if j = 0, plus (-1)^j (k+1)(k+2)...(k+j)
    # tail[k] z^-(k+1) for each term k, a multiple of the term's power
    # inv^(k+1) whatever j is, so the power advances once per term. A row's
    # first part writes it, b0 is added next, and the terms follow in order
    # k = 0, 1, ... A zero coefficient adds no term, and a row with no part
    # is zero. Each entry is a function of its own z and 1/z, computed alike
    # at every length: no multiply writes into one of its operands.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.empty((order + 1 - first,) + points.shape, np.complex128)
        fresh = set(range(first, order + 1))

        def part(j, c, x):
            row = out[j - first]
            if j not in fresh:
                row += c * x
                return
            if c == 1:
                np.copyto(row, x)
            else:
                np.multiply(c, x, out=row)
            fresh.discard(j)
            if j == 0 and b0 != 0:
                row += b0

        if b != 0:
            for j in range(first, min(order, 1) + 1):
                part(j, b, points)
        for k, t in enumerate(tail):
            power = inv if k == 0 else power * inv
            if t != 0:
                for j in range(first, order + 1):
                    part(j, t * math.prod(range(-k - j, -k)), power)
        for j in fresh:
            out[j - first] = b0 if j == 0 else 0.0
        return out


# ---------------------------------------------------------------------------
# Winding numbers: a signed crossing count, each crossing certified.
# ---------------------------------------------------------------------------


def winding_sum(xs, ys, px, py):
    # Contours xs, ys (..., n) and probes px, py (..., m) share batch axes: per
    # probe, the winding number in turns, NaN where rounding may decide it; a
    # row reads as a one-row call reads.
    vx = xs[..., None, :] - px[..., None]
    vy = ys[..., None, :] - py[..., None]
    # Signed crossings of the ray y = 0, x > 0 by the segments i -> i+1 and the
    # closing one n-1 -> 0 (above the ray: vy > 0), from their intercepts x0,
    # and segments from a vertex on the ray's line, which may run through it.
    n, up = vx.shape[-1], vy > 0
    a = np.flatnonzero((up != np.roll(up, -1, axis=-1)) | (vy == 0))  # flat index of a
    r, b = a // n, a + 1 - n * ((a + 1) % n == 0)  # its probe; flat index of b
    ax, ay, bx, by = vx.take(a), vy.take(a), vx.take(b), vy.take(b)
    with np.errstate(over="ignore", invalid="ignore"):  # 0/0 along the ray's line
        dy = ay - by
        x0 = ax + ay / dy * (bx - ax)
    sign = np.where(x0 > 0.0, np.subtract(up.take(b), up.take(a), dtype=float), 0.0)
    turns = np.bincount(r, sign, up[..., 0].size).astype(float)  # ints for an empty r
    # A crossing is certain where |x0| > 1e-12 (|ax| + |bx|), past rounding, and
    # ay - by is finite (an overflow reads x0 as ax), or along the line beside
    # the probe; a probe with any other segment lies within rounding of one.
    sure = (np.abs(x0) > 1e-12 * (np.abs(ax) + np.abs(bx))) & np.isfinite(dy)
    beside = (ay == by) & (np.sign(ax) * np.sign(bx) > 0)  # no product to underflow
    turns[r[~(sure | beside)]] = np.nan
    return turns.reshape(up.shape[:-1])
