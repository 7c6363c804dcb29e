"""Hot numeric kernels, vectorized with numpy.

``laurent_derivs`` evaluates the rows a caller asks for of the derivative
stack of a Laurent-family function: from the value or from the first
derivative up to a given order. It skips terms whose coefficient is zero and
lets each row's first term write the row, so no pass adds zeros; the rows are
bitwise those of the full stack. ``winding_sum`` counts the signed crossings
of a ray from each of a vector of points by a closed polyline, for a batch of
polylines at once, summing the phase only where rounding may decide a count
and taking the exact distance only where a bound does not clear the point.
Both are pure functions of their arguments.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Laurent-family derivative evaluation: f(z) = b z + b0 + sum tail[k] z^-(k+1)
# Returns the rows first..order of the stack (f, f', ..., f^(order)) at each
# point.
# ---------------------------------------------------------------------------


def laurent_derivs(points, b, b0, tail, order=4, inv=None, first=0):
    # Row r of term k is (-1)^r kk (kk+1) ... (kk+r-1) tail[k] z^-(k+1+r); each
    # row sees the same operation sequence at every order and every ``first``
    # (0 or 1), so a stack is bitwise the matching rows of any larger one.
    # Entries past double range come out non-finite, for the caller to
    # diagnose. ``inv``, when given, is 1.0 / points from a caller that
    # evaluates several functions at the same points.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.empty((order + 1 - first,) + points.shape, dtype=np.complex128)
        if first == 0:
            np.multiply(b, points, out=out[0])
            out[0] += b0
        x = p = (1.0 / points if inv is None else inv) if tail.shape[0] else None
        terms = [k for k in range(tail.shape[0]) if tail[k] != 0]
        if len(terms) < tail.shape[0] and not _zero_terms_vanish(b, b0, x):
            terms = range(tail.shape[0])
        for k in range(terms[-1] + 1 if terms else 0):
            if k:
                p = p * x
            if k not in terms:
                continue
            kk = k + 1.0
            t = tail[k] * p
            if first == 0:
                out[0] += t
            coeff = 1.0
            for r in range(1, order + 1):
                t = t * x
                coeff = coeff * (kk + (r - 1.0))
                row = out[r - first]
                if k != terms[0]:
                    if r % 2:
                        row -= coeff * t
                    else:
                        row += coeff * t
                elif r % 2:
                    # The first term writes the row: b - term and 0.0 -/+ term
                    # are what -=/+= onto b and onto a zero fill compute, while
                    # a negation would give -0 where 0.0 - term gives +0.
                    np.subtract(b if r == 1 else 0.0, coeff * t, out=row)
                else:
                    np.add(0.0, coeff * t, out=row)
        if not terms and order >= 1:
            out[1 - first] = b
            out[2 - first :] = 0.0
        return out


def _zero_terms_vanish(b, b0, x):
    """Whether skipping the terms with a zero coefficient leaves every row's
    bits: such a term adds +-0 to each row where 1/z is finite, which changes
    only a row holding -0, and only a -0 part of b or b0 puts one there."""
    parts = (b.real, b.imag, b0.real, b0.imag)
    return not any(v == 0 and np.signbit(v) for v in parts) and np.isfinite(x).all()


# ---------------------------------------------------------------------------
# Winding number support: certified crossing count and minimum distance.
# ---------------------------------------------------------------------------


def winding_sum(xs, ys, px, py, clearance):
    # Contours xs, ys (..., n) and probes px, py (..., m) share batch axes: per
    # probe, the winding number in turns and the distance, reduced as a
    # one-row call reduces.
    vx = xs[..., None, :] - px[..., None]
    vy = ys[..., None, :] - py[..., None]
    # Signed crossings of the ray y = 0, x > 0 by the segments i -> i+1 and the
    # closing one n-1 -> 0 (above the ray: vy > 0), from their intercepts x0,
    # and segments from a vertex on the ray's line, whose phase may be +-pi.
    n, up = vx.shape[-1], vy > 0
    a = np.flatnonzero((up != np.roll(up, -1, axis=-1)) | (vy == 0))  # flat index of a
    r, b = a // n, a + 1 - n * ((a + 1) % n == 0)  # its probe; flat index of b
    ax, ay, bx, by = vx.take(a), vy.take(a), vx.take(b), vy.take(b)
    with np.errstate(invalid="ignore"):  # 0/0 along the ray's line
        x0 = ax + ay / (ay - by) * (bx - ax)
    sign = np.where(x0 > 0.0, np.subtract(up.take(b), up.take(a), dtype=float), 0.0)
    turns = np.bincount(r, weights=sign, minlength=up[..., 0].size).reshape(up.shape[:-1])
    # A crossing is certain where |x0| > 1e-12 (|ax| + |bx|), past rounding, and
    # so is its phase term's sign: |ax by - ay bx| = |x0| (|ay| + |by|). One along
    # the line is where it misses the probe. Elsewhere, or where a product may
    # overflow (a coordinate sum reaches 2^499), turns are the phase sum / 2 pi.
    redo = ~(np.max(np.abs(xs) + np.abs(ys), axis=-1)[..., None] + np.abs(px) + np.abs(py) < 2.0**499)
    sure = (np.abs(x0) > 1e-12 * (np.abs(ax) + np.abs(bx))) | ((ay == by) & (ax * bx > 0))
    redo.reshape(-1)[r[~sure]] = True
    if redo.any():
        wx, wy = vx[redo], vy[redo]
        ax, ay, bx, by = wx[:, :-1], wy[:, :-1], wx[:, 1:], wy[:, 1:]
        total = np.sum(np.arctan2(ax * by - ay * bx, ax * bx + ay * by), axis=-1)
        turns[redo] = total / (2.0 * np.pi)
    # Certified guard: |p - s| >= min(|p - a|, |p - b|) - |b - a|/2 on each
    # segment [a, b]. Where this bound, less a relative slack above rounding,
    # clears ``clearance`` (a NaN never does), it stands in for the distance.
    near = np.sqrt(np.min(vx * vx + vy * vy, axis=-1))
    half = 0.5 * np.max(np.hypot(np.diff(xs), np.diff(ys)), axis=-1)[..., None]
    min_dist = near - half - 1e-12 * (near + half)
    close = ~(min_dist > clearance)
    if close.any():
        wx, wy = vx[close], vy[close]
        ax, ay, bx, by = wx[:, :-1], wy[:, :-1], wx[:, 1:], wy[:, 1:]
        ex, ey = bx - ax, by - ay
        ee = ex * ex + ey * ey
        t = np.where(ee > 0.0, -(ax * ex + ay * ey) / np.where(ee > 0.0, ee, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        dx, dy = ax + t * ex, ay + t * ey
        min_dist[close] = np.sqrt(np.min(dx * dx + dy * dy, axis=-1))
    return turns, min_dist
