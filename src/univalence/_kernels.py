"""Hot numeric kernels, vectorized with numpy.

``laurent_derivs`` evaluates the rows a caller asks for of the derivative
stack of a Laurent-family function: from the value or from the first
derivative up to a given order. It skips terms whose coefficient is zero and
lets each row's first term write the row, so no pass adds zeros; the rows are
bitwise those of the full stack. ``laurent_derivs_scaled`` evaluates the
scaled rows z^j f^(j) of the same stack, in which the power of 1/z of a
term does not advance from row to row. ``winding_sum`` counts the signed
crossings of a ray from each of a vector of points by a closed polyline, for
a batch of polylines at once, and gives a point no number where rounding
could decide its count. All three are pure functions of their arguments.
"""

from __future__ import annotations

import math

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
# The same stack scaled: row j is z^j f^(j), so no row advances the power.
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
        for k, t in enumerate(np.trim_zeros(tail, "b")):
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
