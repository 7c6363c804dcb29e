import cmath
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from univalence import _kernels


def reference_laurent_derivs(points, b, b0, tail, order=4, inv=None):
    # The kernel as it was before it skipped zero coefficients, wrote each
    # row's first term in place of a zero fill and built rows on request:
    # every row, every term.
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


# Parts with both zero signs, moderate values and magnitudes out to 1e300.
_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
)
_COEFF = st.builds(complex, _PART, _PART)
_TAIL = st.lists(
    st.one_of(st.sampled_from([0j, complex(-0.0, -0.0), complex(0.0, -0.0)]), _COEFF),
    max_size=6,
)
# |z| -> 1+ and out to 1e200, where rows overflow.
_RADIUS = st.one_of(
    st.builds(lambda u: 1.0 + 10.0**-u, st.floats(0.5, 15.5)),
    st.builds(lambda e: 10.0**e, st.floats(0.0, 200.0)),
)
_POINT = st.one_of(
    st.builds(lambda r, th: r * cmath.exp(1j * th), _RADIUS, st.floats(-np.pi, np.pi)),
    # on the axes, with either sign of the zero part
    st.builds(
        lambda r, s, zero, real: complex(s * r, zero) if real else complex(zero, s * r),
        _RADIUS,
        st.sampled_from([1.0, -1.0]),
        st.sampled_from([0.0, -0.0]),
        st.booleans(),
    ),
    st.sampled_from([0j, complex(np.inf, 0.0), complex(np.nan, 1.0)]),
)


@settings(max_examples=400, deadline=None)
@given(
    points=st.lists(_POINT, min_size=1, max_size=8),
    b=_COEFF,
    b0=_COEFF,
    tail=_TAIL,
    order=st.integers(0, 4),
    first=st.integers(0, 1),
    shared_inv=st.booleans(),
)
# A zero term turns a -0 that b or b0 put in a row into +0; a term at a
# point where 1/z is not finite is NaN, not zero.
@example([complex(-3.0, -0.0)], complex(1.0, -0.0), complex(-0.0, -0.0), [0j], 0, 0, False)
@example([0j, 2.0], 1.5, 0j, [0j, 0.5], 3, 1, True)
def test_laurent_rows_match_reference_bitwise(points, b, b0, tail, order, first, shared_inv):
    # Signed zeros, overflows and NaN positions included: the skipped zero
    # terms and the unbuilt value row change no bit of the rows returned.
    points = np.asarray(points, dtype=np.complex128)
    tail = np.asarray(tail, dtype=np.complex128).reshape(-1)
    first = min(first, order)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / points if shared_inv else None
    got = _kernels.laurent_derivs(points, b, b0, tail, order, inv, first)
    want = reference_laurent_derivs(points, b, b0, tail, order, inv)[first:]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_winding_sum(xs, ys, px, py):
    # The kernel as it was before its batch axis and its distance bound: one
    # contour, the exact distance to the polyline at every probe.
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
    return total, np.sqrt(np.min(dx * dx + dy * dy, axis=-1))


def exact_crossing_count(xs, ys, px, py):
    # The signed crossings of the ray y = 0, x > 0 by the polygon of the
    # rounded differences xs - px, ys - py, closing segment included, a vertex
    # above the ray where its y > 0, in exact arithmetic; None for an
    # intercept of exactly 0 (the probe on a crossing segment).
    vx = [Fraction(float(v)) for v in xs - px]
    vy = [Fraction(float(v)) for v in ys - py]
    count = 0
    for i in range(len(vx)):
        j = (i + 1) % len(vx)
        if (vy[i] > 0) != (vy[j] > 0):
            x0 = vx[i] + vy[i] / (vy[i] - vy[j]) * (vx[j] - vx[i])
            if x0 == 0:
                return None
            count += (x0 > 0) * (1 if vy[j] > 0 else -1)
    return count


def _in_turns(total):
    return total / (2.0 * np.pi)


CLEARANCE = 1e-9


def _contour_batch(rng, rows=5, nodes=256, probes=16):
    """Closed wavy contours, one per row, with probes inside, outside, on a
    vertex, 1e-10 and 1e-5 off a segment's midpoint, per row."""
    theta = np.linspace(0.0, 2.0 * np.pi, nodes + 1)
    radius = 1.0 + 0.2 * rng.uniform(size=(rows, 1)) * np.cos(3.0 * theta)
    contours = radius * np.exp(1j * theta)
    contours[:, -1] = contours[:, 0]
    points = 2.5 * (rng.uniform(size=(rows, probes)) - 0.5) * (1 + 1j)
    mid = 0.5 * (contours[:, 7] + contours[:, 8])
    normal = 1j * (contours[:, 8] - contours[:, 7]) / abs(contours[:, 8] - contours[:, 7])
    points[:, 0] = contours[:, 3]
    points[:, 1] = mid + 1e-10 * normal
    points[:, 2] = mid + 1e-5 * normal
    return contours, points


def _winding_sum(contours, points, clearance=CLEARANCE):
    return _kernels.winding_sum(
        np.ascontiguousarray(contours.real),
        np.ascontiguousarray(contours.imag),
        points.real,
        points.imag,
        clearance,
    )


def test_winding_rows_are_bitwise_one_row_calls(rng):
    contours, points = _contour_batch(rng)
    total, min_dist = _winding_sum(contours, points)
    assert total.shape == min_dist.shape == points.shape
    for i in range(contours.shape[0]):
        row_total, row_dist = _winding_sum(contours[i : i + 1], points[i : i + 1])
        assert row_total.tobytes() == total[i : i + 1].tobytes()
        assert row_dist.tobytes() == min_dist[i : i + 1].tobytes()
    # an empty batch, as a one-time audit would pass
    total, min_dist = _winding_sum(contours[:0], points[:0])
    assert total.shape == min_dist.shape == (0, points.shape[1])


def test_winding_sum_matches_reference_guard(rng):
    # Where the distance clears, the turns are the integer the reference
    # phase sum rounds to. The distance is bitwise the reference's wherever
    # the bound does not clear the clearance (probes on or within 1e-5 of the
    # contour); elsewhere it is a lower bound that clears it, so every guard
    # decision is the reference's.
    contours, points = _contour_batch(rng)
    turns, min_dist = _winding_sum(contours, points)
    for i in range(contours.shape[0]):
        want_total, want_dist = reference_winding_sum(
            contours[i].real, contours[i].imag, points[i].real, points[i].imag
        )
        cleared = want_dist > CLEARANCE
        assert cleared.sum() == points.shape[1] - 2
        assert (turns[i][cleared] == np.rint(_in_turns(want_total[cleared]))).all()
        exact = min_dist[i] == want_dist
        assert exact[:3].all()
        assert ((min_dist[i] <= CLEARANCE) == (want_dist <= CLEARANCE)).all()
        assert (min_dist[i][~exact] > CLEARANCE).all()
        assert (min_dist[i][~exact] <= want_dist[~exact]).all()


def test_bound_fallback_at_the_centre_of_a_thin_rectangle():
    # Centre of a 4-vertex contour whose longest side is twice the vertex
    # distance: the bound is about 1e-10 - slack, below the clearance, but
    # the probe is 1e-5 from the contour; the exact distance decides.
    rect = np.array([-1 - 1e-5j, 1 - 1e-5j, 1 + 1e-5j, -1 + 1e-5j, -1 - 1e-5j])
    _, min_dist = _winding_sum(rect[None], np.zeros((1, 1), dtype=complex))
    _, want = reference_winding_sum(rect.real, rect.imag, 0.0, 0.0)
    assert min_dist[0, 0] == want == 1e-5


@settings(max_examples=300, deadline=None)
@given(
    vertices=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3, max_size=8
    ),
    scale=st.builds(lambda e: 10.0**e, st.floats(-6.0, 6.0)),
    offsets=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.floats(0.0, 1.0),
            st.builds(lambda e: 10.0**e, st.floats(-13.0, 0.0)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_winding_guard_decisions_match_reference(vertices, scale, offsets):
    # Probes near the segments of a polygon at any scale, from far off to
    # well inside the clearance: the guard decides as the exact distance
    # does, and the distance is exact wherever the bound does not clear.
    contour = np.array([complex(x, y) for x, y in vertices] + [complex(*vertices[0])]) * scale
    points = []
    for k, u, d in offsets:
        a, b = contour[k % (contour.size - 1)], contour[k % (contour.size - 1) + 1]
        points.append(a + u * (b - a) + 1j * d * scale)
    points = np.array(points)
    turns, min_dist = _winding_sum(contour[None], points[None])
    want_total, want_dist = reference_winding_sum(
        contour.real, contour.imag, points.real, points.imag
    )
    assert_turns(turns[0], contour, points, want_total, want_dist)
    assert ((min_dist[0] <= CLEARANCE) == (want_dist <= CLEARANCE)).all()
    exact = min_dist[0] == want_dist
    assert (min_dist[0][~exact] > CLEARANCE).all()
    assert (min_dist[0][~exact] <= want_dist[~exact]).all()


def assert_turns(turns, contour, points, want_total, want_dist):
    """Each probe's turns are the exact crossing count, or, where the kernel
    cannot certify it, bitwise the reference phase sum in turns; where the
    distance clears the clearance, a count is what the phase sum rounds to.
    (Past a scale of about 1e7 the reference distance has rounding errors
    above the clearance, and a probe on the rounded polygon may clear it.)"""
    phase = _in_turns(want_total)
    for got, p, want, dist in zip(turns, points, phase, want_dist):
        count = exact_crossing_count(contour.real, contour.imag, p.real, p.imag)
        if got != count:
            assert got.tobytes() == want.tobytes()
        elif dist > CLEARANCE:
            assert count == np.rint(want)


@settings(max_examples=300, deadline=None)
@given(
    vertices=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3, max_size=8
    ),
    flat=st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from([0.0, 1e-300, -1e-17, 1e-12, -1e-6])),
        max_size=3,
    ),
    scale=st.builds(lambda e: 10.0**e, st.floats(-6.0, 12.0)),
    probes=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.floats(-3.0, 4.0),
            st.sampled_from([0.0, 1e-16, -1e-13, 1e-10, -1e-3]),
        ),
        min_size=1,
        max_size=6,
    ),
)
# a probe on a segment along its ray's line, where rounding at 1e11 clears the guard
@example(vertices=[(0.0, 0.0), (0.0, 0.0), (0.75, 1.0)], flat=[(0, 0.0)], scale=1e11, probes=[(2, 0.875, 0.0)])
def test_winding_turns_match_exact_crossing_count(vertices, flat, scale, probes):
    # Polygons at scales 1e-6..1e12 with nearly horizontal segments (a vertex
    # moved to its predecessor's height, give or take a relative 1e-300 to
    # 1e-6), and probes on a segment's line, its extension past either end
    # included, at or near that line's height: vertices on the probe's ray,
    # probes on the polygon and intercepts within rounding of the probe.
    for k, dy in flat:
        k %= len(vertices)
        vertices[k] = (vertices[k][0], vertices[k - 1][1] + dy)
    contour = np.array([complex(x, y) for x, y in vertices] + [complex(*vertices[0])]) * scale
    points = []
    for k, u, d in probes:
        a, b = contour[k % (contour.size - 1)], contour[k % (contour.size - 1) + 1]
        points.append(a + u * (b - a) + 1j * d * scale)
    points = np.array(points)
    turns, _ = _winding_sum(contour[None], points[None])
    want_total, want_dist = reference_winding_sum(
        contour.real, contour.imag, points.real, points.imag
    )
    assert_turns(turns[0], contour, points, want_total, want_dist)


def test_closing_segment_counts():
    # exp(2 pi i k/64), k = 0..64, ends 2.4e-16 below 1: the ray from
    # 0.5 - 1e-16j passes through that gap, so only the closing segment
    # crosses it
    contour = np.exp(2j * np.pi * np.arange(65) / 64)
    assert contour[-1].imag < -1e-16 < contour[0].imag
    turns, min_dist = _winding_sum(contour[None], np.array([[0.5 - 1e-16j]]))
    assert turns.tolist() == [[1.0]] and min_dist[0, 0] > CLEARANCE
    assert exact_crossing_count(contour.real, contour.imag, 0.5, -1e-16) == 1


def _phase_calls(monkeypatch):
    # The shape of each np.arctan2 argument from here on: the probes, by the
    # segments, whose phase the kernel sums.
    calls, arctan2 = [], np.arctan2
    monkeypatch.setattr(np, "arctan2", lambda y, x: calls.append(y.shape) or arctan2(y, x))
    return calls


def test_uncertain_intercept_reads_the_phase_sum(monkeypatch):
    # 1.5e-8 right of the diagonal of a triangle of side 2e4: 1.06e-8 from
    # the contour, which clears the guard, but the intercept 1.5e-8 lies
    # within 1e-12 (|ax| + |bx|) = 2e-8 of the probe, so the count is not
    # certain; the phase is summed for that probe alone
    contour = np.array([-1e4 - 1e4j, 1e4 + 1e4j, -1e4 + 1e4j, -1e4 - 1e4j])
    points = np.array([[1.5e-8 + 0j, -1e-3 + 0j, 3.0 + 0j]])
    total, dist = reference_winding_sum(contour.real, contour.imag, 1.5e-8, 0.0)
    calls = _phase_calls(monkeypatch)
    turns, min_dist = _winding_sum(contour[None], points)
    assert calls == [(1, 3)]
    assert min_dist[0, 0] > CLEARANCE and dist > CLEARANCE
    assert turns[0, :1].tobytes() == _in_turns(total).tobytes()
    assert np.rint(turns[0, 0]) == 0.0 and turns[0, 1:].tolist() == [1.0, 0.0]


def test_far_rows_read_the_phase_sum(monkeypatch):
    # A contour with coordinates from 2^499 on reads the phase sum, which
    # overflows from about 2^512; a row of ordinary size in the same batch
    # still reads its count
    circle = np.exp(2j * np.pi * np.arange(65) / 64)
    circle[-1] = circle[0]
    contours = np.array([circle * 2.0**499, circle * 2.0**520, circle])
    points = np.array([[0.0, 3.0 * 2.0**499], [0.0, 0.0], [0.0, 3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = [
            reference_winding_sum(c.real, c.imag, p.real, p.imag)[0] for c, p in zip(contours, points)
        ]
        calls = _phase_calls(monkeypatch)
        turns, _ = _winding_sum(contours, points)
    assert calls == [(4, 64)]
    for i in range(2):
        assert turns[i].tobytes() == _in_turns(want[i]).tobytes()
    assert np.rint(turns[0]).tolist() == [1.0, 0.0] and np.isnan(turns[1]).all()
    assert turns[2].tolist() == [1.0, 0.0]
