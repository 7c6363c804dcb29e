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


def _winding_sum(contours, points):
    return _kernels.winding_sum(
        np.ascontiguousarray(contours.real),
        np.ascontiguousarray(contours.imag),
        points.real,
        points.imag,
    )


def test_winding_rows_are_bitwise_one_row_calls(rng):
    contours, points = _contour_batch(rng)
    turns = _winding_sum(contours, points)
    assert turns.shape == points.shape
    # a probe on a vertex has no number; 1e-10 off a segment, one has
    assert np.isnan(turns[:, 0]).all() and not np.isnan(turns[:, 1:]).any()
    for i in range(contours.shape[0]):
        row = _winding_sum(contours[i : i + 1], points[i : i + 1])
        assert row.tobytes() == turns[i : i + 1].tobytes()
    # an empty batch, as a one-time audit would pass
    assert _winding_sum(contours[:0], points[:0]).shape == (0, points.shape[1])


def near_crossing(xs, ys, px, py):
    # Whether a segment of the same rounded polygon as exact_crossing_count's
    # meets the probe's line y = 0 within 2e-12 (|ax| + |bx|) of the probe,
    # plus the least subnormal, in exact arithmetic (a segment along the
    # line: whether it spans the probe).
    vx = [Fraction(float(v)) for v in xs - px]
    vy = [Fraction(float(v)) for v in ys - py]
    for i in range(len(vx)):
        j = (i + 1) % len(vx)
        bound = Fraction(2e-12) * (abs(vx[i]) + abs(vx[j])) + Fraction(2.0**-1074)
        if vy[i] == vy[j] == 0:
            if vx[i] * vx[j] <= 0:
                return True
        elif min(vy[i], vy[j]) <= 0 <= max(vy[i], vy[j]):
            if abs(vx[i] + vy[i] / (vy[i] - vy[j]) * (vx[j] - vx[i])) <= bound:
                return True
    return False


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
# a probe on a segment along its ray's line, at scale 1e11
@example(vertices=[(0.0, 0.0), (0.0, 0.0), (0.75, 1.0)], flat=[(0, 0.0)], scale=1e11, probes=[(2, 0.875, 0.0)])
# a probe on the extension of a segment along its line, 3e-255 past its end:
# the product of the ends' distances underflows, their signs do not
@example(vertices=[(0.0, 0.0), (3.0326564079265723e-255, 0.0), (0.0, 0.0)], flat=[], scale=1.0, probes=[(0, 2.0, 0.0)])
# a probe on a segment whose rounded intercept is not 0 but within rounding of it
@example(vertices=[(0.25, 0.8125), (1.0, -0.1783904658936024), (0.0, 0.0)], flat=[], scale=10.0**-0.5, probes=[(0, 0.5, 0.0)])
# a probe within half a subnormal step of a needle's side
@example(vertices=[(0.0, 0.0), (2.2250738585e-313, 1.0), (0.0, 0.0)], flat=[], scale=1.0, probes=[(0, 0.25, 0.0)])
def test_winding_turns_match_exact_crossing_count(vertices, flat, scale, probes):
    # Polygons at scales 1e-6..1e12 with nearly horizontal segments (a vertex
    # moved to its predecessor's height, give or take a relative 1e-300 to
    # 1e-6), and probes on a segment's line, its extension past either end
    # included, at or near that line's height: vertices on the probe's ray,
    # probes on the polygon and intercepts within rounding of the probe. A
    # number returned is the exact crossing count; NaN is returned where
    # that count has a zero intercept, and only where a segment meets the
    # probe's line within rounding of the probe.
    for k, dy in flat:
        k %= len(vertices)
        vertices[k] = (vertices[k][0], vertices[k - 1][1] + dy)
    contour = np.array([complex(x, y) for x, y in vertices] + [complex(*vertices[0])]) * scale
    points = []
    for k, u, d in probes:
        a, b = contour[k % (contour.size - 1)], contour[k % (contour.size - 1) + 1]
        points.append(a + u * (b - a) + 1j * d * scale)
    points = np.array(points)
    turns = _winding_sum(contour[None], points[None])[0]
    for got, p in zip(turns, points):
        count = exact_crossing_count(contour.real, contour.imag, p.real, p.imag)
        if np.isnan(got):
            assert near_crossing(contour.real, contour.imag, p.real, p.imag)
        else:
            assert got == count
        if count is None:
            assert np.isnan(got)


def test_closing_segment_counts():
    # exp(2 pi i k/64), k = 0..64, ends 2.4e-16 below 1: the ray from
    # 0.5 - 1e-16j passes through that gap, so only the closing segment
    # crosses it
    contour = np.exp(2j * np.pi * np.arange(65) / 64)
    assert contour[-1].imag < -1e-16 < contour[0].imag
    assert _winding_sum(contour[None], np.array([[0.5 - 1e-16j]])).tolist() == [[1.0]]
    assert exact_crossing_count(contour.real, contour.imag, 0.5, -1e-16) == 1


def test_probes_a_rounding_step_off_a_segment_are_counted():
    # 1e-13 inside and outside the midpoint of a unit circle's first
    # segment: each intercept lies past 1e-12 (|ax| + |bx|) of 5e-15, so the
    # counts are certain
    circle = np.exp(2j * np.pi * np.arange(65) / 64)
    mid = 0.5 * (circle[0] + circle[1])
    normal = mid / abs(mid)
    points = np.array([[mid - 1e-13 * normal, mid + 1e-13 * normal]])
    assert _winding_sum(circle[None], points).tolist() == [[1.0, 0.0]]
    for p, want in zip(points[0], [1, 0]):
        assert exact_crossing_count(circle.real, circle.imag, p.real, p.imag) == want


def test_intercept_overflow_is_uncertain():
    # Segment 1 + 1e308j -> -3 - 1e308j: ay - by overflows and x0 would read
    # ax = 1, a crossing right of the probe; the exact one lies at x = -1
    contour = np.array([1 + 1e308j, -3 - 1e308j, 10 + 0j, 1 + 1e308j])
    assert np.isnan(_winding_sum(contour[None], np.zeros((1, 1), dtype=complex))).all()
    assert exact_crossing_count(contour.real, contour.imag, 0.0, 0.0) == 1


def test_far_rows_read_the_count(monkeypatch):
    # Contours at 2^499 and 2^520, where a phase sum's products overflow,
    # are counted with no np.arctan2 call, beside a row of ordinary size
    calls, arctan2 = [], np.arctan2
    monkeypatch.setattr(np, "arctan2", lambda y, x: calls.append(y.shape) or arctan2(y, x))
    circle = np.exp(2j * np.pi * np.arange(65) / 64)
    circle[-1] = circle[0]
    contours = np.array([circle * 2.0**499, circle * 2.0**520, circle])
    points = np.array([[0.0, 3.0 * 2.0**499], [0.0, 0.0], [0.0, 3.0]])
    turns = _winding_sum(contours, points)
    assert calls == []
    assert turns.tolist() == [[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]]
