import cmath

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
