"""Vectorized evaluation of the paper's exterior-disk criterion and its five
corollaries over whole sets of points. Each criterion is the modulus of the
signed ``theorem1`` bracket at a preset, and holds where it is <= 1:

    criterion           g = z   h = 1   alpha
    theorem1            no      no      given
    alpha_zero          yes     no      0
    miazga_wesolowski   no      no      1/2
    epstein             no      yes     1/2
    becker              yes     yes     0       (|z|^2-1) |z f''/f'|
    nehari              yes     yes     1/2     (|z|^2-1)^2 |S_f| / 2

The Loewner driving function w(z, t) is the same bracket at zeta = e^t/z.
Every caller reads the pieces scaled by powers of z (z f', z f''/f',
z^2 S_f, z h'), each a closed form in the scaled rows z^j u^(j) of the
function's Laurent map u (``MeromorphicFn.pieces``), at z and 1/z: the scan's
polar grid z = r u (|u| = 1) at 1/z = conj(u)/r, with |z|^2 - 1 = (r-1)(r+1)
per row; ``evaluate_lhs`` at 1/z = 1.0 / z, with |z|^2 per point; the
chain at zeta and 1/zeta = z e^-t. The bracket's Schwarzian term then has
the phase (z/conj(z)) / z^2 = 1/|z|^2, so ``theorem1`` reads no z.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .catalog import (
    MeromorphicFn,
    constant_one,
    identity,
    make_h_function,
    make_sigma_function,
)
from .errors import (
    CriticalPoint,
    EvaluationFailure,
    HVanishes,
    InvalidSpec,
    OutsideDomain,
)

# criterion -> (alpha, None: the given one; derivative orders of the f, g and
# h stacks read, None: g = z or h = 1). Order 3 brings the Schwarzian.
_PRESETS = {
    "theorem1": (None, (3, 3, 1)),
    "alpha_zero": (0.0, (2, None, 1)),
    "miazga_wesolowski": (0.5, (3, 3, 1)),
    "epstein": (0.5, (3, 3, None)),
    "becker": (0.0, (2, None, None)),
    "nehari": (0.5, (3, None, None)),
}
CRITERIA = tuple(_PRESETS)

# Points per evaluation block: each complex temporary of the pieces and the
# assembly (128 KB) stays in a per-core L2 cache until the next step reads it.
_BLOCK = 8192

@dataclass(frozen=True)
class CriterionParams:
    """One criterion instance: the function pair, the auxiliary h, the complex
    parameter, and which formula to apply. f, g and h may be spec strings; a
    function of the wrong role (an h as f, say) is an InvalidSpec. For
    'becker' and 'nehari' the unused g and h are forcibly recorded as
    identity / constant one so reports stay reproducible."""

    f: MeromorphicFn
    g: MeromorphicFn = field(default_factory=identity)
    h: MeromorphicFn = field(default_factory=constant_one)
    alpha: complex = 0.5 + 0j
    criterion: str = "theorem1"

    def __post_init__(self):
        object.__setattr__(self, "f", make_sigma_function(self.f))
        object.__setattr__(self, "g", make_sigma_function(self.g))
        object.__setattr__(self, "h", make_h_function(self.h))
        if self.criterion not in CRITERIA:
            raise InvalidSpec(f"unknown criterion {self.criterion!r}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.criterion in ("becker", "nehari"):
            object.__setattr__(self, "g", identity())
            object.__setattr__(self, "h", constant_one())


class Pieces(NamedTuple):
    """Building blocks of every criterion at a set of points z, scaled by
    powers of z (``MeromorphicFn.pieces``); a piece the criterion does not
    read is None."""

    f1: "np.ndarray | None"  # z f'
    g1: "np.ndarray | None"  # z g'
    h0: "np.ndarray | None"  # h
    h1: "np.ndarray | None"  # z h'
    pf: np.ndarray  # z f''/f'
    sf: "np.ndarray | None"  # z^2 S_f
    pg: "np.ndarray | None"  # z g''/g'
    sg: "np.ndarray | None"  # z^2 S_g


def pieces(f, g, h, grid, criterion: "str | None" = None) -> Pieces:
    """Criterion pieces of (f, g, h) at the points of ``grid`` = (z, 1/z)
    that ``criterion`` reads, the others None (theorem1 reads all but z f'
    and z g'); with no criterion, every piece, for ``_diagnose``. Critical
    points and poles yield non-finite entries for the caller to diagnose."""
    f_order, g_order, h_order = _PRESETS[criterion or "theorem1"][1]
    first = 2 if criterion else 1
    _, f1, pf, sf = f.pieces(grid, f_order, first)
    g1, pg, sg = g.pieces(grid, g_order, first)[1:] if g_order else (None,) * 3
    h0, h1 = h.derivs(grid, h_order) if h_order else (None,) * 2
    return Pieces(f1, g1, h0, h1, pf, sf, pg, sg)


def theorem1(pc: Pieces, alpha, aa, am1) -> np.ndarray:
    """The signed theorem1 bracket at each point z from its scaled pieces,
    given aa = |z|^2 and am1 = aa - 1, each at every z or broadcast to it
    (the Loewner w at zeta = e^t/(chain z) passes aa = e^{2t} per t). The
    pieces carry z (z f''/f' for f''/f', z^2 S_f for S_f, so z^2 D for D),
    so the phase z/conj(z) of the Schwarzian term is 1/aa:

        (1-h)/h aa - am1 (z h'/h + (1-2 alpha) z f''/f' + 2 alpha z g''/g')
          + alpha am1^2 / aa h ((alpha-1/2) D + S_f - S_g),

    D = (f''/f' - g''/g')^2, with one reciprocal of h for z h'/h and
    (1-h)/h. A term is left out when a piece it reads is None (g = z, h = 1;
    no S_f: alpha = 0) or when alpha = 1/2 zeroes its coefficient, never for
    alpha = 0: a g' = 0 must still make the bracket non-finite, for the
    caller to diagnose. A coefficient that is exactly 1 is not multiplied
    by."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lin, out = [], []
        if pc.h0 is not None:
            rh = np.reciprocal(pc.h0)
            lin.append(pc.h1 * rh)
            out.append((1.0 - pc.h0) * rh * aa)
        if alpha != 0.5:
            lin.append(pc.pf if alpha == 0 else (1.0 - 2.0 * alpha) * pc.pf)
        if pc.pg is not None:
            lin.append(pc.pg if alpha == 0.5 else (2.0 * alpha) * pc.pg)
        if lin:
            out.append(-am1 * reduce(np.add, lin))
            # The summed terms and 1/h are freed before the Schwarzian
            # term's temporaries are made, which sets a block's peak memory.
            lin = rh = None
        if pc.sf is not None:
            inner = pc.sf
            if alpha != 0.5:
                diff = pc.pf if pc.pg is None else pc.pf - pc.pg
                # Named, so that no in-place multiply (not always bitwise
                # the out-of-place one) is made of its temporary.
                diff = diff * diff
                inner = (alpha - 0.5) * diff + inner
            if pc.sg is not None:
                inner = inner - pc.sg
            coef = alpha * (am1**2 / aa)
            if pc.h0 is not None:
                coef = coef * pc.h0
            out.append(coef * inner)
        return reduce(np.add, out)


def _abs2(z: np.ndarray) -> np.ndarray:
    """z.real * z.real + z.imag * z.imag, bitwise, squaring the contiguous
    float view of ``z`` in one pass."""
    sq = np.ascontiguousarray(z).view(np.float64)
    with np.errstate(over="ignore"):
        sq = sq * sq
        return sq[..., 0::2] + sq[..., 1::2]


def _diagnose(params: CriterionParams, points: np.ndarray, values: np.ndarray):
    """Raise what ``evaluate_lhs(params, points)`` raises given its LHS
    ``values`` (nothing when all are finite): the precondition that made the
    criterion non-finite, with the offending point."""
    bad = ~np.isfinite(values)
    if not np.any(bad):
        return
    points = points[bad]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pc = pieces(params.f, params.g, params.h, (points, 1.0 / points))
    for name, zero in (("f'", pc.f1 == 0), ("g'", pc.g1 == 0)):
        if np.any(zero):
            exc = CriticalPoint(f"{name} vanishes at {points[zero][0]}")
            exc.point = complex(points[zero][0])
            raise exc
    if np.any(pc.h0 == 0):
        exc = HVanishes(f"h vanishes at {points[pc.h0 == 0][0]}")
        exc.point = complex(points[pc.h0 == 0][0])
        raise exc
    finite = np.isfinite(pc.f1) & np.isfinite(pc.g1) & np.isfinite(pc.h0)
    witness = points[~finite][0] if not finite.all() else points[0]
    raise EvaluationFailure(f"criterion not evaluable at {witness}")


def lhs_values(params: CriterionParams, points: np.ndarray) -> np.ndarray:
    """``evaluate_lhs`` without the diagnosis: non-finite entries where the
    criterion is singular. The points are evaluated block by block, each
    block's temporaries freed before the next block's are made, with the
    pieces at (z, 1.0 / z) and |z|^2 computed at each point, as the scan
    reads them. No complex multiply writes in place (at length 1 that is not
    bitwise the out-of-place product), so a value does not depend on the
    other points of its call."""
    alpha = _alpha(params)
    out = np.empty(points.shape)

    def fill(lo):
        z = points[lo : lo + _BLOCK]
        aa = _abs2(z)
        # aa is within a few ulps of np.abs(z) ** 2, so only a point with aa
        # near 1 can be in the closed disk; np.abs decides for those. The
        # blocks run in order, so the first such point raises.
        if np.any(aa <= 1.0 + 1e-14):
            inside = np.abs(z) <= 1.0
            if np.any(inside):
                raise OutsideDomain(f"criterion point {z[inside][0]} not in the exterior disk")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pc = pieces(params.f, params.g, params.h, (z, 1.0 / z), params.criterion)
            out[lo : lo + _BLOCK] = np.abs(theorem1(pc, alpha, aa, aa - 1.0))

    for lo in range(0, points.shape[0], _BLOCK):
        fill(lo)
    return out


def lhs_polar(params: CriterionParams, radii: np.ndarray, units: np.ndarray):
    """The points z = r u of the polar grid ``radii`` x ``units`` (radii
    > 1, units of modulus 1), radius-major, and the LHS at each, non-finite
    where the criterion is singular. The pieces are read at z and
    1/z = conj(u)/r, with |z|^2 = r r and |z|^2 - 1 = (r-1)(r+1) per row.
    The grid is evaluated in blocks of at most _BLOCK points, whole rows but
    for a row wider than _BLOCK, which is cut into blocks of _BLOCK points; a
    value depends on its own row and column alone."""
    alpha = _alpha(params)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = radii[:, None] * units[None, :]
        if np.any(radii <= 1.0):
            raise OutsideDomain(f"criterion point {z[radii <= 1.0][0, 0]} not in the exterior disk")
        rinv, conj = 1.0 / radii, np.conj(units)
        aa, am1 = radii * radii, (radii - 1.0) * (radii + 1.0)
    out = np.empty(z.shape)

    def fill(i, j):
        # 1/z is passed, not named, so it is freed before the bracket is made
        pc = pieces(params.f, params.g, params.h, (z[i, j], rinv[i, None] * conj[None, j]),
                    params.criterion)
        out[i, j] = np.abs(theorem1(pc, alpha, aa[i, None], am1[i, None]))

    rows, cols = z.shape
    step = max(1, _BLOCK // cols)
    width = min(cols, _BLOCK)
    for lo in range(0, rows, step):
        for left in range(0, cols, width):
            fill(slice(lo, lo + step), slice(left, left + width))
    return z.ravel(), out.ravel()


def _alpha(params: CriterionParams):
    """The alpha of the criterion's preset, or the given one."""
    alpha = _PRESETS[params.criterion][0]
    return params.alpha if alpha is None else alpha


def evaluate_lhs(params: CriterionParams, points) -> np.ndarray:
    """Criterion LHS modulus at every point, using the formula selected by
    ``params.criterion``; the singular points of the whole set are
    diagnosed once, after every block."""
    points = np.asarray(points, dtype=np.complex128)
    values = lhs_values(params, points)
    _diagnose(params, points, values)
    return values
