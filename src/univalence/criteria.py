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
Its weights (|z|^2-1)^k and its phase z/conj(z) come from the caller:
``evaluate_lhs`` computes them at each point, while the scan's polar grid
z = r u (|u| = 1) takes |z|^2 - 1 = (r-1)(r+1) from each row and reads
pieces scaled by powers of z (z f''/f', z^2 S_f, z h'), built from the
scaled rows z^j f^(j) at z and 1/z = conj(u)/r, so that its bracket takes
z = 1 and the phase z/conj(z) / z^2 = 1/|z|^2, again per row.
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
    """Building blocks of every criterion at a set of points; a piece the
    criterion does not read is None."""

    f1: np.ndarray  # f'
    g1: "np.ndarray | None"  # g'
    h0: "np.ndarray | None"  # h
    h1: "np.ndarray | None"  # h'
    pf: np.ndarray  # f''/f'
    sf: "np.ndarray | None"  # Schwarzian of f
    pg: "np.ndarray | None"  # g''/g'
    sg: "np.ndarray | None"  # Schwarzian of g


def pieces(f, g, h, points: np.ndarray, criterion: str = "theorem1") -> Pieces:
    """Criterion pieces of (f, g, h) at each point that ``criterion``
    reads, the others None (theorem1 reads all). ``points`` may be a pair
    (z, 1/z), as ``MeromorphicFn.derivs`` takes it: the pieces are then
    scaled (``_scaled_pieces``). Critical points and poles yield non-finite
    entries for the caller to diagnose."""
    f_order, g_order, h_order = _PRESETS[criterion][1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if isinstance(points, tuple):
            f1, pf, sf = _scaled_pieces(f, f_order, points)
            g1, pg, sg = _scaled_pieces(g, g_order, points) if g_order else (None,) * 3
            h0, h1 = h.derivs(points, h_order) if h_order else (None,) * 2
            return Pieces(f1, g1, h0, h1, pf, sf, pg, sg)
        inv = 1.0 / points
        # No formula reads f or g itself: their stacks start at the derivative.
        gd = g.derivs(points, g_order, inv, first=1) if g_order else None
        hd = h.derivs(points, h_order, inv) if h_order else None
        return stack_pieces(f.derivs(points, f_order, inv, first=1), gd, hd)


def _scaled_pieces(fn, order, grid):
    """(z fn', z fn''/fn', z^2 S_fn or None) at the points of ``grid`` =
    (z, 1/z), from the scaled rows z^j fn^(j). Where a Moebius level of fn
    has c != 0, its Schwarzian is a difference of terms of size
    |fn''/fn'|^2, whose rounding near the level's pole decides digits of
    the LHS: the pieces are then those of the unscaled rows, as
    ``evaluate_lhs`` reads them, scaled by z after, so that the two round
    alike."""
    if order < 3 or not any(level[2] for level in fn.levels):
        return _stack_pieces(fn.derivs(grid, order, first=1))
    z, inv = grid
    f1, pf, sf = _stack_pieces(fn.derivs(z, order, inv, first=1))
    return z * f1, z * pf, z * z * sf


def stack_pieces(fd, gd, hd) -> Pieces:
    """Pieces from the rows f', f'', ... and g', g'', ... (to order 2, or 3
    for the Schwarzian) and h, h' of stacks at a set of points, None for a
    stack that is None; non-finite where a row is, under the caller's
    errstate."""
    f1, pf, sf = _stack_pieces(fd)
    g1, pg, sg = (None,) * 3 if gd is None else _stack_pieces(gd)
    h0, h1 = (None,) * 2 if hd is None else hd
    return Pieces(f1, g1, h0, h1, pf, sf, pg, sg)


def _stack_pieces(d):
    """(fn', fn''/fn', Schwarzian or None) from the derivative rows of a
    stack of order 2 or 3."""
    p = d[1] / d[0]
    return d[0], p, (d[2] / d[0] - 1.5 * p * p if d.shape[0] > 2 else None)


def theorem1(z, pc: Pieces, alpha, aa, am1, phase) -> np.ndarray:
    """The signed theorem1 bracket at each z from its pieces, given
    aa = |z|^2, am1 = aa - 1 and phase = z/conj(z), each at every z or
    broadcast to it (the Loewner w at z = e^t/(chain z) passes aa = e^{2t}
    and phase = 1/(chain z)^2). The scan passes z = 1 with the scaled pieces
    of a polar grid, which carry z already (z f''/f' for f''/f', z^2 S_f for
    S_f, so z^2 D for D), and phase = (z/conj(z)) / z^2 = 1/aa, per row:

        (1-h)/h aa - am1 (z h'/h + (1-2 alpha) z f''/f' + 2 alpha z g''/g')
          + alpha am1^2 phase h ((alpha-1/2) D + S_f - S_g),

    D = (f''/f' - g''/g')^2. A term is left out when a piece it reads is
    None (g = z, h = 1; no S_f: alpha = 0) or when alpha = 1/2 zeroes its
    coefficient, never for alpha = 0: a g' = 0 must still make the bracket
    non-finite, for the caller to diagnose. A coefficient or a z that is
    exactly 1 is not multiplied by."""
    unit = np.ndim(z) == 0 and z == 1

    def times_z(coef, x):
        """(coef z) x, leaving out a coef (None) or a z that is exactly 1."""
        if unit:
            return x if coef is None else coef * x
        return z * x if coef is None else coef * z * x

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lin, out = [], []
        if pc.h0 is not None:
            lin.append(times_z(None, pc.h1) / pc.h0)
            out.append((1.0 - pc.h0) / pc.h0 * aa)
        if alpha != 0.5:
            lin.append(times_z(None if alpha == 0 else 1.0 - 2.0 * alpha, pc.pf))
        if pc.pg is not None:
            lin.append(times_z(None if alpha == 0.5 else 2.0 * alpha, pc.pg))
        if lin:
            out.append(-am1 * reduce(np.add, lin))
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
            coef = alpha * am1**2 * phase
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
    pc = pieces(params.f, params.g, params.h, points)
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
    block's temporaries freed before the next block's are made, with 1/z,
    |z|^2 and z/conj(z) computed at each point. No complex multiply writes
    in place (at length 1 that is not bitwise the out-of-place product), so
    a value does not depend on the other points of its call."""
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
        pc = pieces(params.f, params.g, params.h, z, params.criterion)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bracket = theorem1(z, pc, alpha, aa, aa - 1.0, z / np.conj(z))
        out[lo : lo + _BLOCK] = np.abs(bracket)

    for lo in range(0, points.shape[0], _BLOCK):
        fill(lo)
    return out


def lhs_polar(params: CriterionParams, radii: np.ndarray, units: np.ndarray):
    """The points z = r u of the polar grid ``radii`` x ``units`` (radii
    > 1, units of modulus 1), radius-major, and the LHS at each, non-finite
    where the criterion is singular. The f, g and h stacks are the scaled
    rows z^j f^(j), from z and 1/z = conj(u)/r, so the pieces are scaled and
    the bracket takes z = 1, with |z|^2 = r r, |z|^2 - 1 = (r-1)(r+1) and
    the phase 1/|z|^2 per row. The grid is evaluated in blocks of at most
    _BLOCK points, whole rows but for a row wider than _BLOCK, which is cut
    into blocks of _BLOCK points; a value depends on its own row and column
    alone."""
    alpha = _alpha(params)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = radii[:, None] * units[None, :]
        if np.any(radii <= 1.0):
            raise OutsideDomain(f"criterion point {z[radii <= 1.0][0, 0]} not in the exterior disk")
        rinv, conj = 1.0 / radii, np.conj(units)
        aa, am1 = radii * radii, (radii - 1.0) * (radii + 1.0)
        phase = 1.0 / aa
    out = np.empty(z.shape)

    def fill(i, j):
        # 1/z is passed, not named, so it is freed before the bracket is made
        pc = pieces(params.f, params.g, params.h, (z[i, j], rinv[i, None] * conj[None, j]),
                    params.criterion)
        out[i, j] = np.abs(theorem1(1.0, pc, alpha, aa[i, None], am1[i, None], phase[i, None]))

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
