"""Pointwise evaluation of the master univalence criterion and its five
corollary specializations.

All criteria share the pass convention "LHS modulus <= 1"; the Nehari-type
output is rescaled by its bound so the same threshold applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import HFunction, MeromorphicFn, constant_one, identity
from .errors import (
    CriticalPoint,
    EvaluationFailure,
    HVanishes,
    InvalidSpec,
    OutsideDomain,
)

CRITERIA = (
    "theorem1",
    "alpha_zero",
    "miazga_wesolowski",
    "epstein",
    "becker",
    "nehari",
)

# Points per evaluation block: each complex temporary of the pieces and the
# assembly (128 KB) stays in a per-core L2 cache until the next step reads it.
_BLOCK = 8192

@dataclass(frozen=True)
class CriterionParams:
    """One criterion instance: the function pair, the auxiliary h, the complex
    parameter, and which formula to apply.

    For 'becker' and 'nehari' the unused g and h are forcibly recorded as
    identity / constant one so reports stay reproducible.
    """

    f: MeromorphicFn
    g: MeromorphicFn = field(default_factory=identity)
    h: HFunction = field(default_factory=constant_one)
    alpha: complex = 0.5 + 0j
    criterion: str = "theorem1"
    squared_variant: bool = True

    def __post_init__(self):
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


# Derivative order of the f, g and h stacks each criterion reads (None: not
# read). Order 3 brings the Schwarzian, order 2 only f''/f' (or g''/g').
_ORDERS = {
    "theorem1": (3, 3, 1),
    "alpha_zero": (2, None, 1),
    "miazga_wesolowski": (3, 3, 1),
    "epstein": (3, 3, None),
    "becker": (2, None, None),
    "nehari": (3, None, None),
}


def pieces(f, g, h, points: np.ndarray, criterion: str = "theorem1") -> Pieces:
    """Criterion pieces of (f, g, h) at each point that ``criterion``
    reads, the others None (theorem1 reads all); shared by the criterion
    scan and the Loewner driving function. Critical points and poles yield
    non-finite entries for the caller to diagnose."""
    f_order, g_order, h_order = _ORDERS[criterion]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / points
        # No formula reads f or g itself: their stacks start at the derivative.
        f1, pf, sf = _stack_pieces(f.derivs(points, f_order, inv, first=1))
        g1 = pg = sg = h0 = h1 = None
        if g_order:
            g1, pg, sg = _stack_pieces(g.derivs(points, g_order, inv, first=1))
        if h_order:
            h0, h1 = h.derivs(points, h_order, inv)
    return Pieces(f1, g1, h0, h1, pf, sf, pg, sg)


def _stack_pieces(d):
    """(fn', fn''/fn', Schwarzian or None) from the derivative rows of a
    stack of order 2 or 3."""
    p = d[1] / d[0]
    return d[0], p, (d[2] / d[0] - 1.5 * p * p if d.shape[0] > 2 else None)


def _assemble_lhs(
    criterion: str, points: np.ndarray, pc: Pieces, alpha: complex, squared: bool, aa
) -> np.ndarray:
    """Criterion LHS modulus at each point from its pieces and ``aa =
    _abs2(points)``. Singular pieces yield non-finite entries for the caller
    to diagnose."""
    z = points
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        am1 = aa - 1.0
        if criterion == "becker":
            return am1 * np.abs(z * pc.pf)
        if criterion == "nehari":
            return 0.5 * am1**2 * np.abs(pc.sf)
        if criterion == "epstein":
            phase = z / np.conj(z)
            return np.abs(0.5 * am1**2 * phase * (pc.sf - pc.sg) - am1 * (z * pc.pg))
        ratio = (1.0 - pc.h0) / pc.h0
        hh = z * pc.h1 / pc.h0
        if criterion == "alpha_zero":
            return np.abs(ratio * aa - am1 * (hh + z * pc.pf))
        phase = z / np.conj(z)
        if criterion == "miazga_wesolowski":
            t = (
                ratio * aa
                - am1 * (hh + z * pc.pg)
                + 0.5 * am1**2 * phase * pc.h0 * (pc.sf - pc.sg)
            )
        else:
            diff = pc.pf - pc.pg
            if squared:
                diff = diff * diff
            t = (
                ratio * aa
                - am1 * (hh + (1.0 - 2.0 * alpha) * z * pc.pf + 2.0 * alpha * z * pc.pg)
                + alpha * am1**2 * phase * pc.h0 * ((alpha - 0.5) * diff + pc.sf - pc.sg)
            )
        return np.abs(t)


def _abs2(z: np.ndarray) -> np.ndarray:
    """z.real * z.real + z.imag * z.imag, bitwise, squaring the contiguous
    float view of ``z`` in one pass."""
    sq = np.ascontiguousarray(z).view(np.float64)
    with np.errstate(over="ignore"):
        sq = sq * sq
        return sq[..., 0::2] + sq[..., 1::2]


def _diagnose(pc: Pieces, points: np.ndarray):
    """Name the precondition that made the criterion non-finite at ``points``
    (``pc`` holds the pieces there); raises the precise error with the
    offending point."""
    for name, bad in (("f'", pc.f1 == 0), ("g'", pc.g1 == 0)):
        if np.any(bad):
            exc = CriticalPoint(f"{name} vanishes at {points[bad][0]}")
            exc.point = complex(points[bad][0])
            raise exc
    if np.any(pc.h0 == 0):
        exc = HVanishes(f"h vanishes at {points[pc.h0 == 0][0]}")
        exc.point = complex(points[pc.h0 == 0][0])
        raise exc
    finite = np.isfinite(pc.f1) & np.isfinite(pc.g1) & np.isfinite(pc.h0)
    witness = points[~finite][0] if not finite.all() else points[0]
    raise EvaluationFailure(f"criterion not evaluable at {witness}")


def _lhs(params: CriterionParams, points: np.ndarray, criterion: str):
    """LHS at ``points``, evaluated block by block, each block's temporaries
    freed before the next block's are made; the singular points of the whole
    set are diagnosed once, after every block."""
    points = np.asarray(points, dtype=np.complex128)
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
        pc = pieces(params.f, params.g, params.h, z, criterion)
        out[lo : lo + _BLOCK] = _assemble_lhs(
            criterion, z, pc, params.alpha, params.squared_variant, aa
        )

    for lo in range(0, points.shape[0], _BLOCK):
        fill(lo)
    bad = ~np.isfinite(out)
    if np.any(bad):
        _diagnose(pieces(params.f, params.g, params.h, points[bad]), points[bad])
    return out


def evaluate_lhs(params: CriterionParams, points) -> np.ndarray:
    """Criterion LHS modulus at every point, using the formula selected by
    ``params.criterion``."""
    return _lhs(params, points, params.criterion)


def theorem1_lhs(params: CriterionParams, zeta: complex) -> float:
    """Master criterion LHS modulus at one point (ignores params.criterion)."""
    out = _lhs(params, np.array([zeta], dtype=np.complex128), "theorem1")
    return float(out[0])


def corollary_lhs(params: CriterionParams, zeta: complex) -> float:
    """Corollary LHS modulus at one point; params.criterion picks the formula."""
    if params.criterion == "theorem1":
        raise InvalidSpec("corollary_lhs needs a corollary criterion id")
    out = _lhs(params, np.array([zeta], dtype=np.complex128), params.criterion)
    return float(out[0])
