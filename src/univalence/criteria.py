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
    """Building blocks of every criterion at a set of points."""

    f1: np.ndarray  # f'
    g1: np.ndarray  # g'
    h0: np.ndarray  # h
    h1: np.ndarray  # h'
    pf: np.ndarray  # f''/f'
    sf: np.ndarray  # Schwarzian of f
    pg: np.ndarray  # g''/g'
    sg: np.ndarray  # Schwarzian of g


def pieces(f, g, h, points: np.ndarray) -> Pieces:
    """Criterion pieces of (f, g, h) at each point; shared by the criterion
    scan and the Loewner driving function. Critical points and poles yield
    non-finite entries for the caller to diagnose."""
    fd = f.derivs(points, order=3)
    gd = g.derivs(points, order=3)
    hd = h.derivs(points, order=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pf = fd[2] / fd[1]
        pg = gd[2] / gd[1]
        sf = fd[3] / fd[1] - 1.5 * pf * pf
        sg = gd[3] / gd[1] - 1.5 * pg * pg
    return Pieces(fd[1], gd[1], hd[0], hd[1], pf, sf, pg, sg)


def _assemble_lhs(
    criterion: str, points: np.ndarray, pc: Pieces, alpha: complex, squared: bool
) -> np.ndarray:
    """Criterion LHS modulus at each point from its pieces. Singular pieces
    yield non-finite entries for the caller to diagnose."""
    z = points
    with np.errstate(divide="ignore", invalid="ignore"):
        aa = z.real * z.real + z.imag * z.imag
        if criterion == "becker":
            return (aa - 1.0) * np.abs(z * pc.pf)
        if criterion == "nehari":
            return 0.5 * (aa - 1.0) ** 2 * np.abs(pc.sf)
        ratio = (1.0 - pc.h0) / pc.h0
        hh = z * pc.h1 / pc.h0
        phase = z / np.conj(z)
        if criterion == "alpha_zero":
            t = ratio * aa - (aa - 1.0) * (hh + z * pc.pf)
        elif criterion == "miazga_wesolowski":
            t = (
                ratio * aa
                - (aa - 1.0) * (hh + z * pc.pg)
                + 0.5 * (aa - 1.0) ** 2 * phase * pc.h0 * (pc.sf - pc.sg)
            )
        elif criterion == "epstein":
            t = 0.5 * (aa - 1.0) ** 2 * phase * (pc.sf - pc.sg) - (aa - 1.0) * (
                z * pc.pg
            )
        else:
            diff = pc.pf - pc.pg
            if squared:
                diff = diff * diff
            t = (
                ratio * aa
                - (aa - 1.0)
                * (hh + (1.0 - 2.0 * alpha) * z * pc.pf + 2.0 * alpha * z * pc.pg)
                + alpha
                * (aa - 1.0) ** 2
                * phase
                * pc.h0
                * ((alpha - 0.5) * diff + pc.sf - pc.sg)
            )
        return np.abs(t)


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
    points = np.asarray(points, dtype=np.complex128)
    if np.any(np.abs(points) <= 1.0):
        bad = points[np.abs(points) <= 1.0][0]
        raise OutsideDomain(f"criterion point {bad} not in the exterior disk")
    pc = pieces(params.f, params.g, params.h, points)
    out = _assemble_lhs(criterion, points, pc, params.alpha, params.squared_variant)
    bad = ~np.isfinite(out)
    if np.any(bad):
        _diagnose(Pieces(*(row[bad] for row in pc)), points[bad])
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
