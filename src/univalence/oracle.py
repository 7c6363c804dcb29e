"""Independent ground-truth machinery: brute-force injectivity scanning,
discrete winding numbers, and finite-difference derivative oracles.

Nothing here reuses the jet code paths it is meant to check: derivatives come
from plain central differences and injectivity from direct image comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    EvaluationFailure,
    InvalidSpec,
    OpenContour,
    PointTooCloseToContour,
    StencilLeavesDomain,
)
from .jet import ComplexJet
from .sampling import SamplingPlan, sample_exterior

TOLERANCE_SCALE = 1e-9  # collision tolerance as a fraction of image spacing
SEPARATION_SPACINGS = 2.0  # separation floor in units of domain grid spacing


@dataclass(frozen=True)
class Collision:
    z1: complex
    z2: complex
    image_distance: float
    domain_distance: float


@dataclass(frozen=True)
class CollisionReport:
    """All grid pairs mapped within tolerance of each other while separated in
    the domain. Empty means injective on the sampled grid at the stated
    tolerances; it claims nothing beyond the grid."""

    collisions: tuple
    grid_size: int
    collision_tolerance: float
    separation_floor: float

    def to_json_dict(self) -> dict:
        return {
            "collisions": [
                {
                    "z1": {"re": c.z1.real, "im": c.z1.imag},
                    "z2": {"re": c.z2.real, "im": c.z2.imag},
                    "image_distance": c.image_distance,
                    "domain_distance": c.domain_distance,
                }
                for c in self.collisions
            ],
            "grid_size": self.grid_size,
            "collision_tolerance": self.collision_tolerance,
            "separation_floor": self.separation_floor,
        }


def _median_neighbor_spacing(grid: np.ndarray, plan: SamplingPlan) -> float:
    """Median distance between grid-adjacent samples (angular and radial).

    The median is np.median's arithmetic on np.partition; np.median itself
    imports numpy.ma, about 2 MB of resident memory for one number."""
    mesh = grid.reshape(plan.radial_count, plan.angular_count)
    gaps = [np.abs(mesh - np.roll(mesh, 1, axis=1)).ravel()]
    if plan.radial_count > 1:
        gaps.append(np.abs(mesh[1:] - mesh[:-1]).ravel())
    gaps = np.concatenate(gaps)
    half = gaps.size // 2
    if gaps.size % 2:
        return float(np.partition(gaps, half)[half])
    gaps = np.partition(gaps, (half - 1, half))
    return float((gaps[half - 1] + gaps[half]) / 2.0)


def _pair_key(z1: complex, z2: complex):
    a = (z1.real, z1.imag)
    b = (z2.real, z2.imag)
    return (a, b) if a <= b else (b, a)


def injectivity_scan(
    f,
    plan: SamplingPlan,
    collision_tolerance: "float | None" = None,
    separation_floor: "float | None" = None,
    pairwise: bool = False,
) -> CollisionReport:
    """Evaluate f on the plan grid and report all near-coincident image pairs
    whose preimages are genuinely separated.

    Default tolerances derive from the grid itself: collision_tolerance is
    1e-9 of the median neighbor image distance (so only true collisions
    qualify) and separation_floor is two grid spacings (so neighboring
    samples never do). ``pairwise=True`` switches to the O(n^2) reference
    scan, intended for small grids as the oracle's own oracle.
    """
    points = sample_exterior(plan)
    values = f.values(points)
    if not np.all(np.isfinite(values)):
        bad = points[~np.isfinite(values)][0]
        raise EvaluationFailure(f"{f.describe()} not evaluable at grid point {bad}")

    if collision_tolerance is None:
        img_spacing = _median_neighbor_spacing(values, plan)
        collision_tolerance = TOLERANCE_SCALE * img_spacing
    if separation_floor is None:
        dom_spacing = _median_neighbor_spacing(points, plan)
        separation_floor = SEPARATION_SPACINGS * dom_spacing

    collisions = collision_pairs(
        points, values, collision_tolerance, separation_floor, pairwise
    )
    return CollisionReport(
        collisions=collisions,
        grid_size=points.shape[0],
        collision_tolerance=float(collision_tolerance),
        separation_floor=float(separation_floor),
    )


def collision_pairs(
    points: np.ndarray,
    values: np.ndarray,
    collision_tolerance: float,
    separation_floor: float,
    pairwise: bool = False,
) -> tuple:
    """Near-coincident image pairs among precomputed samples. Pairs are
    canonically ordered, so the result is independent of grid order.

    A tolerance of 0 asks for exact coincidence; a negative or non-finite
    tolerance or floor raises InvalidSpec (a NaN would pass every pair)."""
    for name, value in (
        ("collision_tolerance", collision_tolerance),
        ("separation_floor", separation_floor),
    ):
        if not (np.isfinite(value) and value >= 0):
            raise InvalidSpec(f"{name} must be finite and nonnegative, got {value!r}")
    n = points.shape[0]
    found = {}

    def consider(i, j):
        img = abs(values[i] - values[j])
        if img > collision_tolerance:
            return
        dom = abs(points[i] - points[j])
        if dom < separation_floor:
            return
        key = _pair_key(complex(points[i]), complex(points[j]))
        found.setdefault(
            key,
            Collision(
                complex(key[0][0], key[0][1]),
                complex(key[1][0], key[1][1]),
                img,
                dom,
            ),
        )

    if pairwise:
        for i in range(n):
            for j in range(i + 1, n):
                consider(i, j)
    else:
        # The vector np.abs can differ from the scalar abs in the last ulp,
        # so it only prefilters (with slack) and consider() decides and
        # records, keeping the reported distances those of the scalar path.
        img_limit = collision_tolerance * (1.0 + 1e-12)
        dom_limit = separation_floor * (1.0 - 1e-12)
        for i, j in _cell_candidates(values, collision_tolerance):
            keep = (np.abs(values[i] - values[j]) <= img_limit) & (
                np.abs(points[i] - points[j]) >= dom_limit
            )
            lo = np.minimum(i[keep], j[keep]).tolist()
            hi = np.maximum(i[keep], j[keep]).tolist()
            for a, b in zip(lo, hi):
                consider(a, b)

    return tuple(found[k] for k in sorted(found))


def _cell_candidates(values: np.ndarray, tolerance: float, block: int = 1 << 20):
    """Yield index arrays (i, j) covering every unordered pair of samples
    whose images lie in the same or adjacent square cells, in blocks of at
    most ``block`` pairs; each such pair appears exactly once.

    Cells are at least ``tolerance`` wide (with a margin for rounding in the
    cell quotient), so every pair within tolerance is a candidate. They are
    also at least 2^-30 of the largest image coordinate wide, which keeps
    cell indices below 2^31 and the int64 cell keys exact at any tolerance.
    """
    n = values.shape[0]
    if n < 2:
        return
    scale = max(float(np.max(np.abs(values.real))), float(np.max(np.abs(values.imag))))
    width = (1.0 + 2.0**-16) * max(tolerance, scale * 2.0**-30, np.finfo(float).tiny)
    cx = np.floor(values.real / width).astype(np.int64)
    cx -= cx.min()
    cy = np.floor(values.imag / width).astype(np.int64)
    cy -= cy.min()
    stride = int(cy.max()) + 2  # a spare row, so cy - 1 never aliases a column
    cx *= stride
    cx += cy
    del cy
    order = np.argsort(cx, kind="stable")
    keys = cx[order]
    del cx

    # Candidate ranges in sorted order: later members of the own cell, then
    # the four forward neighbours (cx, cy+1), (cx+1, cy-1), (cx+1, cy),
    # (cx+1, cy+1); the other four see each pair from the opposite side.
    # The queries are sorted, which keeps searchsorted cache friendly. Only
    # nonempty ranges are kept, and the per-sample arrays are dropped before
    # the first yield, so memory is O(n) plus one block.
    pos = np.arange(n)
    owners, starts, counts = [], [], []
    for offset in (0, 1, stride - 1, stride, stride + 1):
        query = keys + offset
        lo = pos + 1 if offset == 0 else np.searchsorted(keys, query, "left")
        hi = np.searchsorted(keys, query, "right")
        hi -= lo
        live = hi > 0
        owners.append(pos[live])
        starts.append(lo[live])
        counts.append(hi[live])
    del keys, query, lo, hi, live
    owners = np.concatenate(owners)
    starts = np.concatenate(starts)
    counts = np.concatenate(counts)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0

    # Number the candidate pairs 0..total-1 range after range and expand
    # them block by block; a range straddling a block edge is cut.
    for first in range(0, total, block):
        last = min(first + block, total)
        r0 = int(np.searchsorted(ends, first, "right"))
        r1 = int(np.searchsorted(ends, last - 1, "right")) + 1
        range_start = ends[r0:r1] - counts[r0:r1]
        take = np.minimum(ends[r0:r1], last) - np.maximum(range_start, first)
        i = np.repeat(owners[r0:r1], take)
        j = np.repeat(starts[r0:r1] - range_start, take) + np.arange(first, last)
        yield order[i], order[j]


def winding_number(contour_samples, point: complex) -> int:
    """Winding number of a closed discrete contour around a point, from
    accumulated phase increments."""
    contour = np.asarray(contour_samples, dtype=np.complex128)
    if contour.shape[0] < 3:
        raise OpenContour("contour needs at least 3 samples")
    if abs(contour[0] - contour[-1]) > 1e-12:
        raise OpenContour(
            f"contour endpoints differ by {abs(contour[0] - contour[-1])}"
        )
    point = complex(point)
    total, min_dist = _kernels.winding_sum(
        np.ascontiguousarray(contour.real),
        np.ascontiguousarray(contour.imag),
        point.real,
        point.imag,
    )
    if min_dist <= 1e-9:
        raise PointTooCloseToContour(
            f"point {point} within {min_dist} of the contour"
        )
    turns = total / (2.0 * np.pi)
    nearest = round(turns)
    if abs(turns - nearest) >= 0.1:
        raise PointTooCloseToContour(
            f"phase sum {turns} turns is not near an integer"
        )
    return int(nearest)


def fd_derivatives(f, zeta: complex, step: float = 1e-3) -> ComplexJet:
    """Second-order central-difference estimates of f, f', f'', f''' using
    the stencil zeta + {0, +-step, +-2 step} along the real axis."""
    zeta = complex(zeta)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step
    stencil = zeta + offsets
    if np.any(np.abs(stencil) <= 1.0):
        raise StencilLeavesDomain(
            f"stencil around {zeta} with step {step} leaves the exterior disk"
        )
    vm2, vm1, v0, vp1, vp2 = f.values(stencil)
    d1 = (vp1 - vm1) / (2.0 * step)
    d2 = (vp1 - 2.0 * v0 + vm1) / (step * step)
    d3 = (vp2 - 2.0 * vp1 + 2.0 * vm1 - vm2) / (2.0 * step**3)
    return ComplexJet(complex(v0), complex(d1), complex(d2), complex(d3))
