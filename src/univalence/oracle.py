"""Independent ground-truth machinery: injectivity scanning and discrete
winding numbers (``winding_rows``, over a batch of contours), as signed
counts of a ray's crossings by the contour; a point whose count rounding
could decide has none.

Nothing here reuses the criterion code it is meant to check: injectivity
comes from direct image comparison of function values alone. A sorted-cell
search finds the candidate pairs, and each is decided exactly by its
distances, ``np.hypot`` of the real and imaginary differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    EvaluationFailure,
    InvalidPlan,
    InvalidSpec,
    OpenContour,
    PointTooCloseToContour,
)
from .sampling import SamplingPlan, sample_exterior

TOLERANCE_SCALE = 1e-9  # collision tolerance as a fraction of image spacing
SEPARATION_SPACINGS = 2.0  # separation floor in units of domain grid spacing
# Most pairs a collision search keeps: eight per sample of the default
# 64 x 128 grid. One collision already decides the verdict, and a tolerance
# wide enough to pass this turns the report into a list of O(n^2) pairs.
COLLISION_LIMIT = 8 * 64 * 128


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
    """Median distance between grid-adjacent samples (angular and radial),
    0.0 on a 1x1 grid, which has no adjacent pair.

    The median is np.median's arithmetic on one np.partition at the middle
    index: for an even count, the lower middle value is the largest of the
    lower half. np.median itself imports numpy.ma, about 2 MB of resident
    memory for one number."""
    mesh = grid.reshape(plan.radial_count, plan.angular_count)
    # A gap or median beyond double range reads as inf; a default tolerance
    # or floor derived from it is then rejected as a plan error.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = []
        if plan.angular_count > 1:  # one angle: each sample is its own neighbour
            gaps.append(np.abs(mesh - np.roll(mesh, 1, axis=1)).ravel())
        if plan.radial_count > 1:
            gaps.append(np.abs(mesh[1:] - mesh[:-1]).ravel())
        if not gaps:
            return 0.0
        gaps = np.concatenate(gaps)
        half = gaps.size // 2
        gaps = np.partition(gaps, half)
        if gaps.size % 2:
            return float(gaps[half])
        return float((gaps[:half].max() + gaps[half]) / 2.0)


def _derived(name, scale, grid_name, grid, plan) -> float:
    """``scale`` times the median spacing of ``grid``; a plan whose spacing
    is beyond double range raises InvalidPlan."""
    spacing = _median_neighbor_spacing(grid, plan)
    value = scale * spacing
    if not np.isfinite(value):
        raise InvalidPlan(
            f"median {grid_name} grid spacing {spacing!r} at r_max = "
            f"{plan.r_max!r} puts the default {name} beyond double range"
        )
    return value


def injectivity_scan(
    f,
    plan: SamplingPlan,
    collision_tolerance: "float | None" = None,
    separation_floor: "float | None" = None,
) -> CollisionReport:
    """Evaluate f on the plan grid and report all near-coincident image pairs
    whose preimages are genuinely separated.

    Default tolerances derive from the grid itself: collision_tolerance is
    1e-9 of the median neighbor image distance (so only true collisions
    qualify) and separation_floor is two grid spacings (so neighboring
    samples never do).
    """
    points = sample_exterior(plan)
    values = f.values(points)
    if not np.all(np.isfinite(values)):
        bad = points[~np.isfinite(values)][0]
        raise EvaluationFailure(f"{f.describe()} not evaluable at grid point {bad}")

    if collision_tolerance is None:
        collision_tolerance = _derived(
            "collision_tolerance", TOLERANCE_SCALE, "image", values, plan
        )
    if separation_floor is None:
        separation_floor = _derived(
            "separation_floor", SEPARATION_SPACINGS, "domain", points, plan
        )

    collisions = collision_pairs(points, values, collision_tolerance, separation_floor)
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
) -> tuple:
    """Near-coincident image pairs among precomputed samples. Pairs are
    canonically ordered, so the result is independent of grid order.

    A tolerance of 0 asks for exact coincidence; a negative or non-finite
    tolerance or floor raises InvalidSpec (a NaN would pass every pair), and
    so does a non-finite point or value (a NaN image is near nothing). A
    search that keeps more than COLLISION_LIMIT index pairs stops at the
    block that passes it and raises InvalidPlan."""
    for name, value in (
        ("collision_tolerance", collision_tolerance),
        ("separation_floor", separation_floor),
    ):
        if not (np.isfinite(value) and value >= 0):
            raise InvalidSpec(f"{name} must be finite and nonnegative, got {value!r}")
    if not (np.isfinite(points).all() and np.isfinite(values).all()):
        raise InvalidSpec("collision search needs finite points and values")
    # np.hypot(re, im) is bitwise the scalar abs of a complex; the vector
    # np.abs is not (it can differ in the last place), so hypot decides each
    # pair exactly and gives the distances reported. A difference beyond
    # double range reads inf: never within tolerance, always separated.
    kept, count = [], 0
    with np.errstate(over="ignore"):
        for i, j in _cell_candidates(values, collision_tolerance):
            d = values[i] - values[j]
            img = np.hypot(d.real, d.imag)
            near = img <= collision_tolerance
            i, j, img = i[near], j[near], img[near]
            d = points[i] - points[j]
            dom = np.hypot(d.real, d.imag)
            apart = dom >= separation_floor
            kept.append((i[apart], j[apart], img[apart], dom[apart]))
            count += kept[-1][0].size
            if count > COLLISION_LIMIT:
                raise InvalidPlan(
                    f"collision search keeps more than {COLLISION_LIMIT} pairs at collision_tolerance "
                    f"{collision_tolerance!r}, separation_floor {separation_floor!r}"
                )
    if not kept:
        return ()
    i, j, img, dom = (np.concatenate(parts) for parts in zip(*kept))
    # Each pair (z1, z2) in canonical order and the pairs sorted by (z1, z2).
    # A pair of points met more than once (repeated points) is reported from
    # its first index pair a < b, as a scan over all pairs meets it.
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    z1, z2 = points[lo], points[hi]
    swap = (z2.real < z1.real) | ((z2.real == z1.real) & (z2.imag < z1.imag))
    z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    order = np.lexsort((hi, lo, z2.imag, z2.real, z1.imag, z1.real))
    z1, z2, img, dom = z1[order], z2[order], img[order], dom[order]
    first = np.ones(z1.shape, dtype=bool)
    first[1:] = (z1[1:] != z1[:-1]) | (z2[1:] != z2[:-1])
    return tuple(
        map(Collision, *(x[first].tolist() for x in (z1, z2, img, dom)))
    )


def _cell_candidates(values: np.ndarray, tolerance: float, block: int = 1 << 20):
    """Yield index arrays (i, j) covering every unordered pair of samples
    whose images lie in the same or adjacent square cells, in blocks of at
    most ``block`` pairs; each such pair appears exactly once.

    Cells are at least ``tolerance`` wide (with a margin for rounding in the
    cell quotient), so every pair within tolerance is a candidate. They are
    also at least 2^-30 of the largest image coordinate wide, which keeps
    cell indices below 2^31 and the int64 cell keys exact at any tolerance.

    Each sample sees its own cell and the four forward neighbours (cx, cy+1)
    and (cx+1, cy-1..cy+1); the other four see each pair from the opposite
    side. With cell key ``cx*stride + cy`` and a spare row in every column,
    these five cells are two intervals of sorted keys, [key, key+1] and
    [key+stride-1, key+stride+1]. Where the second interval starts follows
    from the gaps between sorted keys in O(n) passes: just past the sample's
    run of keys with gaps below stride-1, wherever the run's last key is
    below key+stride-1; only samples whose run spans stride-1 or more ahead
    of them (crowded columns) are searched for it. Most cells hold one
    sample and have no neighbour, so the ends of both intervals are searched
    only for the samples whose interval is not empty.
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
    stride = int(cy.max()) + 2  # a spare row: cy +- 1 past a column edge is empty
    cx *= stride
    cx += cy
    del cy
    # The order within a cell is free: collision_pairs records each pair by
    # its (min, max) indices and reports the pairs in canonical order.
    order = np.argsort(cx)
    keys = cx[order]
    del cx

    # Candidate ranges in sorted order: the samples after this one up to the
    # last of cell (cx, cy+1), i.e. later members of its own cell and all of
    # (cx, cy+1), then the three cells (cx+1, cy-1..cy+1). No other cell's
    # key lies inside either key interval: at a column's edges, cy-1 and
    # cy+1 fall into the spare row. Only nonempty ranges are kept: the first
    # where the next key is at most key+1, the second where the key at lo,
    # the index of the first key at or past key+stride-1, is at most
    # key+stride+1. Sorted queries keep searchsorted cache friendly. The
    # per-sample arrays are dropped before the first yield, so memory is
    # O(n) plus one block.
    step = np.diff(keys)
    near = np.flatnonzero(step <= 1)
    # lo without a search: a run is a maximal stretch of sorted keys, each
    # less than stride-1 above the one before, so the key after a run is at
    # least stride-1 above all of it, and lo is the run's last index + 1
    # wherever the run's last key is below key+stride-1. A sample that ends
    # its run has lo = its index + 1; the samples whose run goes on take the
    # end of their run, and only those whose run still spans stride-1 or
    # more ahead of them (crowded columns) are searched.
    lo = np.arange(1, n + 1)
    rest = np.flatnonzero(step < stride - 1)  # every sample but a run's last
    breaks = np.flatnonzero(np.diff(rest, append=n) != 1)  # runs' ends in rest
    end = np.repeat(rest[breaks] + 1, np.diff(breaks, prepend=-1))  # its run's last
    lo[rest] = end + 1
    crowded = rest[keys[end] >= keys[rest] + (stride - 1)]
    lo[crowded] = np.searchsorted(keys, keys[crowded] + (stride - 1), "left")
    head = keys.take(lo, mode="clip")  # lo = n, past the last key, is masked
    beside = np.flatnonzero((lo < n) & (head <= keys + (stride + 1)))
    owners = np.concatenate((near, beside))
    starts = np.concatenate((near + 1, lo[beside]))
    last_keys = np.concatenate((keys[near] + 1, keys[beside] + (stride + 1)))
    counts = np.searchsorted(keys, last_keys, "right")
    counts -= starts
    del keys, step, near, lo, rest, breaks, end, crowded, head, beside, last_keys
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


def winding_rows(contours, points) -> tuple:
    """Winding numbers of each row of ``contours`` (closed discrete contours)
    around the same row of ``points``, from one crossing-count pass over all
    rows, and per row None or the error that row raises alone: InvalidSpec for
    a non-finite sample or point, OpenContour for a contour whose endpoints
    differ by more than 1e-12 of its scale (at least 1), and
    PointTooCloseToContour for its first point whose count rounding could
    decide."""
    if contours.shape[-1] < 3:
        raise OpenContour("contour needs at least 3 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        turns = _kernels.winding_sum(
            np.ascontiguousarray(contours.real),
            np.ascontiguousarray(contours.imag),
            points.real,
            points.imag,
        )
        numbers = turns.astype(int)  # a failed row's numbers mean nothing
        gap = contours[:, 0] - contours[:, -1]
        gaps = np.hypot(gap.real, gap.imag)  # bitwise the scalar abs of each gap
        scales = np.max(np.abs(contours), axis=1, initial=1.0)
    finite = np.isfinite(contours).all(axis=1) & np.isfinite(points).all(axis=1)
    errors = [None] * len(contours)
    for i, row in enumerate(np.isnan(turns)):
        if not finite[i]:
            errors[i] = InvalidSpec("winding number needs finite contour samples and points")
        elif gaps[i] > 1e-12 * scales[i]:
            errors[i] = OpenContour(f"contour endpoints differ by {gaps[i]}")
        elif row.any():
            point = complex(points[i, np.argmax(row)])
            errors[i] = PointTooCloseToContour(f"point {point} within rounding of the contour")
    return numbers, errors
