import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import univalence as uv
from univalence.errors import (
    EvaluationFailure,
    InvalidPlan,
    InvalidSpec,
    OpenContour,
    PointTooCloseToContour,
)
from univalence.oracle import (
    Collision,
    _cell_candidates,
    _median_neighbor_spacing,
    collision_pairs,
    injectivity_scan,
    winding_numbers,
    winding_rows,
)


def unit_circle(nodes=128, turns=1):
    theta = np.linspace(0.0, 2.0 * np.pi * turns, nodes * turns + 1)
    return np.exp(1j * theta)


def brute_force_pairs(points, values, tol, floor):
    """The O(n^2) reference for collision_pairs: every pair, scalar abs,
    each pair (z1, z2) in canonical order, the pairs sorted."""
    found = {}
    n = len(points)
    with np.errstate(over="ignore"):
        for a in range(n):
            for b in range(a + 1, n):
                img = abs(values[a] - values[b])
                dom = abs(points[a] - points[b])
                if img <= tol and dom >= floor:
                    ends = sorted((complex(points[a]), complex(points[b])),
                                  key=lambda z: (z.real, z.imag))
                    key = tuple((z.real, z.imag) for z in ends)
                    found.setdefault(key, Collision(*ends, img, dom))
    return tuple(found[k] for k in sorted(found))


def bits(collisions):
    """Each collision's points and distances as the bits of their floats."""
    return [
        tuple(float(x).hex() for x in (c.z1.real, c.z1.imag, c.z2.real, c.z2.imag,
                                        c.image_distance, c.domain_distance))
        for c in collisions
    ]


def brute_force_scan(f, plan, report):
    """brute_force_pairs over the plan grid at the report's tolerances."""
    points = uv.sample_exterior(plan)
    values = f.values(points)
    return brute_force_pairs(
        points, values, report.collision_tolerance, report.separation_floor
    )


def collision_plan():
    # Geometric radii hit 1.05 and 8/7 exactly, the analytic collision pair
    # of z + 1.2/z (z1 * z2 = 1.2).
    r_min = 1.05
    r_max = 1.05 * (8 / 7.35) ** 2
    return uv.SamplingPlan(r_min=r_min, r_max=r_max, radial_count=3, angular_count=64)


class TestWindingNumber:
    def test_inside_outside(self):
        assert winding_numbers(unit_circle(), [0.0, 2.0]).tolist() == [1, 0]

    def test_double_traversal(self):
        assert winding_numbers(unit_circle(turns=2), [0.0]).tolist() == [2]

    def test_reversal_negates(self, rng):
        contour = unit_circle(64) * (1.0 + 0.3 * np.cos(np.linspace(0, 6 * np.pi, 65)))
        points = [0.0, 0.4 + 0.2j]
        assert np.array_equal(
            winding_numbers(contour[::-1], points), -winding_numbers(contour, points)
        )

    def test_open_contour_rejected(self):
        theta = np.linspace(0.0, 1.5 * np.pi, 40)
        with pytest.raises(OpenContour):
            winding_numbers(np.exp(1j * theta), [0.0])

    def test_closure_is_relative_to_the_contour_scale(self):
        # a 64-gon of radius 1e5 ends 2.4e-11 from its start, a relative gap
        # of 2.4e-16: it closes
        circle = 1e5 * np.exp(2j * np.pi * np.arange(65) / 64)
        assert abs(circle[-1] - circle[0]) > 1e-12
        assert winding_numbers(circle, [0.0]).tolist() == [1]

    def test_point_on_contour_rejected(self):
        with pytest.raises(PointTooCloseToContour):
            winding_numbers(unit_circle(), [1.0])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_point_on_a_large_segment_rejected(self, reverse):
        # the probe lies exactly on the segment 5e8-5e8j -> 0 (y = -x), in
        # either orientation of the contour
        contour = np.array([0, -1e-7j, 5e8 - 5e8j, 0])
        contour = contour[::-1] if reverse else contour
        with pytest.raises(PointTooCloseToContour, match="within rounding of the contour$"):
            winding_numbers(contour, [249999999.9999999 - 249999999.9999999j])

    def test_vector_matches_scalar(self, rng):
        contour = unit_circle(64) * (1.0 + 0.3 * np.cos(np.linspace(0, 6 * np.pi, 65)))
        points = rng.normal(size=40) + 1j * rng.normal(size=40)
        points = points[np.abs(np.abs(points) - 1.0) > 0.35]
        assert winding_numbers(contour, points).tolist() == [
            winding_numbers(contour, [p])[0] for p in points
        ]

    def test_vector_raises_for_first_bad_point(self):
        # 1.0 lies on the contour, 0.0 inside; the first point without a
        # winding number names the error, as it would alone
        with pytest.raises(PointTooCloseToContour, match=r"point \(1\+0j\) within"):
            winding_numbers(unit_circle(), [0.0, 1.0, 1j])

    @pytest.mark.parametrize("where", ["contour", "point"])
    def test_non_finite_input_rejected(self, where):
        # abs(NaN) > 1e-12 is False, so the closure check alone would let a
        # NaN contour through to the crossing count
        contour, points = unit_circle(), np.array([0.0, 2.0], dtype=complex)
        if where == "contour":
            contour[0] = contour[-1] = np.nan
        else:
            points[1] = complex(np.nan, 0.0)
        with pytest.raises(InvalidSpec, match="^winding number needs finite"):
            winding_numbers(contour, points)

    def test_rows_judged_as_alone(self):
        # one pass over rows that pass, hit a vertex, lie 1e-5 inside a thin
        # rectangle, do not close or hold a NaN: each row's numbers or error
        # are winding_numbers'
        circle = unit_circle(256)
        corners = np.array([-1 - 1e-5j, 1 - 1e-5j, 1 + 1e-5j, -1 + 1e-5j, -1 - 1e-5j])
        at = np.linspace(0.0, 4.0, 257)
        rect = np.interp(at, range(5), corners.real) + 1j * np.interp(at, range(5), corners.imag)
        unclosed = circle * np.exp(0.1j * np.linspace(0.0, 1.0, 257))
        with_nan = circle.copy()
        with_nan[5] = np.nan
        contours = np.array([circle, circle, rect, unclosed, with_nan])
        points = np.array(
            [
                [0.0, 2.0, 0.5j],
                [0.0, circle[3], 3.0],
                [0.0, 0.5, 2j],
                [0.0, 0.1, 0.2],
                [0.0, 0.1, 0.2],
            ]
        )
        turns, errors = winding_rows(contours, points)
        for contour, row, numbers, error in zip(contours, points, turns, errors):
            try:
                want = winding_numbers(contour, row)
            except (InvalidSpec, OpenContour, PointTooCloseToContour) as exc:
                assert type(error) is type(exc) and str(error) == str(exc)
            else:
                assert error is None and numbers.tolist() == want.tolist()
        assert [type(e).__name__ for e in errors] == [
            "NoneType",
            "PointTooCloseToContour",
            "NoneType",
            "OpenContour",
            "InvalidSpec",
        ]
        assert turns[2].tolist() == [1, 1, 0]


class TestInjectivityScan:
    def test_identity_has_no_collisions(self):
        rep = injectivity_scan(uv.identity(), uv.SamplingPlan(radial_count=16, angular_count=32))
        assert rep.collisions == ()
        assert rep.grid_size == 16 * 32

    def test_joukowski_below_unit_coefficient_is_clean(self):
        plan = uv.SamplingPlan(r_max=10.0, radial_count=32, angular_count=64)
        rep = injectivity_scan(uv.joukowski(0.8), plan)
        assert rep.collisions == ()

    def test_joukowski_collision_pair_found(self):
        rep = injectivity_scan(
            uv.joukowski(1.2),
            collision_plan(),
            collision_tolerance=1e-9,
            separation_floor=0.05,
        )
        assert rep.collisions
        target = min(
            rep.collisions,
            key=lambda c: abs(c.z1 - 1.05) + abs(c.z2 - 8 / 7),
        )
        assert abs(target.z1 - 1.05) < 1e-9 and abs(target.z2 - 8 / 7) < 1e-9
        assert target.image_distance <= 1e-9
        assert target.domain_distance >= 0.05

    def test_near_collision_with_loose_tolerance(self):
        # A generic grid over [1.01, 1.4] has no exact pair, but near-misses
        # cluster around the analytic one.
        plan = uv.SamplingPlan(r_min=1.01, r_max=1.4, radial_count=64, angular_count=64)
        rep = injectivity_scan(
            uv.joukowski(1.2), plan, collision_tolerance=1e-3, separation_floor=0.05
        )
        assert rep.collisions
        best = min(rep.collisions, key=lambda c: abs(c.z1 - 1.05))
        assert abs(best.z1 * best.z2 - 1.2) < 0.05

    def test_bucket_matches_pairwise(self):
        plan = uv.SamplingPlan(r_min=1.02, r_max=1.5, radial_count=12, angular_count=24)
        for f in (uv.joukowski(1.2), uv.joukowski(0.9), uv.identity()):
            fast = injectivity_scan(f, plan, collision_tolerance=1e-3, separation_floor=0.05)
            assert fast.collisions == brute_force_scan(f, plan, fast)

    def test_reversing_grid_order_is_invariant(self):
        plan = collision_plan()
        pts = uv.sample_exterior(plan)
        vals = uv.joukowski(1.2).values(pts)
        fwd = collision_pairs(pts, vals, 1e-9, 0.05)
        rev = collision_pairs(pts[::-1], vals[::-1], 1e-9, 0.05)
        assert fwd == rev

    def test_zero_tolerance_means_exact_coincidence(self):
        plan = uv.SamplingPlan(r_min=1.01, r_max=1.4, radial_count=16, angular_count=32)
        f = uv.joukowski(1.2)
        fast = injectivity_scan(f, plan, collision_tolerance=0.0)
        assert fast.collisions == brute_force_scan(f, plan, fast)
        # rounded images coincide exactly in many pairs
        pts = uv.sample_exterior(plan)
        vals = np.round(f.values(pts), 1)
        fast = collision_pairs(pts, vals, 0.0, 0.05)
        assert fast == brute_force_pairs(pts, vals, 0.0, 0.05)
        assert fast and all(c.image_distance == 0.0 for c in fast)
        # a zero-width cell no longer collapses the grid into one bucket
        big = uv.SamplingPlan(r_min=1.01, r_max=1.4, radial_count=64, angular_count=128)
        assert injectivity_scan(f, big, collision_tolerance=0.0).grid_size == 64 * 128

    @pytest.mark.parametrize(
        "tol, floor",
        [(-1.0, 0.05), (np.nan, 0.05), (np.inf, 0.05), (1e-9, -0.5), (1e-9, np.nan)],
    )
    def test_bad_tolerances_raise(self, tol, floor):
        with pytest.raises(InvalidSpec):
            injectivity_scan(
                uv.joukowski(1.2),
                collision_plan(),
                collision_tolerance=tol,
                separation_floor=floor,
            )
        pts = uv.sample_exterior(collision_plan())
        with pytest.raises(InvalidSpec):
            collision_pairs(pts, uv.joukowski(1.2).values(pts), tol, floor)

    def test_default_tolerances_beyond_double_range_name_the_plan(self):
        # grid gaps of about 1.7e308 * sqrt(2) read inf
        plan = uv.SamplingPlan(r_max=1.7e308, radial_count=2, angular_count=4)
        with pytest.raises(InvalidPlan, match=r"^median image grid spacing inf at r_max = "
                           r"1\.7e\+308 puts the default collision_tolerance beyond"):
            injectivity_scan(uv.identity(), plan)
        with pytest.raises(InvalidPlan, match=r"^median domain grid spacing inf at r_max = "
                           r"1\.7e\+308 puts the default separation_floor beyond"):
            injectivity_scan(uv.identity(), plan, collision_tolerance=1e-9)
        # with both given, nothing is derived and the scan runs
        assert injectivity_scan(uv.identity(), plan, 1e-9, 0.5).collisions == ()

    def test_nonfinite_samples_raise(self):
        points = np.arange(2.0, 6.0).astype(np.complex128)
        values = np.array([1.0, np.nan, 1.0, 2.0], dtype=np.complex128)
        with pytest.raises(InvalidSpec):
            collision_pairs(points, values, 1e-3, 0.0)
        with pytest.raises(InvalidSpec):
            collision_pairs(values, points, 1e-3, 0.0)

    def test_differences_beyond_double_range_read_inf(self):
        # images 1.8e308 apart, in adjacent cells of width 1e308
        points = np.array([2.0, 5.0], dtype=np.complex128)
        values = np.array([0.9e308, -0.9e308], dtype=np.complex128)
        assert collision_pairs(points, values, 1e308, 0.5) == ()
        # coinciding images of preimages 3.4e308 apart
        far = np.array([1.7e308, -1.7e308], dtype=np.complex128)
        zeros = np.zeros(2, dtype=np.complex128)
        hits = collision_pairs(far, zeros, 1e-9, 0.5)
        (hit,) = hits
        assert hit.image_distance == 0.0 and hit.domain_distance == np.inf
        assert hits == brute_force_pairs(far, zeros, 1e-9, 0.5)

    def test_cell_candidates_blocks_cover_each_pair_once(self, rng):
        n = 200
        values = np.round(2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n)), 1)
        (whole,) = _cell_candidates(values, 0.5)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(*whole)}
        assert len(pairs) == len(whole[0])
        close = {
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if abs(values[a] - values[b]) <= 0.5
        }
        assert close <= pairs
        for block in (1, 7, 1000):
            parts = list(_cell_candidates(values, 0.5, block))
            assert all(len(i) <= block for i, _ in parts)
            assert np.array_equal(np.concatenate([i for i, _ in parts]), whole[0])
            assert np.array_equal(np.concatenate([j for _, j in parts]), whole[1])

    def test_cell_candidates_across_cell_edges(self):
        # A square lattice of step tol/1.5 straddles the (about tol wide)
        # cell edges, so every forward neighbour (cx, cy+1) and
        # (cx+1, cy-1..cy+1) holds pairs within tol, in the lowest and
        # highest rows too, where cy-1 and cy+1 fall into the spare row.
        tol = 1.0
        step = tol / 1.5
        re, im = np.meshgrid(0.3 + step * np.arange(13), -0.2 + step * np.arange(9))
        values = (re + 1j * im).ravel()
        n = values.size
        close = {
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if abs(values[a] - values[b]) <= tol
        }
        width = (1.0 + 2.0**-16) * tol
        cells = [(np.floor(v.real / width), np.floor(v.imag / width)) for v in values]
        offsets = set()
        for a, b in close:
            d = (cells[b][0] - cells[a][0], cells[b][1] - cells[a][1])
            offsets.add(max(d, (-d[0], -d[1])))
        assert offsets == {(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)}
        for block in (1 << 20, 1, 7):
            seen = [
                (min(a, b), max(a, b))
                for i, j in _cell_candidates(values, tol, block)
                for a, b in zip(i.tolist(), j.tolist())
            ]
            assert len(seen) == len(set(seen))
            assert close <= set(seen)
            # only same or adjacent cells: no candidate from an aliased key
            gaps = np.array([values[a] - values[b] for a, b in seen])
            assert np.abs(gaps.real).max() < 2.001 * tol
            assert np.abs(gaps.imag).max() < 2.001 * tol
        points = 10.0 + np.arange(n, dtype=np.complex128)
        fast = collision_pairs(points, values, tol, 0.5)
        assert fast == brute_force_pairs(points, values, tol, 0.5)
        assert len(fast) == len(close)

    @pytest.mark.parametrize("radial", [1, 3])
    @pytest.mark.parametrize("angular", [1, 5, 6])  # one angle, odd and even gap counts
    def test_median_neighbor_spacing_is_the_median(self, rng, radial, angular):
        plan = uv.SamplingPlan(radial_count=radial, angular_count=angular)
        for scale in (1e-3, 1.0, 1e6):
            grid = scale * np.array([1.0, 1j]) @ rng.normal(size=(2, radial * angular))
            mesh = grid.reshape(radial, angular)
            gaps = [np.abs(np.diff(mesh, axis=0)).ravel()]
            if angular > 1:  # with one angle, a sample's neighbour is itself
                gaps.append(np.abs(mesh - mesh[:, np.arange(angular) - 1]).ravel())
            gaps = np.concatenate(gaps)
            want = np.median(gaps) if gaps.size else 0.0  # a 1x1 grid has no pair
            assert _median_neighbor_spacing(grid, plan) == want

    def test_evaluation_failure_carries_point(self):
        # moebius pole inside the scanned region
        f = uv.moebius_of(uv.identity(), 1, 0, 1, -2)  # pole at z = 2
        plan = uv.SamplingPlan(r_min=1.5, r_max=3.0, radial_count=9, angular_count=8)
        pts = uv.sample_exterior(plan)
        if np.any(np.isclose(pts, 2.0)):
            with pytest.raises(EvaluationFailure):
                injectivity_scan(f, plan)

    def test_json_report_shape(self):
        rep = injectivity_scan(
            uv.joukowski(1.2), collision_plan(), collision_tolerance=1e-9, separation_floor=0.05
        )
        d = rep.to_json_dict()
        assert {"collisions", "grid_size", "collision_tolerance", "separation_floor"} <= set(d)
        assert {"z1", "z2", "image_distance", "domain_distance"} <= set(d["collisions"][0])


coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
sigma_maps = st.one_of(
    coefficients.map(uv.joukowski),
    st.builds(
        uv.laurent,
        st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
        coefficients,
        st.lists(coefficients, max_size=4),
    ),
)


@settings(max_examples=25, deadline=None)
@given(
    f=sigma_maps,
    tol=st.sampled_from([0.0, 1e-9, 1e-3, 1e-1, 10.0]),
    floor=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_cell_search_matches_pairwise(f, tol, floor):
    plan = uv.SamplingPlan(r_min=1.02, r_max=1.5, radial_count=12, angular_count=24)
    fast = injectivity_scan(f, plan, collision_tolerance=tol, separation_floor=floor)
    assert bits(fast.collisions) == bits(brute_force_scan(f, plan, fast))


coordinates = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308, np.inf, -np.inf]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=20))
def test_hypot_is_the_scalar_complex_abs(pairs):
    # collision_pairs decides and reports with np.hypot(re, im); the O(n^2)
    # reference uses the scalar abs of np.complex128, the same bits.
    re, im = np.array(pairs).T
    want = np.array([abs(np.complex128(complex(x, y))) for x, y in pairs])
    with np.errstate(over="ignore"):
        got = np.hypot(re, im)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    lattice=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)), max_size=30
    ),
    tol=st.sampled_from([0.0, 1e-3, 1.5]),
    floor=st.sampled_from([0.0, 1.0]),
)
def test_repeated_points_match_pairwise(lattice, tol, floor):
    # Repeated points meet one pair of points through several index pairs;
    # each pair is reported once, from its first index pair, as brute force
    # reports it, whatever order the cell search finds the candidates in.
    p, re, im = np.array(lattice, dtype=float).reshape(-1, 3).T
    points = (p + 3.0) * (1.0 - 0.5j)
    values = (re + 1j * im) * (1.0 + 1e-4 * p)
    fast = collision_pairs(points, values, tol, floor)
    assert bits(fast) == bits(brute_force_pairs(points, values, tol, floor))


def cells_of(values, tol):
    """The (cx, cy) cell of each image, as the collision search draws them:
    side (1 + 2^-16) * max(tol, 2^-30 * largest coordinate, tiny)."""
    scale = max(np.abs(values.real).max(), np.abs(values.imag).max())
    width = (1.0 + 2.0**-16) * max(tol, scale * 2.0**-30, np.finfo(float).tiny)
    return np.floor(values.real / width), np.floor(values.imag / width)


def cell_search(values, tol, block=1 << 20):
    """_cell_candidates' blocks joined into two arrays."""
    parts = list(_cell_candidates(values, tol, block))
    assert all(len(i) <= block for i, _ in parts)
    empty = [np.empty(0, dtype=np.intp)]
    return (np.concatenate([i for i, _ in parts] or empty),
            np.concatenate([j for _, j in parts] or empty))


@settings(max_examples=80, deadline=None)
@given(
    tol=st.sampled_from([0.0, 0.5, 1.0]),
    per_cell=st.sampled_from([1, 2, 3]),
    layout=st.sampled_from(["grid", "column", "row"]),
    lattice=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=40),
)
@example(tol=1.0, per_cell=1, layout="grid", lattice=[])
@example(tol=1.0, per_cell=1, layout="grid", lattice=[(0, 0)])
@example(tol=1.0, per_cell=1, layout="grid", lattice=[(0, 0), (0, 0)])
@example(tol=1.0, per_cell=1, layout="grid", lattice=[(0, 0), (1, -1)])
@example(tol=0.0, per_cell=1, layout="grid", lattice=[(2, 3), (2, 3)])
def test_cell_candidates_match_brute_force(tol, per_cell, layout, lattice):
    # Lattice images with duplicates; with per_cell 1 the lattice steps one
    # cell width, so the images lie on cell edges. A pair is a candidate
    # exactly when its cells differ by at most one in each coordinate.
    re, im = np.array(lattice, dtype=float).reshape(-1, 2).T
    if layout == "column":
        re[:] = 0.0
    elif layout == "row":
        im[:] = 0.0
    step = (1.0 + 2.0**-16) * tol / per_cell if tol else 1.0
    values = step * (re + 1j * im)
    n = values.size
    cx, cy = cells_of(values, tol) if n else ((), ())
    near = {
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if abs(cx[a] - cx[b]) <= 1 and abs(cy[a] - cy[b]) <= 1
    }
    i, j = cell_search(values, tol)
    seen = list(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
    assert len(seen) == len(set(seen)) and set(seen) == near
    for block in (1, 7):
        bi, bj = cell_search(values, tol, block)
        assert np.array_equal(bi, i) and np.array_equal(bj, j)


def test_collision_search_runs_one_full_searchsorted_pass(monkeypatch):
    # Only the start of column cx+1's key interval is searched for every
    # sample; the other range bounds are searched for nonempty ranges alone.
    plan = uv.SamplingPlan(radial_count=96, angular_count=192)
    n = plan.radial_count * plan.angular_count
    searchsorted = np.searchsorted
    full = []

    def counting(a, v, *args, **kwargs):
        full.append(np.size(v) == n)
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    assert injectivity_scan(uv.joukowski(0.5), plan).grid_size == n
    assert sum(full) == 1
