import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import univalence as uv
from univalence.errors import (
    EvaluationFailure,
    InvalidSpec,
    OpenContour,
    PointTooCloseToContour,
    StencilLeavesDomain,
)
from univalence.oracle import (
    _cell_candidates,
    collision_pairs,
    fd_derivatives,
    injectivity_scan,
    winding_number,
)


def unit_circle(nodes=128, turns=1):
    theta = np.linspace(0.0, 2.0 * np.pi * turns, nodes * turns + 1)
    return np.exp(1j * theta)


def collision_plan():
    # Geometric radii hit 1.05 and 8/7 exactly, the analytic collision pair
    # of z + 1.2/z (z1 * z2 = 1.2).
    r_min = 1.05
    r_max = 1.05 * (8 / 7.35) ** 2
    return uv.SamplingPlan(r_min=r_min, r_max=r_max, radial_count=3, angular_count=64)


class TestWindingNumber:
    def test_inside_outside(self):
        circ = unit_circle()
        assert winding_number(circ, 0.0) == 1
        assert winding_number(circ, 2.0) == 0

    def test_double_traversal(self):
        assert winding_number(unit_circle(turns=2), 0.0) == 2

    def test_reversal_negates(self, rng):
        contour = unit_circle(64) * (1.0 + 0.3 * np.cos(np.linspace(0, 6 * np.pi, 65)))
        for p in (0.0, 0.4 + 0.2j):
            assert winding_number(contour[::-1], p) == -winding_number(contour, p)

    def test_open_contour_rejected(self):
        theta = np.linspace(0.0, 1.5 * np.pi, 40)
        with pytest.raises(OpenContour):
            winding_number(np.exp(1j * theta), 0.0)

    def test_point_on_contour_rejected(self):
        with pytest.raises(PointTooCloseToContour):
            winding_number(unit_circle(), 1.0)


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
            slow = injectivity_scan(
                f, plan, collision_tolerance=1e-3, separation_floor=0.05, pairwise=True
            )
            assert fast.collisions == slow.collisions

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
        assert fast == injectivity_scan(f, plan, collision_tolerance=0.0, pairwise=True)
        # rounded images coincide exactly in many pairs
        pts = uv.sample_exterior(plan)
        vals = np.round(f.values(pts), 1)
        fast = collision_pairs(pts, vals, 0.0, 0.05)
        assert fast == collision_pairs(pts, vals, 0.0, 0.05, pairwise=True)
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
    slow = injectivity_scan(
        f, plan, collision_tolerance=tol, separation_floor=floor, pairwise=True
    )
    assert fast == slow


class TestFdDerivatives:
    def test_identity_stencil(self):
        jet = fd_derivatives(uv.identity(), 2.0, 1e-3)
        assert abs(jet.value - 2.0) <= 1e-12
        assert abs(jet.d1 - 1.0) <= 1e-9
        assert abs(jet.d2) <= 1e-6
        assert abs(jet.d3) <= 1e-4

    def test_joukowski_closed_form(self):
        jet = fd_derivatives(uv.joukowski(0.5), 2.0, 1e-3)
        exact = np.array([2.25, 0.875, 0.125, -0.1875])
        err = np.abs(jet.as_stack() - exact)
        assert err[0] <= 1e-12 and err[1] <= 1e-7 and err[2] <= 1e-7 and err[3] <= 1e-5

    def test_second_order_convergence(self):
        # halving-by-ten the step divides the d3 error by ~100
        exact = uv.derivatives_of(uv.joukowski(0.5), 2.0).d3
        e1 = abs(fd_derivatives(uv.joukowski(0.5), 2.0, 1e-1).d3 - exact)
        e2 = abs(fd_derivatives(uv.joukowski(0.5), 2.0, 1e-2).d3 - exact)
        assert 50.0 <= e1 / e2 <= 200.0

    def test_stencil_domain_guard(self):
        with pytest.raises(StencilLeavesDomain):
            fd_derivatives(uv.identity(), 1.001, 1e-2)
