import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import univalence as uv
from univalence.criteria import (
    CRITERIA,
    CriterionParams,
    _abs2,
    _diagnose,
    evaluate_lhs,
    lhs_values,
    pieces,
    theorem1,
)
from univalence.errors import (
    CriticalPoint,
    CriticalPointInRegion,
    HVanishes,
    InvalidPlan,
    UnivalenceError,
)
from univalence.region import (
    CONVERGENCE_REL,
    SupReport,
    estimate_sup,
    issue_verdict,
    sample_exterior,
)
from univalence.sampling import circle_points


def becker(c):
    return CriterionParams(f=uv.joukowski(c), criterion="becker")


class TestSampleExterior:
    def test_small_grid_construction(self):
        plan = uv.SamplingPlan(r_min=1.1, r_max=2.0, radial_count=2, angular_count=4)
        pts = sample_exterior(plan)
        assert pts.shape == (8,)
        expected = [
            1.1,
            1.1j,
            -1.1,
            -1.1j,
            2.0,
            2.0j,
            -2.0,
            -2.0j,
        ]
        assert np.allclose(pts, expected, atol=1e-12)

    def test_single_radius(self):
        plan = uv.SamplingPlan(r_min=1.5, r_max=2.0, radial_count=1, angular_count=8)
        pts = sample_exterior(plan)
        assert np.allclose(np.abs(pts), 1.5)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_outer_row_is_the_r_max_circle(self, data):
        # the scan reads its r_max tail circle from the base grid's last row
        r_min = data.draw(st.floats(1.0 + 1e-12, 1e3))
        plan = uv.SamplingPlan(
            r_min=r_min,
            r_max=data.draw(st.floats(r_min, 1e300, exclude_min=True)),
            radial_count=data.draw(st.integers(2, 512)),
            angular_count=data.draw(st.integers(1, 2048)),
        )
        rows = sample_exterior(plan).reshape(plan.radial_count, plan.angular_count)
        circle = circle_points(plan.r_max, plan.angular_count)
        assert rows[-1].tobytes() == circle.tobytes()
        # a one-row grid lies at r_min, so it holds no r_max circle
        single = dataclasses.replace(plan, radial_count=1)
        assert single.radii().tolist() == [plan.r_min]
        assert sample_exterior(single).tobytes() == (
            circle_points(plan.r_min, plan.angular_count).tobytes()
        )

    def test_default_plan_size(self):
        assert sample_exterior(uv.SamplingPlan()).shape == (64 * 128,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_min": 0.9},
            {"r_min": 2.0, "r_max": 1.5},
            {"radial_count": 0},
            {"angular_count": 0},
            {"refine_depth": -1},
            {"refine_factor": 0},
        ],
    )
    def test_invalid_plans(self, kwargs):
        with pytest.raises(InvalidPlan):
            uv.SamplingPlan(**kwargs)


class TestEstimateSup:
    def test_identity_sup_is_zero(self):
        rep = estimate_sup(becker(0.0), uv.SamplingPlan())
        assert rep.sup_estimate == 0.0
        assert rep.refinement_converged
        assert issue_verdict(rep).outcome == "pass"

    def test_becker_supremum_law_pass(self):
        rep = estimate_sup(becker(0.4), uv.SamplingPlan())
        assert abs(rep.sup_estimate - 0.8) <= 0.02 * 0.8
        assert abs(rep.tail_estimate - 0.8) <= 1e-3
        # the sup lives at infinity: argmax lands on the doubled tail circle
        assert abs(abs(rep.argmax) - 100.0) < 1e-9
        assert issue_verdict(rep).outcome == "pass"

    def test_becker_supremum_law_fail(self):
        rep = estimate_sup(becker(0.6), uv.SamplingPlan())
        assert rep.sup_estimate >= 1.0588
        assert issue_verdict(rep).outcome == "fail"

    def test_deterministic_reports(self):
        p = CriterionParams(
            f=uv.joukowski(0.45), g=uv.identity(), h=uv.inverse_square(0.2), alpha=0.3
        )
        plan = uv.SamplingPlan(radial_count=16, angular_count=32)
        assert estimate_sup(p, plan) == estimate_sup(p, plan)

    def test_grid_sink_spans_blocks(self):
        # 96 x 256 = 24576 base points: three evaluation blocks, sunk as one
        # array per scan step and bitwise the values of one unblocked pass
        p = CriterionParams(
            f=uv.joukowski(0.45),
            g=uv.laurent(1, 0, [0.2, 0.1j]),
            h=uv.inverse_square(0.2),
            alpha=0.3 + 0.1j,
        )
        plan = uv.SamplingPlan(radial_count=96, angular_count=256)
        sink = []
        report = estimate_sup(p, plan, grid_sink=sink)
        assert report == estimate_sup(p, plan)
        points, values = sink[0]
        assert points.shape == values.shape == (96 * 256,)
        assert report.samples_evaluated == sum(v.shape[0] for _, v in sink)
        pc = pieces(p.f, p.g, p.h, points)
        ref = np.abs(theorem1(points, pc, p.alpha, p.squared_variant, _abs2(points)))
        assert values.tobytes() == ref.tobytes()

    def test_monotone_refinement_and_sample_count(self):
        p = becker(0.5)
        plan = uv.SamplingPlan(radial_count=16, angular_count=32, refine_depth=3)
        sink = []
        rep = estimate_sup(p, plan, grid_sink=sink)
        assert rep.samples_evaluated == sum(len(v) for _, v in sink)
        running = -np.inf
        sups = []
        for _, values in sink[:-2]:  # base grid + refinement rounds
            running = max(running, float(np.max(values)))
            sups.append(running)
        assert all(b >= a for a, b in zip(sups, sups[1:]))

    def test_no_refinement_is_not_convergence(self):
        # with refine_depth 0 nothing shows that the sup has settled
        plan = uv.SamplingPlan(radial_count=2, angular_count=3, refine_depth=0)
        rep = estimate_sup(becker(0.4), plan)
        assert rep.sup_estimate < 1.0 and not rep.refinement_converged
        assert issue_verdict(rep).outcome == "inconclusive"
        deeper = estimate_sup(becker(0.4), uv.SamplingPlan(radial_count=2, angular_count=3))
        assert deeper.refinement_converged

    def test_sup_covers_tail_estimate(self):
        rep = estimate_sup(becker(0.3), uv.SamplingPlan())
        assert rep.sup_estimate >= rep.tail_estimate
        assert rep.sup_estimate == max(rep.sup_estimate, rep.tail_estimate)

    def test_grid_sink_segments(self):
        plan = uv.SamplingPlan(radial_count=8, angular_count=16, refine_depth=2)
        sink = []
        estimate_sup(becker(0.4), plan, grid_sink=sink)
        # base + refine_depth rounds + two tail circles
        assert len(sink) == 1 + 2 + 2
        assert len(sink[0][0]) == 8 * 16
        assert len(sink[-1][0]) == 16


def reference_estimate_sup(params, plan, grid_sink=None):
    """The scan as it was with one ``evaluate_lhs`` call per stage, the two
    tail circles included: five calls at the default plan."""
    evaluated = 0

    def scan(points):
        nonlocal evaluated
        try:
            values = evaluate_lhs(params, points)
        except CriticalPoint as exc:
            raise CriticalPointInRegion(str(exc), getattr(exc, "point", None)) from exc
        if grid_sink is not None:
            grid_sink.append((points, values))
        evaluated += points.shape[0]
        i = int(np.argmax(values))
        return float(values[i]), complex(points[i])

    sup, argmax = scan(sample_exterior(plan))

    if plan.radial_count > 1:
        dlog = np.log(plan.r_max / plan.r_min) / (plan.radial_count - 1)
    else:
        dlog = 0.0
    dang = 2.0 * np.pi / plan.angular_count
    log_lo, log_hi = np.log(plan.r_min), np.log(plan.r_max)

    improvement = 0.0
    side = 2 * plan.refine_factor + 1
    for _ in range(plan.refine_depth):
        prev = sup
        c_log = np.log(abs(argmax))
        c_ang = np.angle(argmax)
        logs = np.clip(np.linspace(c_log - dlog, c_log + dlog, side), log_lo, log_hi)
        angs = np.linspace(c_ang - dang, c_ang + dang, side)
        local = (np.exp(logs)[:, None] * np.exp(1j * angs)[None, :]).ravel()
        local_sup, local_argmax = scan(local)
        if local_sup > sup:
            sup, argmax = local_sup, local_argmax
        improvement = sup - prev
        dlog /= plan.refine_factor
        dang /= plan.refine_factor

    converged = plan.refine_depth > 0 and improvement <= CONVERGENCE_REL * max(
        sup, 1e-300
    )

    (near, _), (far, tail_argmax) = [
        scan(circle_points(radius, plan.angular_count))
        for radius in (plan.r_max, 2.0 * plan.r_max)
    ]
    tail = max(0.0, (4.0 * far - near) / 3.0)

    if tail > sup:
        sup = tail
        argmax = tail_argmax

    return SupReport(
        sup_estimate=sup,
        argmax=argmax,
        samples_evaluated=evaluated,
        refinement_converged=bool(converged),
        tail_estimate=tail,
    )


def scan_outcome(scan, params, plan):
    """repr of the report or of the raised error (type, message, point), and
    the sunk segments as bytes, in order."""
    sink = []
    try:
        result = scan(params, plan, grid_sink=sink)
    except UnivalenceError as exc:
        result = (type(exc).__name__, str(exc), getattr(exc, "point", None))
    return repr(result), [(pts.tobytes(), vals.tobytes()) for pts, vals in sink]


class TestAgainstFiveCallScan:
    # Laurent f, and Moebius f over a Joukowski inner map with c = 0 and with
    # c != 0 (a true quotient, pole near -9.97, inside the scanned annulus)
    F_CASES = {
        "laurent": uv.laurent(1, 0.1, [0.3 - 0.1j, 0.05j]),
        "moebius_c0": uv.moebius_of(uv.joukowski(0.3), 2, 0.5j, 0, 1),
        "moebius_c": uv.moebius_of(uv.joukowski(0.3), 1, 0, 0.1, 1),
    }

    @pytest.mark.parametrize("f", sorted(F_CASES))
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_reports_and_segments_match(self, criterion, f):
        p = CriterionParams(
            f=self.F_CASES[f],
            g=uv.laurent(1, 0, [0.2, 0.1j]),
            h=uv.inverse_square(0.2 + 0.1j),
            alpha=0.3 + 0.1j,
            criterion=criterion,
        )
        for depth in range(4):
            for radial in (1, 2, 3):
                for angular in (1, 2, 5):
                    plan = uv.SamplingPlan(
                        radial_count=radial, angular_count=angular, refine_depth=depth
                    )
                    got = scan_outcome(estimate_sup, p, plan)
                    assert got == scan_outcome(reference_estimate_sup, p, plan), plan

    @pytest.mark.parametrize(
        "f, h, plan",
        [
            # f = 1/(z - 100): a pole on the 2 r_max circle, after every other stage
            ("moebius:0,1,1,-100:identity", "hconst", {}),
            ("moebius:0,1,1,-100:identity", "hconst", {"refine_depth": 0}),
            ("moebius:0,1,1,-100:identity", "hconst", {"radial_count": 1}),
            # f = 1/(z - 50): a pole on the r_max circle
            ("moebius:0,1,1,-50:identity", "hconst", {"radial_count": 3, "angular_count": 4}),
            ("moebius:0,1,1,-50:identity", "hconst", {"radial_count": 1, "angular_count": 4}),
            # f' = 0 at z = 2 and h = 0 at z = 4: base grid on one, r_max circle on the other
            ("joukowski:4", "hinvsq:-16", {"r_min": 2.0, "r_max": 4.0, "radial_count": 1,
                                           "angular_count": 4}),
            ("joukowski:4", "hinvsq:-16", {"r_min": 3.0, "r_max": 4.0, "radial_count": 1,
                                           "angular_count": 4}),
            # the 2 r_max circle overflows; the r_max circle raises first
            ("joukowski:0.3", "hconst", {"r_max": 9e307, "radial_count": 1,
                                         "angular_count": 4}),
            ("joukowski:0.3", "hconst", {"r_max": 9e307, "radial_count": 2,
                                         "angular_count": 4, "refine_depth": 0}),
        ],
    )
    def test_raising_scans_match(self, f, h, plan):
        p = CriterionParams(f=uv.make_sigma_function(f), h=uv.make_h_function(h))
        plan = uv.SamplingPlan(**plan)
        got = scan_outcome(estimate_sup, p, plan)
        assert got == scan_outcome(reference_estimate_sup, p, plan)
        assert not got[0].startswith("SupReport")


def test_each_stage_is_diagnosed_on_its_own_points():
    # joukowski:4 has f' = 0 exactly at z = 2 and hinvsq:-16 has h = 0
    # exactly at z = 4; evaluated in one call, the stages [4] and [2] raise
    # in stage order, while a diagnosis over their union names f' first
    p = CriterionParams(f=uv.joukowski(4.0), h=uv.inverse_square(-16.0))
    points = np.array([4.0, 2.0], dtype=np.complex128)
    values = lhs_values(p, points)
    with pytest.raises(HVanishes) as info:
        for stage in (slice(0, 1), slice(1, 2)):
            _diagnose(p, points[stage], values[stage])
    assert info.value.point == 4.0
    with pytest.raises(CriticalPoint) as info:
        evaluate_lhs(p, points)
    assert info.value.point == 2.0


def test_critical_point_in_region_carries_location():
    # z + 4/z has f'(2) = 0 and the single-radius grid hits 2 exactly
    from univalence.errors import CriticalPointInRegion

    p = CriterionParams(f=uv.joukowski(4.0), criterion="becker")
    plan = uv.SamplingPlan(r_min=2.0, r_max=4.0, radial_count=1, angular_count=4)
    with pytest.raises(CriticalPointInRegion) as info:
        estimate_sup(p, plan)
    assert info.value.point == 2.0


class TestVerdict:
    def test_pass_rule(self):
        rep = SupReport(0.8, 2.0 + 0j, 100, True, 0.8)
        v = issue_verdict(rep, 1e-9)
        assert v.outcome == "pass" and abs(v.margin - 0.2) < 1e-15

    def test_fail_rule(self):
        rep = SupReport(1.0588, 2.0 + 0j, 100, True, 1.0)
        assert issue_verdict(rep, 1e-9).outcome == "fail"

    def test_inconclusive_rule(self):
        rep = SupReport(0.97, 2.0 + 0j, 100, False, 0.9)
        assert issue_verdict(rep, 1e-9).outcome == "inconclusive"

    def test_tolerance_window(self):
        rep = SupReport(1.0 + 5e-10, 2.0 + 0j, 100, True, 1.0)
        assert issue_verdict(rep, 1e-9).outcome == "pass"
        assert issue_verdict(rep, 1e-10).outcome == "fail"
