import numpy as np
import pytest

import univalence as uv
from univalence.criteria import CriterionParams, _abs2, _assemble_lhs, pieces
from univalence.errors import InvalidPlan
from univalence.region import SupReport, estimate_sup, issue_verdict, sample_exterior


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
        ref = _assemble_lhs(p.criterion, points, pc, p.alpha, p.squared_variant, _abs2(points))
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
