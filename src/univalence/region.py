"""Supremum estimation of a criterion LHS over the exterior disk.

The scan is deterministic: a fixed geometric-radius grid, argmax-local
refinement, and a Richardson tail extrapolation from the two outermost
circles guard the "for all zeta" quantifier at desk scale. A scan makes
1 + refine_depth criterion calls, each in fixed blocks of points, in order;
each scan step's singular points are diagnosed on that step's points alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriterionParams, _diagnose, lhs_values
from .errors import CriticalPoint, CriticalPointInRegion
from .sampling import SamplingPlan, circle_points, sample_exterior

__all__ = [
    "SamplingPlan",
    "SupReport",
    "Verdict",
    "sample_exterior",
    "estimate_sup",
    "issue_verdict",
]

CONVERGENCE_REL = 1e-4


@dataclass(frozen=True)
class SupReport:
    """Outcome of one supremum scan. ``sup_estimate`` is the max over every
    evaluated sample and the tail extrapolation; ``argmax`` is the evaluated
    point where the max occurred (a point on the 2*r_max circle when the tail
    wins). ``samples_evaluated`` counts the samples of every stage, so the
    r_max circle counts also where it is the base grid's outer row."""

    sup_estimate: float
    argmax: complex
    samples_evaluated: int
    refinement_converged: bool
    tail_estimate: float


@dataclass(frozen=True)
class Verdict:
    outcome: str  # 'pass' | 'fail' | 'inconclusive'
    margin: float
    tol: float


def estimate_sup(
    params: CriterionParams, plan: SamplingPlan, grid_sink: "list | None" = None
) -> SupReport:
    """Scan the plan grid, refine around the argmax, extrapolate the tail.

    A scan makes 1 + refine_depth criterion calls: the r_max circle is the
    base grid's outer row, not evaluated again (a one-row grid, at r_min,
    gives it a call of its own), and the 2*r_max circle is evaluated in the
    first refinement round's call (the base grid's at depth 0). Each stage is
    diagnosed on its own points, in the order base grid, refinement rounds,
    r_max circle, 2*r_max circle; ``grid_sink``, when given, receives each
    stage's (points, values) arrays in that order once it passes.
    """
    evaluated = 0
    with np.errstate(invalid="ignore"):  # if 2*r_max overflows, r_max raises first
        far_points = circle_points(2.0 * plan.r_max, plan.angular_count)
    far_values = None

    def evaluate(points, with_far=False):
        """LHS at ``points`` (and, in the same call, at the 2*r_max circle)."""
        nonlocal far_values
        if not with_far:
            return lhs_values(params, points)
        values = lhs_values(params, np.concatenate([points, far_points]))
        far_values = values[points.shape[0] :]
        return values[: points.shape[0]]

    def accept(points, values):
        """Diagnose, sink and count one stage; return its max and argmax."""
        nonlocal evaluated
        try:
            _diagnose(params, points, values)
        except CriticalPoint as exc:
            raise CriticalPointInRegion(str(exc), getattr(exc, "point", None)) from exc
        if grid_sink is not None:
            grid_sink.append((points, values))
        evaluated += points.shape[0]
        i = int(np.argmax(values))
        return float(values[i]), complex(points[i])

    base = sample_exterior(plan)
    base_values = evaluate(base, with_far=plan.refine_depth == 0)
    sup, argmax = accept(base, base_values)

    if plan.radial_count > 1:
        dlog = np.log(plan.r_max / plan.r_min) / (plan.radial_count - 1)
    else:
        dlog = 0.0
    dang = 2.0 * np.pi / plan.angular_count
    log_lo, log_hi = np.log(plan.r_min), np.log(plan.r_max)

    improvement = 0.0
    side = 2 * plan.refine_factor + 1
    for k in range(plan.refine_depth):
        prev = sup
        c_log = np.log(abs(argmax))
        c_ang = np.angle(argmax)
        logs = np.clip(np.linspace(c_log - dlog, c_log + dlog, side), log_lo, log_hi)
        angs = np.linspace(c_ang - dang, c_ang + dang, side)
        local = (np.exp(logs)[:, None] * np.exp(1j * angs)[None, :]).ravel()
        local_sup, local_argmax = accept(local, evaluate(local, with_far=k == 0))
        if local_sup > sup:
            sup, argmax = local_sup, local_argmax
        improvement = sup - prev
        dlog /= plan.refine_factor
        dang /= plan.refine_factor

    # With no refinement round there is no evidence that the sup has settled.
    converged = plan.refine_depth > 0 and improvement <= CONVERGENCE_REL * max(
        sup, 1e-300
    )

    # Tail guard: the sup may be approached only at infinity. Richardson
    # extrapolation in 1/r^2 from the outermost circle and its double.
    if plan.radial_count > 1:
        near_points = base[-plan.angular_count :]
        near_values = base_values[-plan.angular_count :]
    else:
        near_points = circle_points(plan.r_max, plan.angular_count)
        near_values = evaluate(near_points)
    near, _ = accept(near_points, near_values)
    far, tail_argmax = accept(far_points, far_values)
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


def issue_verdict(report: SupReport, tol: float = 1e-9) -> Verdict:
    """Sample-based verdict: 'pass' asserts only that the criterion held on
    the evaluated samples (univalence then follows by sufficiency); 'fail'
    carries no information about univalence."""
    sup = report.sup_estimate
    if sup > 1.0 + tol:
        outcome = "fail"
    elif report.refinement_converged:
        outcome = "pass"
    else:
        outcome = "inconclusive"
    return Verdict(outcome=outcome, margin=1.0 - sup, tol=tol)
