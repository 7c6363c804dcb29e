"""Supremum estimation of a criterion LHS over the exterior disk.

The scan is deterministic: a fixed geometric-radius grid, argmax-local
refinement, and a Richardson tail extrapolation from the two outermost
circles guard the "for all zeta" quantifier at desk scale. The criterion is
evaluated in fixed blocks of points, in order; singular points are diagnosed
once over the whole set of each scan step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import CriterionParams, evaluate_lhs
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
    wins)."""

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

    ``grid_sink``, when given, receives (points, values) arrays in evaluation
    order (base grid, refinement rounds, then the two tail circles).
    """
    evaluated = 0

    def scan(points):
        """Evaluate, sink and count ``points``; return their max and argmax."""
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

    # With no refinement round there is no evidence that the sup has settled.
    converged = plan.refine_depth > 0 and improvement <= CONVERGENCE_REL * max(
        sup, 1e-300
    )

    # Tail guard: the sup may be approached only at infinity. Richardson
    # extrapolation in 1/r^2 from the outermost circle and its double.
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
