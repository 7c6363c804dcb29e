"""Catalog of meromorphic functions on the exterior disk and admissible
h-functions, plus the branch-tracked power v = (g'/f')^alpha.

Functions are specified structurally (identity, Joukowski-type, Laurent
polynomial, Moebius composition) so every derivative through order four has a
closed form. A small spec mini-language maps CLI strings onto the same
constructors: ``identity``, ``joukowski:<re>[,<im>]``,
``laurent:<b>;<b0>;<b1>,...``, ``moebius:<a>,<b>,<c>,<d>:<inner>``,
``hconst``, ``hinvsq:<c>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    BranchTrackingFailure,
    CriticalPoint,
    EvaluationFailure,
    InvalidSpec,
    NonFiniteJet,
    OutsideDomain,
    PoleAtPoint,
)
from .jet import ComplexJet, stack_div, stack_exp, stack_log
from .sampling import SamplingPlan, circle_points

RAY_START_RADIUS = 1e6
_RAY_STEPS = 48
_RAY_STEPS_MAX = 3072


# ---------------------------------------------------------------------------
# Meromorphic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeromorphicFn:
    """Structural spec of a function evaluable as a jet on the exterior disk.

    kind is one of 'identity', 'joukowski', 'laurent', 'moebius'. Laurent data
    (b, b0, tail) is meaningful for the first three kinds; (inner, abcd) only
    for 'moebius'.
    """

    kind: str
    b: complex = 1.0 + 0j
    b0: complex = 0j
    tail: tuple = ()
    inner: "MeromorphicFn | None" = None
    abcd: "tuple | None" = None

    @property
    def declared_class(self) -> str:
        if self.kind == "moebius":
            a, bb, c, d = self.abcd
            if a == 1 and d == 1 and bb == 0 and c == 0:
                return self.inner.declared_class
            return "unknown"
        if self.b == 1 and self.b0 == 0:
            return "Sigma0"
        return "Sigma"

    def lower_coeffs(self):
        """(b, b0, tail-array) when the function is Laurent-representable,
        else None. Used to route evaluation through the Laurent kernel."""
        if self.kind == "moebius":
            return None
        return (
            complex(self.b),
            complex(self.b0),
            np.asarray(self.tail, dtype=np.complex128),
        )

    def derivs(self, points: np.ndarray, order: int = 4) -> np.ndarray:
        """Stack of value and derivatives through ``order`` at each point.

        Pole hits surface as non-finite entries; scalar wrappers raise."""
        points = np.asarray(points, dtype=np.complex128)
        low = self.lower_coeffs()
        if low is not None:
            b, b0, tail = low
            return _kernels.laurent_derivs(points, b, b0, tail, order)
        inner_stack = self.inner.derivs(points, order)
        a, bb, c, d = self.abcd
        num = a * inner_stack
        num[0] = num[0] + bb
        den = c * inner_stack
        den[0] = den[0] + d
        with np.errstate(divide="ignore", invalid="ignore"):
            return stack_div(num, den)

    def values(self, points: np.ndarray) -> np.ndarray:
        return self.derivs(points, order=0)[0]

    def jet(self, zeta: complex) -> ComplexJet:
        stack = self.derivs(np.array([zeta], dtype=np.complex128), order=3)[:, 0]
        if not np.all(np.isfinite(stack)):
            if self.kind == "moebius":
                raise PoleAtPoint(f"{self.describe()} has a pole at {zeta}")
            raise NonFiniteJet(f"{self.describe()} overflowed at {zeta}")
        return ComplexJet.from_stack(stack)

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "joukowski":
            return f"joukowski({self.tail[0]})"
        if self.kind == "laurent":
            return f"laurent(b={self.b}, b0={self.b0}, tail={list(self.tail)})"
        a, bb, c, d = self.abcd
        return f"moebius({a},{bb},{c},{d})∘{self.inner.describe()}"


def identity() -> MeromorphicFn:
    return MeromorphicFn(kind="identity")


def joukowski(c: complex) -> MeromorphicFn:
    return MeromorphicFn(kind="joukowski", tail=(complex(c),))


def laurent(b: complex, b0: complex, tail=()) -> MeromorphicFn:
    b = complex(b)
    if b == 0:
        raise InvalidSpec("laurent spec needs a nonzero leading coefficient b")
    return MeromorphicFn(
        kind="laurent", b=b, b0=complex(b0), tail=tuple(complex(t) for t in tail)
    )


def moebius_of(inner: MeromorphicFn, a, b, c, d) -> MeromorphicFn:
    a, b, c, d = (complex(v) for v in (a, b, c, d))
    if a * d - b * c == 0:
        raise InvalidSpec("degenerate Moebius map: ad - bc = 0")
    return MeromorphicFn(kind="moebius", inner=inner, abcd=(a, b, c, d))


def make_sigma_function(spec) -> MeromorphicFn:
    """Build a catalog function from a spec string or pass one through."""
    if isinstance(spec, MeromorphicFn):
        return spec
    return parse_function_spec(spec)


# ---------------------------------------------------------------------------
# h-functions: h(zeta) = 1 + h2/zeta^2 + h4/zeta^4 + ... (no zeta^-1 term)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HFunction:
    """Auxiliary analytic function with h(inf) = 1 and even inverse powers."""

    kind: str  # 'const' | 'invsq' | 'laurent_even'
    coeffs: tuple = field(default_factory=tuple)

    def lower_coeffs(self):
        tail = []
        for h2k in self.coeffs:
            tail.extend([0j, complex(h2k)])
        return 0j, 1.0 + 0j, np.asarray(tail, dtype=np.complex128)

    def derivs(self, points: np.ndarray, order: int = 4) -> np.ndarray:
        points = np.asarray(points, dtype=np.complex128)
        b, b0, tail = self.lower_coeffs()
        return _kernels.laurent_derivs(points, b, b0, tail, order)

    def values(self, points: np.ndarray) -> np.ndarray:
        return self.derivs(points, order=0)[0]

    def jet(self, zeta: complex) -> ComplexJet:
        stack = self.derivs(np.array([zeta], dtype=np.complex128), order=3)[:, 0]
        return ComplexJet.from_stack(stack)

    def describe(self) -> str:
        if self.kind == "const":
            return "hconst"
        if self.kind == "invsq":
            return f"hinvsq({self.coeffs[0]})"
        return f"laurent_even{self.coeffs}"


def constant_one() -> HFunction:
    return HFunction(kind="const")


def inverse_square(c: complex) -> HFunction:
    c = complex(c)
    if c == 0:
        return constant_one()
    return HFunction(kind="invsq", coeffs=(c,))


def laurent_even(*coeffs) -> HFunction:
    return HFunction(kind="laurent_even", coeffs=tuple(complex(c) for c in coeffs))


def make_h_function(spec) -> HFunction:
    if isinstance(spec, HFunction):
        return spec
    return parse_h_spec(spec)


# ---------------------------------------------------------------------------
# Spec mini-language
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse 're' or 're,im' (CLI flag syntax)."""
    parts = text.strip().split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise InvalidSpec(f"cannot parse complex number from {text!r}")


def _parse_coeff(text: str) -> complex:
    # Laurent coefficients use python literals ('1.5', '1+0.5j') since commas
    # separate list entries in the mini-language.
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse coefficient {text!r}") from exc


def parse_function_spec(spec: str) -> MeromorphicFn:
    spec = spec.strip()
    if spec == "identity":
        return identity()
    if spec.startswith("joukowski:"):
        return joukowski(parse_complex(spec[len("joukowski:") :]))
    if spec.startswith("laurent:"):
        body = spec[len("laurent:") :]
        parts = body.split(";")
        if len(parts) not in (2, 3):
            raise InvalidSpec(f"laurent spec needs b;b0[;b1,b2,...], got {spec!r}")
        b = _parse_coeff(parts[0])
        b0 = _parse_coeff(parts[1])
        tail = ()
        if len(parts) == 3 and parts[2].strip():
            tail = tuple(_parse_coeff(t) for t in parts[2].split(","))
        return laurent(b, b0, tail)
    if spec.startswith("moebius:"):
        body = spec[len("moebius:") :]
        head, sep, inner_text = body.partition(":")
        if not sep:
            raise InvalidSpec(f"moebius spec needs :<inner>, got {spec!r}")
        coeffs = head.split(",")
        if len(coeffs) != 4:
            raise InvalidSpec(f"moebius spec needs a,b,c,d, got {head!r}")
        a, b, c, d = (_parse_coeff(t) for t in coeffs)
        return moebius_of(parse_function_spec(inner_text), a, b, c, d)
    raise InvalidSpec(f"unknown function spec {spec!r}")


def parse_h_spec(spec: str) -> HFunction:
    spec = spec.strip()
    if spec == "hconst":
        return constant_one()
    if spec.startswith("hinvsq:"):
        return inverse_square(parse_complex(spec[len("hinvsq:") :]))
    raise InvalidSpec(f"unknown h spec {spec!r}")


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaClassReport:
    b_estimate: complex
    b0_estimate: complex
    residual_b: float
    residual_b0: float
    classification: str  # 'Sigma0' | 'Sigma' | 'neither'


def validate_sigma_normalization(
    f: MeromorphicFn, plan: SamplingPlan, class_tol: float = 1e-6
) -> SigmaClassReport:
    """Estimate the expansion-at-infinity coefficients b and b0 by angular
    averaging on the plan's outermost circle, and classify the function.

    Residuals are the disagreement between estimates at radius r_max and
    2*r_max; a genuine Sigma expansion makes them vanish to roundoff.
    """
    n = max(int(plan.angular_count), 8)

    def estimates(radius):
        zs = circle_points(radius, n)
        vals = f.values(zs)
        if not np.all(np.isfinite(vals)):
            raise EvaluationFailure(
                f"{f.describe()} not evaluable on circle of radius {radius}"
            )
        b_est = np.mean(vals / zs)
        b0_est = np.mean(vals - b_est * zs)
        return b_est, b0_est

    b_lo, b0_lo = estimates(plan.r_max)
    b_hi, b0_hi = estimates(2.0 * plan.r_max)
    residual_b = float(abs(b_hi - b_lo))
    residual_b0 = float(abs(b0_hi - b0_lo))

    if residual_b > class_tol or residual_b0 > class_tol or abs(b_hi) <= class_tol:
        cls = "neither"
    elif abs(b_hi - 1.0) <= class_tol and abs(b0_hi) <= class_tol:
        cls = "Sigma0"
    else:
        cls = "Sigma"
    return SigmaClassReport(
        b_estimate=complex(b_hi),
        b0_estimate=complex(b0_hi),
        residual_b=residual_b,
        residual_b0=residual_b0,
        classification=cls,
    )


@dataclass(frozen=True)
class HAdmissibilityReport:
    min_re_h: float
    argmin: complex
    max_ratio: float  # max |(1-h)/h| over the samples
    equivalence_ok: bool
    tol: float
    passed: bool


def validate_h_admissible(
    h: HFunction, plan: SamplingPlan, tol: float = 1e-9
) -> HAdmissibilityReport:
    """Check Re h >= 1/2 on the sampled grid and cross-check it against the
    equivalent disk condition |(1-h)/h| <= 1."""
    from .sampling import sample_exterior

    points = sample_exterior(plan)
    vals = h.values(points)
    if not np.all(np.isfinite(vals)):
        raise EvaluationFailure(f"{h.describe()} not evaluable on the plan grid")
    re_h = vals.real
    idx = int(np.argmin(re_h))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs((1.0 - vals) / vals)
    half_plane = re_h >= 0.5
    in_disk = ratio <= 1.0
    disagree = half_plane != in_disk
    equivalence_ok = bool(np.all(np.abs(re_h[disagree] - 0.5) <= tol))
    min_re = float(re_h[idx])
    return HAdmissibilityReport(
        min_re_h=min_re,
        argmin=complex(points[idx]),
        max_ratio=float(np.max(ratio)),
        equivalence_ok=equivalence_ok,
        tol=tol,
        passed=bool(min_re >= 0.5 - tol),
    )


# ---------------------------------------------------------------------------
# Branch-tracked power v = (g'/f')^alpha, normalized to 1 at infinity
# ---------------------------------------------------------------------------


def _tracked_log_values(f, g, points) -> np.ndarray:
    """Continued log(g'/f') along rays from the start radius through each
    point, with the branch pinned near 0 at infinity."""
    moduli = np.abs(points)
    factor = RAY_START_RADIUS / moduli
    steps = _RAY_STEPS
    while True:
        tau = np.linspace(0.0, 1.0, steps + 1)
        path = points[None, :] * np.power(factor[None, :], 1.0 - tau[:, None])
        flat = path.ravel()
        fd1 = f.derivs(flat, order=1)[1].reshape(path.shape)
        gd1 = g.derivs(flat, order=1)[1].reshape(path.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = gd1 / fd1
        finite = np.isfinite(ratio).all()
        if not finite or np.any(ratio == 0):
            raise BranchTrackingFailure(
                "g'/f' crossed zero or a pole along a continuation ray"
            )
        increments = np.log(ratio[1:] / ratio[:-1])
        if np.max(np.abs(increments.imag)) <= 0.5 * np.pi:
            return np.log(ratio[0]) + increments.sum(axis=0)
        if steps >= _RAY_STEPS_MAX:
            raise BranchTrackingFailure(
                f"branch winding too fast even with {steps} ray steps"
            )
        steps *= 2


def power_branch_stack(f, g, alpha: complex, points: np.ndarray) -> np.ndarray:
    """Order-3 jet stack of v at each point (value, v', v'', v''')."""
    points = np.asarray(points, dtype=np.complex128)
    alpha = complex(alpha)
    if alpha == 0 or f == g:
        out = np.zeros((4, points.shape[0]), dtype=np.complex128)
        out[0] = 1.0
        return out
    fd = f.derivs(points, order=4)
    gd = g.derivs(points, order=4)
    if np.any(fd[1] == 0) or np.any(gd[1] == 0):
        bad = points[(fd[1] == 0) | (gd[1] == 0)][0]
        raise CriticalPoint(f"f' or g' vanishes at {bad}")
    ratio_stack = stack_div(gd[1:], fd[1:])
    log_values = _tracked_log_values(f, g, points)
    log_stack = stack_log(ratio_stack, value=log_values)
    return stack_exp(alpha * log_stack)


def power_branch(f, g, alpha: complex, zeta: complex) -> ComplexJet:
    """Jet of v = (g'/f')^alpha at zeta, branch normalized so v(inf) = 1."""
    zeta = complex(zeta)
    if abs(zeta) <= 1.0:
        raise OutsideDomain(f"|zeta| = {abs(zeta)} <= 1")
    stack = power_branch_stack(f, g, alpha, np.array([zeta]))[:, 0]
    return ComplexJet.from_stack(stack)
