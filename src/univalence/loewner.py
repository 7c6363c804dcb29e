"""Numeric construction and audit of the Loewner chain certifying the
univalence criterion.

The chain value comes from the closed-form quotient of u = f*v and
v = (g'/f')^alpha; the driving function w(z,t) is evaluated from its reduced
closed form (whose modulus on |z| = 1 equals the criterion LHS at
zeta = e^t/z), and p = (1+w)/(1-w) realizes the positive-real-part condition.
The audit checks |w| < 1, Re p > 0, the first-coefficient law a1(t) = e^t,
subordination between consecutive chain times, and boundedness proxies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import HFunction, MeromorphicFn, constant_one, power_branch_stack
from .criteria import pieces
from .errors import (
    ContourThroughSingularity,
    CriticalPoint,
    DenominatorVanishes,
    HVanishes,
    OutsideDomain,
    WEqualsOne,
)
from .sampling import circle_points

DEFAULT_T_SAMPLES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_Z_CIRCLES = (0.5, 0.9, 1.0)
DEFAULT_Z_ANGLES = 64
A1_NODE_COUNT = 256
A1_DOUBLING_TOL = 1e-9
A1_RESIDUAL_TOL = 1e-6
DT_PROXY_STEP = 1e-4


@dataclass(frozen=True)
class ChainSpec:
    """Data defining one chain: the function pair, the auxiliary h, the power
    parameter, and which variant of the final factor w uses.

    The quotient construction presumes the normalized expansion f = z + a1/z
    + ... (leading coefficient 1, no constant term); a nonzero constant term
    drags a chain pole into the disk for large t, which the audit flags via
    the first-coefficient law."""

    f: MeromorphicFn
    g: MeromorphicFn
    h: HFunction = field(default_factory=constant_one)
    alpha: complex = 0.5 + 0j
    squared_variant: bool = True

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))


def _check_domain(z: np.ndarray, t: float):
    if t < 0:
        raise ValueError(f"chain time must be nonnegative, got {t}")
    mods = np.abs(z)
    if np.any(mods == 0) or np.any(mods > 1.0 + 1e-12):
        bad = z[(mods == 0) | (mods > 1.0 + 1e-12)][0]
        raise OutsideDomain(f"chain domain is 0 < |z| <= 1, got z = {bad}")


def chain_values(spec: ChainSpec, z, t: float) -> np.ndarray:
    """Chain value at each z for fixed t (vector core of chain_eval)."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    _check_domain(z, t)
    et = np.exp(t)
    emt = np.exp(-t)
    w = et / z
    vstack = power_branch_stack(spec.f, spec.g, spec.alpha, w)
    fstack = spec.f.derivs(w, order=1)
    hvals = spec.h.values(w)
    u0 = fstack[0] * vstack[0]
    u1 = fstack[1] * vstack[0] + fstack[0] * vstack[1]
    coef = (emt - et) / z
    num = u0 + coef * hvals * u1
    den = vstack[0] + coef * hvals * vstack[1]
    bad = (num == 0) | ~np.isfinite(num)
    if np.any(bad):
        raise DenominatorVanishes(f"chain quotient singular at z = {z[bad][0]}, t = {t}")
    return den / num


def chain_eval(spec: ChainSpec, z: complex, t: float) -> complex:
    """Value of the chain at one (z, t)."""
    return complex(chain_values(spec, np.array([z]), t)[0])


def chain_w_values(spec: ChainSpec, z, t: float) -> np.ndarray:
    """Driving function w(z,t) from its closed form, at each z for fixed t;
    built from the criterion pieces at e^t/z."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    _check_domain(z, t)
    et = np.exp(t)
    e2t = et * et
    em2t = np.exp(-2.0 * t)
    w = et / z
    pc = pieces(spec.f, spec.g, spec.h, w)
    if np.any(pc.f1 == 0) or np.any(pc.g1 == 0):
        bad = w[(pc.f1 == 0) | (pc.g1 == 0)][0]
        raise CriticalPoint(f"f' or g' vanishes at {bad}")
    if np.any(pc.h0 == 0):
        raise HVanishes(f"h vanishes at {w[pc.h0 == 0][0]}")
    diff = pc.pf - pc.pg
    if spec.squared_variant:
        diff = diff * diff
    alpha = spec.alpha
    return (
        e2t * (1.0 - pc.h0) / pc.h0
        + (1.0 - e2t)
        * w
        * (pc.h1 / pc.h0 + (1.0 - 2.0 * alpha) * pc.pf + 2.0 * alpha * pc.pg)
        + alpha
        * e2t
        * (em2t - 1.0) ** 2
        * (e2t / (z * z))
        * pc.h0
        * ((pc.sf - pc.sg) + (alpha - 0.5) * diff)
    )


def chain_w(spec: ChainSpec, z: complex, t: float) -> complex:
    return complex(chain_w_values(spec, np.array([z]), t)[0])


def chain_p(spec: ChainSpec, z: complex, t: float) -> complex:
    """p = (1+w)/(1-w); Re p > 0 exactly when |w| < 1."""
    w = chain_w(spec, z, t)
    if w == 1:
        raise WEqualsOne(f"w(z={z}, t={t}) = 1")
    return (1.0 + w) / (1.0 - w)


def extract_a1(
    spec: ChainSpec,
    t: float,
    circle_radius: float = 0.5,
    node_count: int = A1_NODE_COUNT,
) -> complex:
    """First Taylor coefficient of z -> chain(z, t) at 0, by the trapezoidal
    contour rule (spectrally accurate for analytic chains)."""
    if not 0.0 < circle_radius < 1.0:
        raise ValueError("circle_radius must lie in (0, 1)")
    zs = circle_points(circle_radius, node_count)
    try:
        vals = chain_values(spec, zs, t)
    except DenominatorVanishes as exc:
        raise ContourThroughSingularity(str(exc)) from exc
    if not np.all(np.isfinite(vals)):
        raise ContourThroughSingularity(
            f"chain not finite on contour radius {circle_radius} at t = {t}"
        )
    return complex(np.mean(vals / zs))


def subordination_check(
    spec: ChainSpec,
    t: float,
    s: float,
    r: float = 0.5,
    boundary_nodes: int = 256,
    probe_nodes: int = 16,
):
    """Verify chain(., t) maps into the image of chain(., s) by winding number:
    every probe image must be enclosed exactly once by the s-contour.

    Returns (ok, failures) with failures a list of (t, s, probe point).
    """
    from .oracle import winding_number

    if not 0.0 < r < 1.0:
        raise ValueError("contour radius must lie in (0, 1)")
    ring = circle_points(r, boundary_nodes)
    try:
        contour = chain_values(spec, ring, s)
        probes_z = circle_points(0.9 * r, probe_nodes)
        probes = chain_values(spec, probes_z, t)
    except DenominatorVanishes as exc:
        raise ContourThroughSingularity(str(exc)) from exc
    closed = np.concatenate([contour, contour[:1]])
    failures = []
    for z0, image in zip(probes_z, probes):
        if winding_number(closed, image) != 1:
            failures.append((t, s, complex(z0)))
    return (not failures), failures


@dataclass(frozen=True)
class AuditReport:
    """Numeric audit of the chain-certification conditions on a sample grid."""

    max_abs_w: float
    witness_w: tuple  # (z, t)
    min_re_p: float
    witness_p: tuple  # (z, t)
    a1_records: tuple  # (t, a1, residual, doubling_ok) per t sample
    subordination_failures: tuple
    boundedness_proxy: float
    dt_proxy: float
    errors: tuple
    passed: bool

    @property
    def a1_residuals(self):
        return tuple((t, res) for t, _, res, _ in self.a1_records)

    def to_json_dict(self) -> dict:
        """Report form; a non-finite extreme (no w sample evaluated, say)
        is written as null so the report stays strict JSON."""
        return {
            "max_abs_w": _finite_or_none(self.max_abs_w),
            "witness_w": {
                "re": self.witness_w[0].real,
                "im": self.witness_w[0].imag,
                "t": self.witness_w[1],
            },
            "min_re_p": _finite_or_none(self.min_re_p),
            "witness_p": {
                "re": self.witness_p[0].real,
                "im": self.witness_p[0].imag,
                "t": self.witness_p[1],
            },
            "a1": [
                {
                    "t": t,
                    "re": a1.real,
                    "im": a1.imag,
                    "residual": res,
                    "doubling_ok": ok,
                }
                for t, a1, res, ok in self.a1_records
            ],
            "subordination": [
                {"t": t, "s": s, "probe": {"re": z.real, "im": z.imag}}
                for t, s, z in self.subordination_failures
            ],
            "boundedness_proxy": _finite_or_none(self.boundedness_proxy),
            "dt_proxy": _finite_or_none(self.dt_proxy),
            "errors": list(self.errors),
            "pass": self.passed,
        }


def _finite_or_none(value: float):
    return value if np.isfinite(value) else None


def default_z_samples() -> np.ndarray:
    parts = [circle_points(r, DEFAULT_Z_ANGLES) for r in DEFAULT_Z_CIRCLES]
    return np.concatenate(parts)


def audit_pommerenke(
    spec: ChainSpec,
    z_samples=None,
    t_samples=None,
    a1_tol: float = A1_RESIDUAL_TOL,
) -> AuditReport:
    """Fill an AuditReport over the (z, t) grid; per-sample failures are
    recorded rather than aborting the audit. Aggregation is t-major, then
    z index, so reports are reproducible."""
    z = (
        default_z_samples()
        if z_samples is None
        else np.asarray(z_samples, dtype=np.complex128)
    )
    ts = tuple(DEFAULT_T_SAMPLES if t_samples is None else t_samples)

    max_abs_w = -np.inf
    witness_w = (complex(z[0]), ts[0])
    min_re_p = np.inf
    witness_p = (complex(z[0]), ts[0])
    boundedness = 0.0
    dt_proxy = 0.0
    errors = []
    a1_records = []

    for t in ts:
        try:
            wv = chain_w_values(spec, z, t)
            abs_w = np.abs(wv)
            finite = np.isfinite(abs_w)
            if not finite.all():
                # A NaN would win argmax and lose every comparison, hiding
                # the slice maximum; record it and rank the finite samples.
                errors.append(
                    f"w grid at t={t}: non-finite w at z = {complex(z[~finite][0])}"
                )
                abs_w = np.where(finite, abs_w, -np.inf)
            k = int(np.argmax(abs_w))
            if float(abs_w[k]) > max_abs_w:
                max_abs_w = float(abs_w[k])
                witness_w = (complex(z[k]), float(t))
            with np.errstate(divide="ignore", invalid="ignore"):
                pv = (1.0 + wv) / (1.0 - wv)
            re_p = np.where(np.isfinite(pv.real), pv.real, np.inf)
            k = int(np.argmin(re_p))
            if float(re_p[k]) < min_re_p:
                min_re_p = float(re_p[k])
                witness_p = (complex(z[k]), float(t))
        except (CriticalPoint, HVanishes) as exc:
            errors.append(f"w grid at t={t}: {exc}")

        try:
            cv = chain_values(spec, z, t)
            boundedness = max(boundedness, float(np.max(np.abs(cv))) / np.exp(t))
            cv2 = chain_values(spec, z, t + DT_PROXY_STEP)
            quot = np.abs(cv2 - cv) / DT_PROXY_STEP
            dt_proxy = max(dt_proxy, float(np.max(quot)))
        except DenominatorVanishes as exc:
            errors.append(f"chain grid at t={t}: {exc}")

        try:
            a1 = extract_a1(spec, t)
            a1_double = extract_a1(spec, t, node_count=2 * A1_NODE_COUNT)
            doubling_ok = abs(a1 - a1_double) < A1_DOUBLING_TOL * max(1.0, abs(a1))
            residual = abs(a1 - np.exp(t)) / np.exp(t)
            a1_records.append((float(t), a1, float(residual), bool(doubling_ok)))
        except ContourThroughSingularity as exc:
            errors.append(f"a1 at t={t}: {exc}")

    subordination_failures = []
    for t_lo, t_hi in zip(ts[:-1], ts[1:]):
        try:
            _, failures = subordination_check(spec, t_lo, t_hi)
            subordination_failures.extend(failures)
        except ContourThroughSingularity as exc:
            errors.append(f"subordination ({t_lo}, {t_hi}): {exc}")

    passed = (
        not errors
        and max_abs_w < 1.0
        and min_re_p > 0.0
        and all(res <= a1_tol and ok for _, _, res, ok in a1_records)
        and not subordination_failures
        and np.isfinite(boundedness)
        and np.isfinite(dt_proxy)
    )
    return AuditReport(
        max_abs_w=float(max_abs_w),
        witness_w=witness_w,
        min_re_p=float(min_re_p),
        witness_p=witness_p,
        a1_records=tuple(a1_records),
        subordination_failures=tuple(subordination_failures),
        boundedness_proxy=float(boundedness),
        dt_proxy=float(dt_proxy),
        errors=tuple(errors),
        passed=bool(passed),
    )
