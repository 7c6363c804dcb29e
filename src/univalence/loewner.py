"""Numeric construction and audit of the Loewner chain certifying the
univalence criterion.

The chain is L = (v + c h v')/(u + c h u') with u = f*v, v = (g'/f')^alpha
and c = (e^-t - e^t)/z at zeta = e^t/z. v is a common factor of the
numerator and the denominator, so L and its derivatives read v only
through l = v'/v = alpha (g''/g' - f''/f') and v''/v, which no branch of v
changes: L = (1 + c h l)/(f + c h (f' + f l)). The driving function w(z,t)
is the signed theorem1 bracket at zeta (so its modulus on |z| = 1 is the
criterion LHS there). L obeys the Loewner equation dL/dt = z dL/dz p with
p = (1-w)/(1+w), and Re p > 0 exactly where |w| < 1. The audit checks the
theorem's hypotheses that f is in Sigma0 (f = z + O(1/z) at infinity) and
that f and g have no critical point and no pole in |z| >= 1 (from their
coefficients), |w| < 1, the Loewner equation on the z grid (from dL/dt and
z dL/dz in closed form) and the first-coefficient law a1(t) = e^t. It
evaluates each distinct chain sample once, in two passes
(``_audit_samples``), from the criterion pieces of f, g and h
(``MeromorphicFn.pieces``) at zeta = e^t/z and 1/zeta = z e^-t. The grid
pass reads f, g and h to order 3, 3 and 1 over the z grid at every t and
returns L, dL/dt, z dL/dz and w, the signed theorem1 bracket over the same
pieces. The L pass reads them to order 2, 2 and 0 (f to order 1 and no g
when v = 1) over the 256-node a1 contour at every t. At the default grids
the passes cover 6 x 192 and 6 x 256 points. Each per-t check runs once
over samples stacked over t. A failure is recorded against its own t slice,
with the error of that slice evaluated alone, and the audit goes on; each
time is judged on its own, so the times may come in any order.
``audit_pommerenke`` is the one entry point: each check has this one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import MeromorphicFn, constant_one, root_preconditions, validate_sigma_normalization
from .criteria import CriterionParams, Pieces, theorem1
from .errors import (
    ContourThroughSingularity,
    CriticalPoint,
    DenominatorVanishes,
    HVanishes,
    InvalidPlan,
    OutsideDomain,
)
from .sampling import circle_points

DEFAULT_T_SAMPLES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_Z_CIRCLES = (0.5, 0.9, 1.0)
DEFAULT_Z_ANGLES = 64
A1_RADIUS = 0.5
A1_NODE_COUNT = 256
A1_RESIDUAL_TOL = 1e-6
# Bound on the audit's Loewner residual max|dL/dt - z dL/dz p| / max|dL/dt|
# on the z grid times e^{-2t}: the chain quotient's denominator cancels from
# about e^t/z to e^{-t}/z, so L carries a relative error of about eps e^{2t}.
LOEWNER_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ChainSpec:
    """Data defining one chain: the function pair, the auxiliary h and the
    power parameter.

    The quotient construction presumes the normalized expansion f = z + a1/z
    + ... (f in Sigma0: leading coefficient 1, no constant term); a nonzero
    constant term b0 makes the quotient's denominator vanish near
    z = -e^-t/b0, inside the disk once e^t |b0| > 1, so the audit fails an
    f outside Sigma0 as a precondition. The chain reads
    v = (g'/f')^alpha only through v'/v, so no branch of v is chosen; the
    audit fails a pair whose f' or g' vanishes, or whose f or g has a pole,
    in |z| >= 1. f, g, h and alpha are checked and converted as
    ``CriterionParams`` does."""

    f: MeromorphicFn
    g: MeromorphicFn
    h: MeromorphicFn = field(default_factory=constant_one)
    alpha: complex = 0.5 + 0j

    def __post_init__(self):
        params = CriterionParams(self.f, self.g, self.h, self.alpha)
        for name in ("f", "g", "h", "alpha"):
            object.__setattr__(self, name, getattr(params, name))


def _concat(slices):
    """The points of the (z, t) slices as one flat array, the slices' times
    and the slice sizes and ends. Raises the domain error of the first slice
    that has one, as that slice alone would."""
    zs = [np.ravel(np.asarray(z, dtype=np.complex128)) for z, _ in slices]
    sizes = [z.size for z in zs]
    ends = np.cumsum(sizes)
    z = np.concatenate(zs)
    mods = np.abs(z)
    bad = np.flatnonzero((mods == 0) | (mods > 1.0 + 1e-12))
    # A slice with a negative t fails before its points are looked at.
    last = np.searchsorted(ends, bad[0], side="right") if bad.size else len(slices)
    for _, t in slices[: last + 1]:
        if t < 0:
            raise InvalidPlan(f"chain time must be nonnegative, got {t}")
    if bad.size:
        raise OutsideDomain(f"chain domain is 0 < |z| <= 1, got z = {z[bad[0]]}")
    return z, np.array([t for _, t in slices], dtype=np.float64), sizes, ends


def _chain_slices(spec: ChainSpec, slices, grid: bool = False) -> tuple:
    """Chain values over a sequence of (z, t) slices from one pass over all
    of their points: one domain check, one set of f, g and h pieces and one
    quotient evaluation. Returns the row L (with ``grid``, the rows L,
    dL/dt, z dL/dz and w) over all the points, and per slice None or the
    error of L for that slice evaluated alone (CriticalPoint,
    DenominatorVanishes), then with ``grid`` that of w (CriticalPoint,
    HVanishes). The rows an error is about are NaN over its slice. A slice's
    values and errors do not depend on the other slices of the call.

    The pieces are scaled (``MeromorphicFn.pieces``) at zeta = e^t/z and
    1/zeta = z e^-t: f, F1 = zeta f', pf = zeta f''/f' and sf = zeta^2 S_f,
    the same for g, and h, zeta h'. With c = (e^-t - e^t)/z, kappa = c/zeta
    = e^-2t - 1 and lam = zeta v'/v = alpha (pg - pf), L = N/D with
    N = 1 + kappa h lam and D = f + kappa h u1, u1 = zeta u'/v = F1 + f lam.
    v = 1 (lam = 0, g not read) when alpha = 0 or g = f. ``grid`` reads
    zeta^2 S_f, zeta^2 S_g and zeta h' too: d/dt = zeta d/dzeta + dc/dt d/dc
    and z d/dz = -zeta d/dzeta - c d/dc read zeta^2 v''/v = alpha (sg - sf
    + (pg - pf)(pg + pf)/2) + lam^2 and zeta^2 f'' = F1 pf, and w is
    ``theorem1`` over the same pieces, with |zeta|^2 = e^{2t}. kappa, e^2t
    and 1 + e^-2t are taken once per slice."""
    z, per_t, sizes, ends = _concat(slices)
    order, v_is_one = 3 if grid else 2, spec.alpha == 0 or spec.f == spec.g
    # e^t overflows past t of about 709; the slices record what follows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e2t, em2t = np.exp(2.0 * per_t), np.exp(-2.0 * per_t)
        kappa = np.repeat(em2t - 1.0, sizes)
        grid_at = (np.repeat(np.exp(per_t), sizes) / z, z * np.repeat(np.exp(-per_t), sizes))
        f0, f1, pf, sf = spec.f.pieces(grid_at, order if grid or not v_is_one else 1, value=True)
        g1, pg, sg = f1, pf, sf  # g = f, or g not read
        if spec.g != spec.f and (grid or not v_is_one):
            _, g1, pg, sg = spec.g.pieces(grid_at, order)
        h0, h1 = (*spec.h.derivs(grid_at, order - 2), None)[:2]
        lam = 0.0 if v_is_one else spec.alpha * (pg - pf)  # zeta v'/v
        u1 = f1 + f0 * lam
        kh = kappa * h0
        num = f0 + kh * u1
        rows = [(1.0 + kh * lam) / num]
        if grid:
            quotient, lam2 = rows[0], 0.0  # lam2 = zeta^2 v''/v
            if not v_is_one:
                lam2 = spec.alpha * (sg - sf + 0.5 * ((pg - pf) * (pg + pf))) + lam * lam
            u2 = f1 * pf + 2.0 * f1 * lam + f0 * lam2
            # zeta dL/dzeta and c dL/dc / kappa, times D
            by_zeta = lam + kappa * (h1 * lam + h0 * lam2) - quotient * (u1 + kappa * (h1 * u1 + h0 * u2))
            by_c = h0 * (lam - quotient * u1)
            rows += [
                (by_zeta - np.repeat(1.0 + em2t, sizes) * by_c) / num,
                -(by_zeta + kappa * by_c) / num,
                theorem1(Pieces(f1, g1, h0, h1, pf, sf, pg, sg), spec.alpha,
                         np.repeat(e2t, sizes), np.repeat(e2t - 1.0, sizes)),
            ]
        rows = np.stack(rows)
        singular = (num == 0) | ~np.isfinite(num)
        critical = False
        if not v_is_one:
            critical = (f1 == 0) | (g1 == 0) | ~(np.isfinite(pf) & np.isfinite(pg))
    zeta = grid_at[0]
    tests = [
        (critical, lambda k, t: CriticalPoint(f"g'/f' zero or pole at {zeta[k]}")),
        (singular, lambda k, t: DenominatorVanishes(f"chain quotient singular at z = {z[k]}, t = {t}")),
    ]
    errors = [_slice_errors(slices, ends, rows[:3], tests)]
    if grid:
        tests = [
            ((f1 == 0) | (g1 == 0), lambda k, t: CriticalPoint(f"f' or g' vanishes at {zeta[k]}")),
            (h0 == 0, lambda k, t: HVanishes(f"h vanishes at {zeta[k]}")),
        ]
        errors.append(_slice_errors(slices, ends, rows[3:], tests))
    return (rows, *errors)


def _slice_errors(slices, ends, rows, tests) -> list:
    """Per slice, None or ``make(k, t)`` for the first (mask, make) of
    ``tests`` whose mask holds in the slice, at its first such point k and
    the slice's t; ``rows`` is made NaN over a slice with an error."""
    tests = [test for test in tests if np.any(test[0])]
    errors = []
    for (_, t), a, b in zip(slices, [0, *ends[:-1]], ends):
        hits = [(mask, make) for mask, make in tests if mask[a:b].any()]
        if hits:
            rows[:, a:b] = np.nan
            mask, make = hits[0]
        errors.append(make(a + np.argmax(mask[a:b]), t) if hits else None)
    return errors


def _a1_rows(values, errors, ts) -> list:
    """Per row of chain values on the a1 contour ``_CONTOUR``, one per time
    in ``ts`` with its ``_chain_slices`` error, the a1 (the
    first Taylor coefficient at 0, by the trapezoidal rule: spectrally
    accurate for an analytic chain) or the error of that row alone, from one
    mean over all the rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = np.mean(values / _CONTOUR, axis=1)
    out = []
    for t, value, error in zip(ts, a1, errors):
        if error is None and not np.isfinite(value):
            error = ContourThroughSingularity(
                f"chain not finite on contour radius {A1_RADIUS} at t = {t}"
            )
        out.append(error or complex(value))
    return out


@dataclass(frozen=True)
class AuditReport:
    """Numeric audit of the chain-certification conditions on a sample grid."""

    max_abs_w: float
    witness_w: tuple  # (z, t)
    a1_records: tuple  # (t, a1, residual) per t sample
    loewner_residual: float
    errors: tuple
    passed: bool

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
            "a1": [
                {"t": t, "re": a1.real, "im": a1.imag, "residual": res}
                for t, a1, res in self.a1_records
            ],
            "loewner_residual": _finite_or_none(self.loewner_residual),
            "errors": list(self.errors),
            "pass": self.passed,
        }


def _finite_or_none(value: float):
    return value if np.isfinite(value) else None


# The audit's constant nodes, built once and read-only: the z grid and the
# a1 contour.
_Z_SAMPLES = np.concatenate([circle_points(r, DEFAULT_Z_ANGLES) for r in DEFAULT_Z_CIRCLES])
_CONTOUR = circle_points(A1_RADIUS, A1_NODE_COUNT)
for _points in (_Z_SAMPLES, _CONTOUR):
    _points.flags.writeable = False


def _audit_samples(spec: ChainSpec, ts: tuple):
    """Every sample the audit reads, stacked with a row per t: the chain
    rows (L, dL/dt, z dL/dz) on the z grid ``_Z_SAMPLES``, of shape
    (3, len(ts), _Z_SAMPLES.size); L on the a1 contour ``_CONTOUR``; and w
    on the z grid. Returns these three arrays, NaN in a row whose slice
    failed, and their three lists of per-row errors, each None or the error
    of ``_chain_slices`` for that row's slice evaluated alone: a grid pass
    over the z grid at every t and an L pass over the contour at every t."""
    n = len(ts)
    rows, grid_errors, w_errors = _chain_slices(spec, [(_Z_SAMPLES, t) for t in ts], grid=True)
    on_contour, contour_errors = _chain_slices(spec, [(_CONTOUR, t) for t in ts])
    return (
        (rows[:3].reshape(3, n, -1), on_contour[0].reshape(n, -1), rows[3].reshape(n, -1)),
        (grid_errors, contour_errors, w_errors),
    )


def _preconditions(spec: ChainSpec) -> list:
    """The theorem's hypotheses on f and g that fail: f in Sigma0
    (``catalog.validate_sigma_normalization``), then per function (g only
    when it is not f) the outermost zero of its derivative and the
    outermost pole in |z| >= 1 (``catalog.root_preconditions``)."""
    out, sigma = [], validate_sigma_normalization(spec.f)
    if sigma.classification != "Sigma0":
        out.append(f"f is not in Sigma0: b = {sigma.b}, b0 = {sigma.b0}")
    return out + root_preconditions(spec.f, spec.g)


def audit_pommerenke(spec: ChainSpec, t_samples=None) -> AuditReport:
    """Fill an AuditReport over the (z, t) grid; per-sample failures are
    recorded rather than aborting the audit. Aggregation is t-major, then
    z index, so reports are reproducible.

    An f outside Sigma0, and a zero of f' or g' or a pole of f or g in
    |z| >= 1, is recorded first, as a ``precondition``, and fails the audit.
    Every sample comes from ``_audit_samples``: at the default grids a grid
    pass over 6 x 192 z grid points (L, dL/dt, z dL/dz and w) and an L pass
    over 6 x 256 a1 contour points, each slice read as if it had been
    evaluated alone. |w|, the residual and the a1 means are computed over
    rows stacked over t, and each time is judged alone. A Loewner residual
    (LOEWNER_RESIDUAL_TOL) that is not finite reads inf. An empty
    ``t_samples`` raises InvalidPlan."""
    z = _Z_SAMPLES
    ts = tuple(DEFAULT_T_SAMPLES if t_samples is None else t_samples)
    if not ts:
        raise InvalidPlan("t_samples must hold at least one time")

    errors = [("precondition", message) for message in _preconditions(spec)]
    ((cv, dt, zdz), on_contour, w), (grid_errors, contour_errors, w_errors) = _audit_samples(spec, ts)
    a1s = _a1_rows(on_contour, contour_errors, ts)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        abs_w = np.abs(w)
        res = np.max(np.abs(dt - zdz * (1.0 - w) / (1.0 + w)), axis=1) / np.max(np.abs(dt), axis=1)
    # A NaN would win argmax and lose every comparison, hiding a slice
    # maximum: rank the finite samples only. The flat argmax runs t-major,
    # then by z index, so it finds the first maximum.
    w_finite, grid_finite = np.isfinite(abs_w), np.isfinite(cv)
    abs_w[~w_finite] = -np.inf
    i, k = np.unravel_index(np.argmax(abs_w), abs_w.shape)
    max_abs_w = abs_w[i, k]
    witness_w = (complex(z[k]), float(ts[i])) if max_abs_w > -np.inf else (complex(z[0]), ts[0])
    # the first non-finite sample of each row, if it has one
    w_at, grid_at = np.argmin(w_finite, axis=1), np.argmin(grid_finite, axis=1)

    loewner = -np.inf
    a1_records = []
    for i, (t, a1) in enumerate(zip(ts, a1s)):
        if w_errors[i] is not None:
            errors.append((f"w grid at t={t}", w_errors[i]))
        elif not w_finite[i, w_at[i]]:
            errors.append((f"w grid at t={t}", f"non-finite w at z = {complex(z[w_at[i]])}"))

        if grid_errors[i] is not None:
            errors.append((f"chain grid at t={t}", grid_errors[i]))
        else:
            if not grid_finite[i, grid_at[i]]:
                at = complex(z[grid_at[i]])
                errors.append((f"chain grid at t={t}", f"non-finite chain value at z = {at}"))
            if w_errors[i] is None:
                loewner = max(loewner, res[i] * np.exp(-2.0 * t) if np.isfinite(res[i]) else np.inf)

        if isinstance(a1, Exception):
            errors.append((f"a1 at t={t}", a1))
        else:
            a1_records.append((float(t), a1, float(abs(a1 - np.exp(t)) / np.exp(t))))
    errors = [f"{stage}: {error}" for stage, error in errors]

    passed = (
        not errors
        and max_abs_w < 1.0
        and all(res <= A1_RESIDUAL_TOL for _, _, res in a1_records)
        and loewner <= LOEWNER_RESIDUAL_TOL
    )
    return AuditReport(
        max_abs_w=float(max_abs_w),
        witness_w=witness_w,
        a1_records=tuple(a1_records),
        loewner_residual=float(loewner),
        errors=tuple(errors),
        passed=bool(passed),
    )
