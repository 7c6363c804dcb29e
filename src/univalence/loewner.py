"""Numeric construction and audit of the Loewner chain certifying the
univalence criterion.

The chain value comes from the closed-form quotient of u = f*v and
v = (g'/f')^alpha; the driving function w(z,t) is the signed theorem1
bracket at zeta = e^t/z (so its modulus on |z| = 1 is the criterion LHS
there). The chain L obeys the Loewner equation dL/dt = z dL/dz p with
p = (1-w)/(1+w), and Re p > 0 exactly where |w| < 1. The audit checks
|w| < 1, the Loewner equation on the z grid (from dL/dt and z dL/dz in
closed form), the first-coefficient law a1(t) = e^t and subordination
between consecutive chain times. It evaluates each distinct chain sample
once, in one pass: one power branch of v with one root solve per function,
one h stack and one quotient over all points. At the default grids that
pass covers 3920 points: per t, the z grid circles of radius 0.9 and 1 and
the 512-node doubled a1 contour, plus the subordination probes. The 256-node
a1 contour and the z grid circle of radius 0.5 are views of the doubled
contour's even and every eighth nodes, bitwise the nodes ``circle_points``
gives, since scaling an index and a node count by a power of two is exact.
The driving function w comes from one criterion-pieces pass and one
theorem1 call over the z grid at every t; each per-t check runs once over
samples stacked over t, and one winding pass judges all (t, s) pairs. A
failure is recorded against its own t slice or (t, s) pair, with the
message that slice would raise alone, and the audit goes on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import MeromorphicFn, constant_one, power_branch_slices
from .criteria import CriterionParams, pieces, theorem1
from .errors import (
    ContourThroughSingularity,
    CriticalPoint,
    DenominatorVanishes,
    EvaluationFailure,
    HVanishes,
    InvalidSpec,
    OutsideDomain,
)
from .oracle import winding_rows
from .sampling import circle_points

DEFAULT_T_SAMPLES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
DEFAULT_Z_CIRCLES = (0.5, 0.9, 1.0)
DEFAULT_Z_ANGLES = 64
A1_RADIUS = 0.5
A1_NODE_COUNT = 256
PROBE_COUNT = 16
A1_DOUBLING_TOL = 1e-9
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
    + ... (leading coefficient 1, no constant term); a nonzero constant term
    drags a chain pole into the disk for large t, which the audit flags via
    the first-coefficient law. f, g, h and alpha are checked and converted
    as ``CriterionParams`` does."""

    f: MeromorphicFn
    g: MeromorphicFn
    h: MeromorphicFn = field(default_factory=constant_one)
    alpha: complex = 0.5 + 0j

    def __post_init__(self):
        params = CriterionParams(self.f, self.g, self.h, self.alpha)
        for name in ("f", "g", "h", "alpha"):
            object.__setattr__(self, name, getattr(params, name))


def _concat(slices):
    """The points of the (z, t) slices as one flat array, each slice's t
    repeated over its points, and the slice ends. Raises the domain error
    of the first slice that has one, as that slice alone would."""
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
            raise ValueError(f"chain time must be nonnegative, got {t}")
    if bad.size:
        raise OutsideDomain(f"chain domain is 0 < |z| <= 1, got z = {z[bad[0]]}")
    t = np.repeat(np.array([t for _, t in slices], dtype=np.float64), sizes)
    return z, t, ends


def _chain_slices(spec: ChainSpec, slices) -> list:
    """Chain values and their derivatives over a sequence of (z, t) slices
    from one pass over all of their points: one domain check, one power
    branch, one h stack and one quotient evaluation (the audit's pass is
    described at ``_audit_samples``). Returns, per slice, the rows (L, dL/dt,
    z dL/dz) or the error ``chain_values`` raises for that slice alone
    (CriticalPoint, DenominatorVanishes, EvaluationFailure). L = N/D with
    N = v + c h v', D = u + c h u', u = f v, zeta = e^t/z, c = (e^-t - e^t)/z;
    d/dt = zeta d/dzeta + dc/dt d/dc and z d/dz = -zeta d/dzeta - c d/dc."""
    z, t, ends = _concat(slices)
    # e^t overflows past t of about 709; the slices record what follows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        et, emt = np.exp(t), np.exp(-t)
        zeta = et / z
        (v0, v1, v2), (f0, f1, f2, _), errors = power_branch_slices(
            spec.f, spec.g, spec.alpha, zeta, ends, order=2
        )
        h0, h1 = spec.h.derivs(zeta, order=1)
        coef = (emt - et) / z
        u0 = f0 * v0
        u1 = f1 * v0 + f0 * v1
        u2 = f2 * v0 + 2.0 * f1 * v1 + f0 * v2
        num = u0 + coef * h0 * u1
        quotient = (v0 + coef * h0 * v1) / num
        # zeta dL/dzeta and dL/dc, times D
        by_zeta = v1 + coef * (h1 * v1 + h0 * v2) - quotient * (u1 + coef * (h1 * u1 + h0 * u2))
        by_zeta *= zeta
        by_c = h0 * (v1 - quotient * u1)
        dt = (by_zeta - (emt + et) / z * by_c) / num
        rows = np.stack([quotient, dt, -(by_zeta + coef * by_c) / num])
    singular = (num == 0) | ~np.isfinite(num)
    out = []
    for (_, t), a, b, error in zip(slices, [0, *ends[:-1]], ends, errors):
        bad = singular[a:b]
        if error is None and bad.any():
            error = DenominatorVanishes(
                f"chain quotient singular at z = {z[a:b][bad][0]}, t = {t}"
            )
        out.append(rows[:, a:b] if error is None else error)
    return out


def _ok(result):
    """A result's value; raises it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def _stacked(results, shape, row=...) -> tuple:
    """Per-slice results as one array, a row per result (row ``row`` of its
    values, or NaN for an error), and per result its error or None."""
    errors = [result if isinstance(result, Exception) else None for result in results]
    rows = [np.full(shape, np.nan + 0j) if e else r[row] for r, e in zip(results, errors)]
    return np.array(rows).reshape((len(rows),) + shape), errors


def chain_values(spec: ChainSpec, z, t: float) -> np.ndarray:
    """Chain value at each z (a scalar counts as one point) for fixed t,
    in the shape of z."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return _ok(_chain_slices(spec, [(z, t)])[0])[0].reshape(z.shape)


def chain_w_values(spec: ChainSpec, z, t: float) -> np.ndarray:
    """Driving function w(z,t) at each z for fixed t: the signed theorem1
    bracket at zeta = e^t/z, with |zeta|^2 = e^{2t} and zeta/conj(zeta) =
    1/z^2."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    return _ok(_w_slices(spec, [(z, t)])[0]).reshape(z.shape)


def _w_slices(spec: ChainSpec, slices) -> list:
    """w over a sequence of (z, t) slices: the signed ``theorem1`` bracket at
    zeta = e^t/z, where |zeta|^2 = e^{2t} and zeta/conj(zeta) = 1/z^2, from
    one ``pieces`` pass and one ``theorem1`` call over all of their points.
    Returns, per slice, its values or the error ``chain_w_values`` raises
    for that slice alone (CriticalPoint, HVanishes). Pieces out of double
    range give non-finite w, which the audit records."""
    z, t, ends = _concat(slices)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        et = np.exp(t)
        w = et / z
        pc = pieces(spec.f, spec.g, spec.h, w)
        values = theorem1(w, pc, spec.alpha, et * et, 1.0 / (z * z))
    out = []
    for a, b in zip([0, *ends[:-1]], ends):
        critical = (pc.f1[a:b] == 0) | (pc.g1[a:b] == 0)
        if critical.any():
            out.append(CriticalPoint(f"f' or g' vanishes at {w[a:b][critical][0]}"))
        elif (pc.h0[a:b] == 0).any():
            out.append(HVanishes(f"h vanishes at {w[a:b][pc.h0[a:b] == 0][0]}"))
        else:
            out.append(values[a:b])
    return out


def extract_a1(spec: ChainSpec, t: float, circle_radius: float = A1_RADIUS) -> complex:
    """First Taylor coefficient of z -> chain(z, t) at 0, by the trapezoidal
    contour rule (spectrally accurate for analytic chains)."""
    if not 0.0 < circle_radius < 1.0:
        raise ValueError("circle_radius must lie in (0, 1)")
    zs = circle_points(circle_radius, A1_NODE_COUNT)
    return _ok(_a1_rows(_chain_slices(spec, [(zs, t)]), zs, (t,), circle_radius)[0])


def _a1_rows(chain, zs, ts, circle_radius) -> list:
    """Per ``_chain_slices`` result on the contour ``zs``, one per time in
    ``ts``, the a1 of ``extract_a1`` or the error it raises for that result
    alone, from one mean over the results stacked."""
    values, errors = _stacked(chain, zs.shape, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        a1 = np.mean(values / zs, axis=1)
    out = []
    for t, value, error in zip(ts, a1, errors):
        if isinstance(error, DenominatorVanishes):
            error = ContourThroughSingularity(str(error))
        elif error is None and not np.isfinite(value):
            error = ContourThroughSingularity(
                f"chain not finite on contour radius {circle_radius} at t = {t}"
            )
        out.append(error or complex(value))
    return out


def subordination_check(spec: ChainSpec, t: float, s: float, r: float = A1_RADIUS):
    """Verify chain(., t) maps into the image of chain(., s) by winding number:
    every probe image must be enclosed exactly once by the s-contour.

    Returns (ok, failures) with failures a list of (t, s, probe point).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("contour radius must lie in (0, 1)")
    ring = circle_points(r, A1_NODE_COUNT)
    probes_z = circle_points(0.9 * r, PROBE_COUNT)
    contour, probes = _chain_slices(spec, [(ring, s), (probes_z, t)])
    failures = _ok(_subordination([(t, s)], probes_z, [contour], [probes])[0])
    return (not failures), failures


def _subordination(pairs, probes_z, contours, probes) -> list:
    """Per (t, s) pair, the failures of ``subordination_check`` or the error
    it raises for that pair alone, from the ``_chain_slices`` results on the
    s-contour and at the t probes, with one winding pass for all pairs."""
    rings, ring_errors = _stacked(contours, (A1_NODE_COUNT,), 0)
    values, probe_errors = _stacked(probes, probes_z.shape, 0)
    closed = np.concatenate([rings, rings[:, :1]], axis=1)
    turns, winding_errors = winding_rows(closed, values) if pairs else ((), ())
    out = []
    for (t, s), row, *errors in zip(pairs, turns, ring_errors, probe_errors, winding_errors):
        error = next(filter(None, errors), None)
        if isinstance(error, DenominatorVanishes):
            error = ContourThroughSingularity(str(error))
        elif isinstance(error, InvalidSpec):  # winding_rows refuses a non-finite value
            error = ContourThroughSingularity(f"chain not finite at t = {t} or s = {s}")
        out.append(error or [(t, s, complex(probes_z[j])) for j in np.flatnonzero(row != 1)])
    return out


@dataclass(frozen=True)
class AuditReport:
    """Numeric audit of the chain-certification conditions on a sample grid."""

    max_abs_w: float
    witness_w: tuple  # (z, t)
    a1_records: tuple  # (t, a1, residual, doubling_ok) per t sample
    subordination_failures: tuple
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
            "loewner_residual": _finite_or_none(self.loewner_residual),
            "errors": list(self.errors),
            "pass": self.passed,
        }


def _finite_or_none(value: float):
    return value if np.isfinite(value) else None


def default_z_samples() -> np.ndarray:
    parts = [circle_points(r, DEFAULT_Z_ANGLES) for r in DEFAULT_Z_CIRCLES]
    return np.concatenate(parts)


def _audit_nodes():
    """The a1 contour, the doubled contour and the subordination probes."""
    return (
        circle_points(A1_RADIUS, A1_NODE_COUNT),
        circle_points(A1_RADIUS, 2 * A1_NODE_COUNT),
        circle_points(0.9 * A1_RADIUS, PROBE_COUNT),
    )


def _audit_samples(spec: ChainSpec, ts: tuple, z: np.ndarray, nodes: tuple):
    """Every sample the audit reads at the z grid ``z`` and the
    ``_audit_nodes``, each as a ``_chain_slices`` result: per t, the chain
    rows on the grid, on the a1 contour and on the doubled contour, and w on
    the grid; and, per subordination pair, the chain rows at the probes.

    Each distinct point is evaluated once. ``circle_points(r, 2n)[::2]`` is
    bitwise ``circle_points(r, n)``, since scaling an angle's index and the
    node count by a power of two is exact. So the a1 contour is a view of
    the even nodes of the doubled contour, and the first grid circle
    (radius A1_RADIUS, DEFAULT_Z_ANGLES nodes) a view of every eighth.
    When the doubled contour carries an error, the a1 contour and the grid
    are evaluated alone instead, so each keeps the message and point of its
    own evaluation."""
    contour, doubled, probes_z = nodes
    stride = doubled.size // DEFAULT_Z_ANGLES
    rest = z[DEFAULT_Z_ANGLES:]  # the grid circles past the first
    slices = []
    for t in ts:
        slices += [(rest, t), (doubled, t)]
    slices += [(probes_z, t) for t in ts[:-1]]
    chain = _chain_slices(spec, slices)
    w = _w_slices(spec, [(z, t) for t in ts])

    samples = []
    for i, t in enumerate(ts):
        outer, on_doubled = chain[2 * i : 2 * i + 2]
        if isinstance(on_doubled, Exception):
            grid, on_contour = _chain_slices(spec, [(z, t), (contour, t)])
        else:
            # With the first circle clean, the grid fails where ``outer``
            # first fails, with the same message.
            grid = outer
            if not isinstance(outer, Exception):
                grid = np.concatenate([on_doubled[:, ::stride], outer], axis=1)
            on_contour = on_doubled[:, ::2]
        samples.append((grid, on_contour, on_doubled, w[i]))
    return samples, chain[2 * len(ts) :]


def audit_pommerenke(spec: ChainSpec, t_samples=None) -> AuditReport:
    """Fill an AuditReport over the (z, t) grid; per-sample failures are
    recorded rather than aborting the audit. Aggregation is t-major, then
    z index, so reports are reproducible.

    Every sample comes from ``_audit_samples``: at the default grids one
    chain pass over 3920 points (6 t x (128 grid + 512 doubled-contour
    points) + 5 x 16 probes) and one w pass over 6 x 192 grid points, each
    slice read as if it had been evaluated alone. The s-contour of a pair is
    the a1 contour at s, the contour of ``subordination_check``'s default r.
    |w|, the residual and both a1 means are computed over rows stacked over
    t. A Loewner residual (LOEWNER_RESIDUAL_TOL) that is not finite reads
    inf."""
    z = default_z_samples()
    ts = tuple(DEFAULT_T_SAMPLES if t_samples is None else t_samples)
    if not ts:
        raise ValueError("t_samples must hold at least one time")

    contour, doubled, probes_z = nodes = _audit_nodes()
    samples, probes = _audit_samples(spec, ts, z, nodes)
    grid, on_contour, on_doubled, w = zip(*samples)
    grid, grid_errors = _stacked(grid, (3, z.size))
    cv, dt, zdz = grid.transpose(1, 0, 2)
    w, w_errors = _stacked(w, z.shape)
    a1s = _a1_rows(on_contour, contour, ts, A1_RADIUS)
    a1d = _a1_rows(on_doubled, doubled, ts, A1_RADIUS)
    pairs = list(zip(ts[:-1], ts[1:]))
    judged = _subordination(pairs, probes_z, on_contour[1:], probes)

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
    errors = []  # (stage, error or message)
    a1_records = []
    for i, (t, a1, a1_double) in enumerate(zip(ts, a1s, a1d)):
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

        failed = a1 if isinstance(a1, Exception) else a1_double
        if isinstance(failed, Exception):
            errors.append((f"a1 at t={t}", failed))
        else:
            doubling_ok = abs(a1 - a1_double) < A1_DOUBLING_TOL * max(1.0, abs(a1))
            residual = abs(a1 - np.exp(t)) / np.exp(t)
            a1_records.append((float(t), a1, float(residual), bool(doubling_ok)))

    subordination_failures = []
    for (t, s), result in zip(pairs, judged):
        if isinstance(result, Exception):
            errors.append((f"subordination ({t}, {s})", result))
        else:
            subordination_failures.extend(result)
    # An EvaluationFailure (the roots of f' or g' out of double range, so no
    # branch of v) ends the audit instead of being recorded.
    for _, error in errors:
        if isinstance(error, EvaluationFailure):
            raise error
    errors = [f"{stage}: {error}" for stage, error in errors]

    passed = (
        not errors
        and max_abs_w < 1.0
        and all(res <= A1_RESIDUAL_TOL and ok for _, _, res, ok in a1_records)
        and not subordination_failures
        and loewner <= LOEWNER_RESIDUAL_TOL
    )
    return AuditReport(
        max_abs_w=float(max_abs_w),
        witness_w=witness_w,
        a1_records=tuple(a1_records),
        subordination_failures=tuple(subordination_failures),
        loewner_residual=float(loewner),
        errors=tuple(errors),
        passed=bool(passed),
    )
