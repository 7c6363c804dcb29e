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
theorem's hypothesis that f and g have no critical point and no pole in
|z| >= 1 (from the roots of their coefficients), |w| < 1, the Loewner
equation on the z grid (from dL/dt and z dL/dz in closed form), the
first-coefficient law a1(t) = e^t and subordination between consecutive
chain times. It evaluates each distinct chain sample once, in two passes
(``_audit_samples``). The grid pass reads f, g and h to order 3, 3 and 1
over the z grid at every t and returns L, dL/dt, z dL/dz and w, the signed
theorem1 bracket over the criterion pieces of the same stacks. The L pass
reads them to order 2, 2 and 0 (no g when v = 1) over the 512-node doubled
a1 contour at every t and the subordination probes; the 256-node a1
contour is a view of the doubled contour's even nodes, bitwise the nodes
``circle_points`` gives. At the default grids the passes cover 6 x 192 and
6 x 512 + 5 x 16 = 3152 points. Each per-t check runs once over samples
stacked over t, and one winding pass judges all (t, s) pairs. A failure is
recorded against its own t slice or (t, s) pair, with the message that
slice would raise alone, and the audit goes on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import MeromorphicFn, constant_one, exterior_roots
from .criteria import CriterionParams, stack_pieces, theorem1
from .errors import (
    ContourThroughSingularity,
    CriticalPoint,
    DenominatorVanishes,
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
    the first-coefficient law. The chain reads v = (g'/f')^alpha only
    through v'/v, so no branch of v is chosen; the audit fails a pair whose
    f' or g' vanishes, or whose f or g has a pole, in |z| >= 1. f, g, h and
    alpha are checked and converted as ``CriterionParams`` does."""

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


def _chain_slices(spec: ChainSpec, slices, grid: bool = False) -> tuple:
    """Chain values over a sequence of (z, t) slices from one pass over all
    of their points: one domain check, one f, g and h stack and one quotient
    evaluation. Returns the row L (with ``grid``, the rows L, dL/dt, z dL/dz
    and w) over all the points, and per slice None or the error
    ``chain_values`` raises for that slice alone (CriticalPoint,
    DenominatorVanishes), then with ``grid`` that of ``chain_w_values``
    (CriticalPoint, HVanishes). The rows an error is about are NaN over its
    slice.

    With zeta = e^t/z, c = (e^-t - e^t)/z, l = v'/v = alpha (pg - pf) and
    pf = f''/f', pg = g''/g', L = N/D with N = 1 + c h l and D = f + c h u1,
    u1 = u'/v = f' + f l. v = 1 (l = 0, g not read) when alpha = 0 or g = f.
    ``grid`` reads f''', g''' and h' too: d/dt = zeta d/dzeta + dc/dt d/dc
    and z d/dz = -zeta d/dzeta - c d/dc read v''/v = alpha (pg' - pf') + l^2
    with p' = f'''/f' - p^2, and w is ``theorem1`` over the ``Pieces`` of
    the same stacks, with |zeta|^2 = e^{2t} and zeta/conj(zeta) = 1/z^2."""
    z, t, ends = _concat(slices)
    order, v_is_one = 3 if grid else 2, spec.alpha == 0 or spec.f == spec.g
    # e^t overflows past t of about 709; the slices record what follows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        et, emt = np.exp(t), np.exp(-t)
        zeta = et / z
        inv = 1.0 / zeta
        fd = spec.f.derivs(zeta, order, inv)
        gd = fd[1:]  # g = f, or g not read
        if spec.g != spec.f and (grid or not v_is_one):
            gd = spec.g.derivs(zeta, order, inv, first=1)
        hd = spec.h.derivs(zeta, order - 2, inv)
        (f0, f1, f2), h0 = fd[:3], hd[0]
        if grid:
            pc = stack_pieces(fd[1:], gd, hd)
            pf, pg = pc.pf, pc.pg
        elif not v_is_one:
            pf, pg = f2 / f1, gd[1] / gd[0]
        ell = 0.0 if v_is_one else spec.alpha * (pg - pf)  # v'/v
        coef = (emt - et) / z
        u1 = f1 + f0 * ell
        num = f0 + coef * h0 * u1
        rows = [(1.0 + coef * h0 * ell) / num]
        if grid:
            quotient, h1, ell2 = rows[0], hd[1], 0.0  # ell2 = v''/v
            if not v_is_one:
                ell2 = spec.alpha * (gd[2] / gd[0] - fd[3] / f1 - (pg - pf) * (pg + pf)) + ell * ell
            u2 = f2 + 2.0 * f1 * ell + f0 * ell2
            # zeta dL/dzeta and dL/dc, times D
            by_zeta = ell + coef * (h1 * ell + h0 * ell2) - quotient * (u1 + coef * (h1 * u1 + h0 * u2))
            # Not in place: at length 1 that is not bitwise this product.
            by_zeta = by_zeta * zeta
            by_c = h0 * (ell - quotient * u1)
            rows += [
                (by_zeta - (emt + et) / z * by_c) / num,
                -(by_zeta + coef * by_c) / num,
                theorem1(zeta, pc, spec.alpha, et * et, 1.0 / (z * z)),
            ]
        rows = np.stack(rows)
        singular = (num == 0) | ~np.isfinite(num)
        critical = False
        if not v_is_one:
            critical = (f1 == 0) | (gd[0] == 0) | ~(np.isfinite(f1) & np.isfinite(gd[0]))
    tests = [
        (critical, lambda k, t: CriticalPoint(f"g'/f' zero or pole at {zeta[k]}")),
        (singular, lambda k, t: DenominatorVanishes(f"chain quotient singular at z = {z[k]}, t = {t}")),
    ]
    errors = [_slice_errors(slices, ends, rows[:3], tests)]
    if grid:
        critical = (pc.f1 == 0) | (pc.g1 == 0)
        tests = [
            (critical, lambda k, t: CriticalPoint(f"f' or g' vanishes at {zeta[k]}")),
            (pc.h0 == 0, lambda k, t: HVanishes(f"h vanishes at {zeta[k]}")),
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


def _ok(result):
    """A result's value; raises it if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def chain_values(spec: ChainSpec, z, t: float) -> np.ndarray:
    """Chain value at each z (a scalar counts as one point) for fixed t,
    in the shape of z."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    rows, (error,) = _chain_slices(spec, [(z, t)])
    return _ok(error or rows)[0].reshape(z.shape)


def chain_w_values(spec: ChainSpec, z, t: float) -> np.ndarray:
    """Driving function w(z,t) at each z for fixed t: the signed theorem1
    bracket at zeta = e^t/z, the last row of ``_chain_slices``' grid pass."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    rows, _, (error,) = _chain_slices(spec, [(z, t)], grid=True)
    return _ok(error or rows)[3].reshape(z.shape)


def extract_a1(spec: ChainSpec, t: float, circle_radius: float = A1_RADIUS) -> complex:
    """First Taylor coefficient of z -> chain(z, t) at 0, by the trapezoidal
    contour rule (spectrally accurate for analytic chains)."""
    if not 0.0 < circle_radius < 1.0:
        raise ValueError("circle_radius must lie in (0, 1)")
    zs = circle_points(circle_radius, A1_NODE_COUNT)
    rows, errors = _chain_slices(spec, [(zs, t)])
    return _ok(_a1_rows(rows[:1], errors, zs, (t,), circle_radius)[0])


def _a1_rows(values, errors, zs, ts, circle_radius) -> list:
    """Per row of chain values on the contour ``zs``, one per time in ``ts``
    with its ``_chain_slices`` error, the a1 of ``extract_a1`` or the error
    it raises for that row alone, from one mean over all the rows."""
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
    rows, errors = _chain_slices(spec, [(ring, s), (probes_z, t)])
    contour, probes = rows[:1, : ring.size], rows[:1, ring.size :]
    failures = _ok(_subordination([(t, s)], probes_z, contour, probes, [errors])[0])
    return (not failures), failures


def _subordination(pairs, probes_z, rings, probes, errors) -> list:
    """Per (t, s) pair, the failures of ``subordination_check`` or the error
    it raises for that pair alone, from the chain values on the s-contour
    and at the t probes, a row per pair, and per pair the ``_chain_slices``
    errors of both, with one winding pass for all pairs."""
    closed = np.concatenate([rings, rings[:, :1]], axis=1)
    turns, winding_errors = winding_rows(closed, probes) if pairs else ((), ())
    out = []
    for (t, s), row, chain_errors, winding_error in zip(pairs, turns, errors, winding_errors):
        error = next(filter(None, [*chain_errors, winding_error]), None)
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


# The audit's constant nodes, built once and read-only: the z grid, the a1
# contour, the doubled contour and the subordination probes.
_Z_SAMPLES = np.concatenate([circle_points(r, DEFAULT_Z_ANGLES) for r in DEFAULT_Z_CIRCLES])
_NODES = (
    circle_points(A1_RADIUS, A1_NODE_COUNT),
    circle_points(A1_RADIUS, 2 * A1_NODE_COUNT),
    circle_points(0.9 * A1_RADIUS, PROBE_COUNT),
)
for _points in (_Z_SAMPLES, *_NODES):
    _points.flags.writeable = False


def default_z_samples() -> np.ndarray:
    return _Z_SAMPLES


def _audit_nodes():
    """The a1 contour, the doubled contour and the subordination probes."""
    return _NODES


def _audit_samples(spec: ChainSpec, ts: tuple, z: np.ndarray, nodes: tuple):
    """Every sample the audit reads at the z grid ``z`` and the
    ``_audit_nodes``, stacked with a row per t (per subordination pair for
    the probes): the chain rows (L, dL/dt, z dL/dz) on the grid, of shape
    (3, len(ts), z.size); L on the a1 contour and on the doubled contour; w
    on the grid; and L at the probes. Returns these five arrays, NaN in a
    row whose slice failed, and their five lists of per-row errors, each
    None or the error of ``_chain_slices`` for that row's slice evaluated
    alone.

    Two ``_chain_slices`` passes evaluate each distinct point once: the
    grid pass over the z grid at every t, and the L pass over the doubled
    contour at every t and the probes at every t but the last. The a1
    contour is a view of the doubled contour's even nodes, bitwise
    ``circle_points(r, n)`` since scaling an angle's index and the node
    count by a power of two is exact. When the doubled contour carries an
    error, the a1 contour is evaluated alone instead, so that it keeps the
    message and point of its own evaluation."""
    (contour, doubled, probes_z), n = nodes, len(ts)
    rows, grid_errors, w_errors = _chain_slices(spec, [(z, t) for t in ts], grid=True)
    on_nodes, errors = _chain_slices(spec, [(doubled, t) for t in ts] + [(probes_z, t) for t in ts[:-1]])
    on_doubled = on_nodes[0, : n * doubled.size].reshape(n, -1)
    on_contour = on_doubled[:, ::2].copy()
    doubled_errors, contour_errors = errors[:n], errors[:n]
    for i, t in enumerate(ts):
        if doubled_errors[i] is not None:
            alone, [contour_errors[i]] = _chain_slices(spec, [(contour, t)])
            on_contour[i] = alone[0]
    probes = on_nodes[0, n * doubled.size :].reshape(n - 1, probes_z.size)
    return (
        (rows[:3].reshape(3, n, -1), on_contour, on_doubled, rows[3].reshape(n, -1), probes),
        (grid_errors, contour_errors, doubled_errors, w_errors, errors[n:]),
    )


def _preconditions(spec: ChainSpec) -> list:
    """The theorem's hypotheses on f and g that fail: per function (g only
    when it is not f), the outermost zero of its derivative and the
    outermost pole in |z| >= 1 (``catalog.exterior_roots``)."""
    out = []
    for name, fn in [("f", spec.f)] + [("g", spec.g)] * (spec.g != spec.f):
        for roots, what in zip(exterior_roots(fn), (f"{name}' vanishes", f"{name} has a pole")):
            if roots.size:
                more = f" (and {roots.size - 1} more there)" if roots.size > 1 else ""
                out.append(f"{what} at {complex(roots[0])} in |z| >= 1{more}")
    return out


def audit_pommerenke(spec: ChainSpec, t_samples=None) -> AuditReport:
    """Fill an AuditReport over the (z, t) grid; per-sample failures are
    recorded rather than aborting the audit. Aggregation is t-major, then
    z index, so reports are reproducible.

    A zero of f' or g', or a pole of f or g, in |z| >= 1 is recorded first,
    as a ``precondition``, and fails the audit. Every sample comes from
    ``_audit_samples``: at the default grids a grid pass over 6 x 192 z
    grid points (L, dL/dt, z dL/dz and w) and an L pass over 3152 points
    (6 t x 512 doubled-contour points + 5 x 16 probes), each slice read as
    if it had been evaluated alone. The s-contour of a pair is the a1
    contour at s, the contour of ``subordination_check``'s default r. |w|,
    the residual and both a1 means are computed over rows stacked over t.
    A Loewner residual (LOEWNER_RESIDUAL_TOL) that is not finite reads
    inf."""
    z = default_z_samples()
    ts = tuple(DEFAULT_T_SAMPLES if t_samples is None else t_samples)
    if not ts:
        raise ValueError("t_samples must hold at least one time")

    errors = [("precondition", message) for message in _preconditions(spec)]
    contour, doubled, probes_z = nodes = _audit_nodes()
    samples, sample_errors = _audit_samples(spec, ts, z, nodes)
    (cv, dt, zdz), on_contour, on_doubled, w, probes = samples
    grid_errors, contour_errors, doubled_errors, w_errors, probe_errors = sample_errors
    a1s = _a1_rows(on_contour, contour_errors, contour, ts, A1_RADIUS)
    a1d = _a1_rows(on_doubled, doubled_errors, doubled, ts, A1_RADIUS)
    pairs = list(zip(ts[:-1], ts[1:]))
    pair_errors = list(zip(contour_errors[1:], probe_errors))
    judged = _subordination(pairs, probes_z, on_contour[1:], probes, pair_errors)

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
