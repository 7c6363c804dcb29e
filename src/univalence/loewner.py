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
evaluates every chain sample in one pass (``_audit_samples``) over the
chain times by one row of constant nodes, the z grid and then the 256-node
a1 contour, from the criterion pieces of f, g and h
(``MeromorphicFn.pieces``) to order 3, 3 and 1 at zeta = e^t/z and
1/zeta = z e^-t: L at every node, and dL/dt, z dL/dz and w, the signed
theorem1 bracket over the same pieces, on the z grid's columns. At the
default grids the pass covers 6 x 448 points in 3 kernel calls. Each per-t
check runs once over samples stacked over t. A failure is recorded against
its own row, the z grid and the contour each on their own, with the error
of that time evaluated alone, and the audit goes on; each time is judged
on its own, so the times may come in any order.
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


def _audit_samples(spec: ChainSpec, ts, nodes: np.ndarray, n_grid: int) -> tuple:
    """Every chain sample the audit reads, from one pass over the times
    ``ts`` by the node row ``nodes`` (0 < |z| <= 1), whose first ``n_grid``
    nodes are the z grid: one set of f, g and h pieces and one quotient
    evaluation. Returns the arrays L at every node and dL/dt, z dL/dz and w
    on the z grid, with a row per time, and three lists of per-time errors,
    each None or the error of that row: of L, dL/dt and z dL/dz on the z
    grid, of L on the other nodes (CriticalPoint, DenominatorVanishes), and
    of w (CriticalPoint, HVanishes). The rows an error is about are NaN. A
    row's values and error do not depend on the other times or nodes of the
    call. A negative time raises InvalidPlan before anything is evaluated.

    The pieces are scaled (``MeromorphicFn.pieces``) at zeta = e^t/z and
    1/zeta = z e^-t, f, g and h to order 3, 3 and 1: f, F1 = zeta f',
    pf = zeta f''/f' and sf = zeta^2 S_f, the same for g, and h, zeta h'.
    With c = (e^-t - e^t)/z, kappa = c/zeta = e^-2t - 1 and lam = zeta v'/v
    = alpha (pg - pf), L = N/D with N = 1 + kappa h lam and
    D = f + kappa h u1, u1 = zeta u'/v = F1 + f lam. v = 1 (lam = 0) when
    alpha = 0 or g = f. On the z grid's columns, views of the pieces,
    d/dt = zeta d/dzeta + dc/dt d/dc and z d/dz = -zeta d/dzeta - c d/dc
    read zeta^2 v''/v = alpha (sg - sf + (pg - pf)(pg + pf)/2) + lam^2 and
    zeta^2 f'' = F1 pf, and w is ``theorem1`` over the same pieces, with
    |zeta|^2 = e^{2t}. kappa, e^2t and 1 + e^-2t are columns, one entry per
    time."""
    for t in ts:
        if t < 0:
            raise InvalidPlan(f"chain time must be nonnegative, got {t}")
    per_t = np.array(ts, dtype=np.float64)[:, None]
    v_is_one = spec.alpha == 0 or spec.f == spec.g
    # e^t overflows past t of about 709; the rows record what follows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e2t, em2t = np.exp(2.0 * per_t), np.exp(-2.0 * per_t)
        kappa = em2t - 1.0
        zeta = np.exp(per_t) / nodes
        grid_at = (zeta, nodes * np.exp(-per_t))
        f0, f1, pf, sf = spec.f.pieces(grid_at, 3, 0)
        g1, pg, sg = f1, pf, sf  # g = f
        if spec.g != spec.f:
            _, g1, pg, sg = spec.g.pieces(grid_at, 3)
        h0, h1 = spec.h.derivs(grid_at, 1)
        lam = 0.0 if v_is_one else spec.alpha * (pg - pf)  # zeta v'/v
        u1 = f1 + f0 * lam
        kh = kappa * h0
        num = f0 + kh * u1
        value = (1.0 + kh * lam) / num
        singular = (num == 0) | ~np.isfinite(num)
        zero = (f1 == 0) | (g1 == 0)  # f' or g' vanishes
        critical = None if v_is_one else zero | ~(np.isfinite(pf) & np.isfinite(pg))

        # the z grid's columns
        pc = Pieces(*(a[:, :n_grid] for a in (f1, g1, h0, h1, pf, sf, pg, sg)))
        f0, u1, num, quotient = (a[:, :n_grid] for a in (f0, u1, num, value))
        lam2 = 0.0  # zeta^2 v''/v
        if not v_is_one:
            lam = lam[:, :n_grid]
            lam2 = spec.alpha * (pc.sg - pc.sf + 0.5 * ((pc.pg - pc.pf) * (pc.pg + pc.pf))) + lam * lam
        u2 = pc.f1 * pc.pf + 2.0 * pc.f1 * lam + f0 * lam2
        # zeta dL/dzeta and c dL/dc / kappa, times D
        by_zeta = lam + kappa * (pc.h1 * lam + pc.h0 * lam2) - quotient * (u1 + kappa * (pc.h1 * u1 + pc.h0 * u2))
        by_c = pc.h0 * (lam - quotient * u1)
        dt = (by_zeta - (1.0 + em2t) * by_c) / num
        zdz = -(by_zeta + kappa * by_c) / num
        w = theorem1(pc, spec.alpha, e2t, e2t - 1.0)

    chain = [
        (critical, lambda i, k: CriticalPoint(f"g'/f' zero or pole at {zeta[i, k]}")),
        (singular, lambda i, k: DenominatorVanishes(f"chain quotient singular at z = {nodes[k]}, t = {ts[i]}")),
    ]
    on_w = [
        (zero, lambda i, k: CriticalPoint(f"f' or g' vanishes at {zeta[i, k]}")),
        (h0 == 0, lambda i, k: HVanishes(f"h vanishes at {zeta[i, k]}")),
    ]
    errors = (
        _row_errors(chain, slice(0, n_grid), [quotient, dt, zdz]),
        _row_errors(chain, slice(n_grid, None), [value[:, n_grid:]]),
        _row_errors(on_w, slice(0, n_grid), [w]),
    )
    return (value, dt, zdz, w), errors


def _row_errors(tests, cols, rows) -> list:
    """Per time (a row of each mask), None or ``make(i, k)`` for the first
    (mask, make) of ``tests`` whose mask holds in row i within the columns
    ``cols``, at its first such column k; each of ``rows`` is made NaN in a
    row with an error. A mask of None never holds."""
    errors = [None] * len(rows[0])
    for mask, make in reversed(tests):  # the first test's error wins
        if mask is not None and mask.any():
            mask = mask[:, cols]
            for i in np.flatnonzero(mask.any(axis=1)):
                errors[i] = make(i, cols.start + int(np.argmax(mask[i])))
    for i, error in enumerate(errors):
        if error is not None:
            for row in rows:
                row[i] = np.nan
    return errors


def _a1_rows(values, errors, ts) -> list:
    """Per row of chain values on the a1 contour ``_CONTOUR``, one per time
    in ``ts`` with its ``_audit_samples`` error, the a1 (the
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


# The audit's constant nodes, built once and read-only: the z grid, then the
# a1 contour, in one row.
_NODES = np.concatenate(
    [circle_points(r, DEFAULT_Z_ANGLES) for r in DEFAULT_Z_CIRCLES] + [circle_points(A1_RADIUS, A1_NODE_COUNT)]
)
_NODES.flags.writeable = False
_Z_SAMPLES, _CONTOUR = np.split(_NODES, [len(DEFAULT_Z_CIRCLES) * DEFAULT_Z_ANGLES])


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
    Every sample comes from one ``_audit_samples`` pass over the times by
    the z grid and the a1 contour (6 x 448 points at the default grids),
    each row read as if its time had been evaluated alone. |w|, the residual
    and the a1 means are computed over rows stacked over t, and each time is
    judged alone. A Loewner residual (LOEWNER_RESIDUAL_TOL) that is not
    finite reads inf. An empty ``t_samples`` raises InvalidPlan."""
    z = _Z_SAMPLES
    ts = tuple(DEFAULT_T_SAMPLES if t_samples is None else t_samples)
    if not ts:
        raise InvalidPlan("t_samples must hold at least one time")

    errors = [("precondition", message) for message in _preconditions(spec)]
    (value, dt, zdz, w), (grid_errors, contour_errors, w_errors) = _audit_samples(spec, ts, _NODES, z.size)
    cv = value[:, : z.size]
    a1s = _a1_rows(value[:, z.size :], contour_errors, ts)

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
