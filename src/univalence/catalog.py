"""Catalog of meromorphic functions on the exterior disk and admissible
h-functions, plus the zeros of f' and the poles of f in |z| >= 1, the
theorem's hypotheses on f and g: for a map whose folded levels have c = 0,
ruled out by a bound on the coefficients with a slack for its rounding, or
else solved from them with ``np.roots``.

f, g and h are one model: a Laurent map u = b z + b0 + b1/z + ... under a
flat tuple of Moebius levels, which fold into one matrix M. The one Laurent
kernel (``_kernels.laurent_derivs_scaled``) gives u's scaled rows
z^j u^(j), and a function's value and criterion pieces (z f', z f''/f',
z^2 S_f) are closed forms in those rows and M (``MeromorphicFn.pieces``);
an h = 1 + h2/z^2 + ... has b = 0 and b0 = 1. A small spec
mini-language maps CLI strings onto the constructors: ``identity``,
``joukowski:<re>[,<im>]``, ``laurent:<b>;<b0>;<b1>,...``,
``moebius:<a>,<b>,<c>,<d>:<inner>``, ``hconst``, ``hinvsq:<c>``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import EvaluationFailure, InvalidSpec
from .sampling import SamplingPlan


# ---------------------------------------------------------------------------
# Meromorphic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeromorphicFn:
    """A Laurent map u = b z + b0 + sum tail[k] z^-(k+1) under ``levels``,
    Moebius matrices (a, b, c, d) listed outermost first: the function is
    L_0(L_1(...(u))) with L(w) = (a w + b)/(c w + d). kind names u for
    ``describe``: 'identity', 'joukowski', 'laurent', or, for h = 1 + h2/z^2
    + ... (b = 0, b0 = 1, tail (0, h2, 0, h4, ...)), 'hconst', 'hinvsq',
    'laurent_even'."""

    kind: str
    b: complex = 1.0 + 0j
    b0: complex = 0j
    tail: tuple = ()
    levels: tuple = ()

    def lower_coeffs(self):
        """(b, b0, tail-array) of the Laurent map u under the levels."""
        return (
            complex(self.b),
            complex(self.b0),
            np.asarray(self.tail, dtype=np.complex128),
        )

    @cached_property
    def _kernel_coeffs(self):
        """(b, b0, tail without its trailing zeros), the Laurent kernel's
        arguments, built once per function."""
        n = len(self.tail)
        while n and self.tail[n - 1] == 0:
            n -= 1
        return complex(self.b), complex(self.b0), np.array(self.tail[:n], dtype=np.complex128)

    @cached_property
    def _folded(self):
        """The levels folded into one matrix (``_fold``), built once per
        function."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _fold(self.levels)

    def derivs(self, grid, order: int = 4, first: int = 0) -> np.ndarray:
        """Rows ``first`` through ``order`` of the scaled stack
        U_j = z^j u^(j) of the Laurent map u, its levels left out, at the
        points of ``grid`` = (z, 1/z). ``pieces`` and ``values`` apply the
        levels."""
        return _kernels.laurent_derivs_scaled(*grid, *self._kernel_coeffs, order, first)

    def pieces(self, grid, order: int, first: int = 1) -> tuple:
        """(f, z f', z f''/f', z^2 S_f) at the points of ``grid`` = (z, 1/z),
        pieces ``first`` through ``order`` (0 to 3; a piece outside them is
        None), as ``derivs`` gives rows. With the folded level
        M = (a, b; c, d), s = c u + d and det = ad - bc, they are closed forms
        in the scaled rows U_j = z^j u^(j) of the Laurent map u:

            f = (a U0 + b)/s,   z f' = det U1/s^2,
            z f''/f' = U2/U1 - 2c U1/s,   z^2 S_f = U3/U1 - 3/2 (U2/U1)^2,

        the last since the Schwarzian is Moebius-invariant. They take one
        reciprocal each of U1 and, for c != 0, of s; for c = 0, s is d and
        f and z f' are u's and z u' times a/d, u's own where a = d.
        Critical points and poles give non-finite entries, for the caller to
        diagnose."""
        (a, b), (c, d) = self._folded
        start = 0 if c else min(first, 1)
        rows = self.derivs(grid, order, start)
        u0, u1, u2, u3 = ([None] * start + list(rows) + [None] * 3)[:4]
        f0 = f1 = pf = sf = None
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if c:
                q = np.reciprocal(c * u0 + d)
                if first == 0:
                    f0 = (a * u0 + b) * q
                if order > 0:
                    u1q = u1 * q
                    if first < 2:
                        f1 = (a * d - b * c) * u1q * q
            else:
                k = a / d
                if first == 0:
                    f0 = u0 if k == 1 else k * u0
                    f0 = f0 + b / d if b else f0
                if order > 0 and first < 2:
                    f1 = u1 if k == 1 else k * u1
            if order > 1:
                r = np.reciprocal(u1)
                pf = p = u2 * r
                if c:
                    pf = p - (2.0 * c) * u1q
            if order > 2:
                sf = u3 * r
                sf = sf - 1.5 * (p * p)
        return f0, f1, pf, sf

    def values(self, points: np.ndarray) -> np.ndarray:
        """f at each point, from z and 1.0 / z: a Laurent map's is its
        kernel's value row, each term added in order k = 0, 1, ..."""
        points = np.asarray(points, dtype=np.complex128)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self.pieces((points, 1.0 / points), 0, 0)[0]

    def describe(self) -> str:
        if self.kind in ("identity", "hconst"):
            text = self.kind
        elif self.kind == "joukowski":
            text = f"joukowski({self.tail[0]})"
        elif self.kind == "laurent":
            text = f"laurent(b={self.b}, b0={self.b0}, tail={list(self.tail)})"
        elif self.kind == "hinvsq":
            text = f"hinvsq({self.tail[1]})"
        else:
            text = f"laurent_even{self.tail[1::2]}"
        return "".join(f"moebius({a},{b},{c},{d})∘" for a, b, c, d in self.levels) + text


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


def _level(a, b, c, d) -> tuple:
    a, b, c, d = (complex(v) for v in (a, b, c, d))
    if a * d - b * c == 0:
        raise InvalidSpec("degenerate Moebius map: ad - bc = 0")
    return a, b, c, d


def moebius_of(inner: MeromorphicFn, a, b, c, d) -> MeromorphicFn:
    return replace(inner, levels=(_level(a, b, c, d), *inner.levels))


def _fold(levels):
    """The matrix [[a, b], [c, d]] of the Moebius levels composed, outermost
    first, so that they map u to (a u + b) / (c u + d)."""
    m = np.eye(2, dtype=np.complex128)
    for level in levels:
        m = m @ np.reshape(level, (2, 2))
    return m


def make_sigma_function(spec) -> MeromorphicFn:
    """Build a catalog function from a spec string or pass one through."""
    if not isinstance(spec, MeromorphicFn):
        return parse_function_spec(spec)
    if spec.b == 0:
        raise InvalidSpec(f"{spec.describe()} has no leading term b z with b != 0")
    return spec


# ---------------------------------------------------------------------------
# h-functions: h(zeta) = 1 + h2/zeta^2 + h4/zeta^4 + ... (no zeta^-1 term)
# ---------------------------------------------------------------------------


def constant_one() -> MeromorphicFn:
    return MeromorphicFn(kind="hconst", b=0j, b0=1.0 + 0j)


def inverse_square(c: complex) -> MeromorphicFn:
    c = complex(c)
    if c == 0:
        return constant_one()
    return MeromorphicFn(kind="hinvsq", b=0j, b0=1.0 + 0j, tail=(0j, c))


def laurent_even(*coeffs) -> MeromorphicFn:
    tail = tuple(t for c in coeffs for t in (0j, complex(c)))
    return MeromorphicFn(kind="laurent_even", b=0j, b0=1.0 + 0j, tail=tail)


def make_h_function(spec) -> MeromorphicFn:
    if not isinstance(spec, MeromorphicFn):
        return parse_h_spec(spec)
    if spec.b != 0 or spec.b0 != 1 or any(spec.tail[:1]) or spec.levels:
        raise InvalidSpec(f"{spec.describe()} is not an h = 1 + h2/z^2 + ...")
    return spec


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
        return _finite(complex(text.strip().replace(" ", "")))
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse coefficient {text!r}") from exc


def _finite(value: complex) -> complex:
    if not np.isfinite(value):
        raise InvalidSpec(f"spec coefficients must be finite, got {value}")
    return value


def parse_function_spec(spec: str) -> MeromorphicFn:
    spec = spec.strip()
    levels = []
    while spec.startswith("moebius:"):
        head, sep, rest = spec[len("moebius:") :].partition(":")
        if not sep:
            raise InvalidSpec(f"moebius spec needs :<inner>, got {spec!r}")
        coeffs = head.split(",")
        if len(coeffs) != 4:
            raise InvalidSpec(f"moebius spec needs a,b,c,d, got {head!r}")
        levels.append([_parse_coeff(t) for t in coeffs])
        spec = rest.strip()
    if spec == "identity":
        u = identity()
    elif spec.startswith("joukowski:"):
        u = joukowski(_finite(parse_complex(spec[len("joukowski:") :])))
    elif spec.startswith("laurent:"):
        parts = spec[len("laurent:") :].split(";")
        if len(parts) not in (2, 3):
            raise InvalidSpec(f"laurent spec needs b;b0[;b1,b2,...], got {spec!r}")
        b = _parse_coeff(parts[0])
        b0 = _parse_coeff(parts[1])
        tail = ()
        if len(parts) == 3 and parts[2].strip():
            tail = tuple(_parse_coeff(t) for t in parts[2].split(","))
        u = laurent(b, b0, tail)
    else:
        raise InvalidSpec(f"unknown function spec {spec!r}")
    return replace(u, levels=tuple(_level(*level) for level in levels))


def parse_h_spec(spec: str) -> MeromorphicFn:
    spec = spec.strip()
    if spec == "hconst":
        return constant_one()
    if spec.startswith("hinvsq:"):
        return inverse_square(_finite(parse_complex(spec[len("hinvsq:") :])))
    raise InvalidSpec(f"unknown h spec {spec!r}")


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


# Rounding allowance, in units of the last place, of the Sigma0 test.
SIGMA_CLASS_ULPS = 8


def _expansion_at_infinity(fn):
    """(b, b0) with fn = b z + b0 + O(1/z) at infinity, from the folded
    coefficients (a c != 0 map tends to a/c, so b = 0), and the size of the
    terms b0 sums, through the fold's matrix products too, which bounds its
    rounding."""
    b_u, b0_u, _ = fn.lower_coeffs()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (a, bb), (c, d) = fn._folded
        # Each folded entry sums products of the levels' entries; the same
        # products of their moduli bound the size of those sums' terms.
        bound = np.eye(2)
        for level in fn.levels:
            bound = bound @ np.abs(np.reshape(level, (2, 2)))
        if c:
            b, b0, scale = 0j, a / c, 0.0
        else:
            b, b0 = a * b_u / d, (a * b0_u + bb) / d
            scale = (bound[0, 0] * abs(b0_u) + bound[0, 1]) / abs(d)
    if not (np.isfinite(b) and np.isfinite(b0)):
        raise EvaluationFailure(f"expansion of {fn.describe()} beyond double range")
    return complex(b), complex(b0), float(scale)


def _sigma_class(b, b0, scale) -> str:
    """Sigma when b != 0; Sigma0 when also b = 1 and b0 = 0 up to
    SIGMA_CLASS_ULPS units in the last place of b and of ``scale``."""
    if b == 0:
        return "neither"
    tol = SIGMA_CLASS_ULPS * np.finfo(np.float64).eps
    if abs(b - 1.0) <= tol * abs(b) and abs(b0) <= tol * scale:
        return "Sigma0"
    return "Sigma"


@dataclass(frozen=True)
class SigmaClassReport:
    b: complex
    b0: complex
    classification: str  # 'Sigma0' | 'Sigma' | 'neither'


def validate_sigma_normalization(f: MeromorphicFn) -> SigmaClassReport:
    """The coefficients b and b0 of f = b z + b0 + O(1/z) at infinity, read
    from the folded Laurent and Moebius coefficients, and the class they
    give: f is in Sigma when b != 0 (a Moebius map with c != 0 is bounded
    at infinity), and in Sigma0 when also b = 1 and b0 = 0, each up to the
    rounding of the fold."""
    b, b0, scale = _expansion_at_infinity(f)
    return SigmaClassReport(b=b, b0=b0, classification=_sigma_class(b, b0, scale))


@dataclass(frozen=True)
class HAdmissibilityReport:
    min_re_h: float
    argmin: complex
    max_ratio: float  # max |(1-h)/h| over the samples
    equivalence_ok: bool
    tol: float
    passed: bool


def validate_h_admissible(
    h: MeromorphicFn, plan: SamplingPlan, tol: float = 1e-9
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
# Zeros of f' and poles of f
# ---------------------------------------------------------------------------

# A root within ROOT_BAND of the unit circle counts as in |z| >= 1, where the
# criterion and the chain are sampled: np.roots places a simple root to
# about eps times its condition number, so the side of the circle such a
# root falls on is rounding.
ROOT_BAND = 1e-9


def _derivative_roots(fn):
    """Zeros of fn' and poles of fn. The Moebius levels fold into one
    matrix."""
    b, b0, tail = fn.lower_coeffs()
    # fn' = (ad - bc) u' / (c u + d)^2. In w = 1/z, u' = b (1 - sum k t_k / b
    # w^(k+1)) and c u + d = (c b + (c b0 + d) w + c sum t_k w^(k+1)) / w. Read
    # from the constant term up, these coefficients are polynomials in z with
    # the roots 1/w.
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            c, d = fn._folded[1]
            zeros = np.roots(np.r_[1.0, 0.0, -np.arange(1, tail.size + 1) * tail / b])
            poles = np.roots(np.r_[c * b, c * b0 + d, c * tail]) if c else zeros[:0]
    except np.linalg.LinAlgError as exc:  # coefficients out of double range
        raise EvaluationFailure(f"no roots of {fn.describe()} in double range") from exc
    return zeros, poles


def _bound_excludes_roots(fn) -> bool:
    """True when the coefficients prove that fn' has no zero and fn no pole
    in |z| >= rho = 1 - ROOT_BAND (Marden, Geometry of Polynomials, 1966).
    Where the folded levels have c = 0, fn has no pole and fn' the zeros of
    u' = b - sum k t_k z^-(k+1), which has none in |z| >= rho when sum k
    |t_k| rho^-(k+1) < |b|, a left side that falls as |z| grows. The margin must
    exceed (n + 16) eps times |b| plus the sum, n = len(tail), which covers
    the few roundings of each term and the n of their sum with 13 eps |b| to
    spare; and |b| must be at least the least normal double over that slack,
    so that the spare dwarfs the few 2^-1074 by which each term below the
    normal range rounds. A folded c != 0, a smaller |b| and an overflowing
    or NaN sum are left to the solve: undecided."""
    b, _, tail = fn.lower_coeffs()
    rho, k = 1.0 - ROOT_BAND, np.arange(1, tail.size + 1)
    slack = (tail.size + 16) * np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):
        if fn._folded[1, 0] or not slack * abs(b) >= np.finfo(np.float64).tiny:
            return False
        zeros = k @ (np.abs(tail) * rho**-k) / rho
        return bool(abs(b) - zeros > slack * (abs(b) + zeros))


def exterior_roots(fn) -> tuple:
    """The zeros of fn' and the poles of fn in |z| >= 1 - ROOT_BAND, each
    outermost first (roots of equal modulus in ``np.roots`` order). Both are
    empty, with nothing solved, where ``_bound_excludes_roots`` proves it;
    otherwise ``np.roots`` solves for them (``_derivative_roots``)."""
    if _bound_excludes_roots(fn):
        return np.empty(0, np.complex128), np.empty(0, np.complex128)
    out = []
    for roots in _derivative_roots(fn):
        roots = roots[np.argsort(-np.abs(roots), kind="stable")]
        out.append(roots[np.abs(roots) >= 1.0 - ROOT_BAND])
    return tuple(out)


def root_preconditions(f, g) -> list:
    """For f, and for g when it is not f, the outermost zero of its
    derivative and its outermost pole in |z| >= 1 (``exterior_roots``), each
    as the message of a failed precondition of the theorem."""
    out = []
    for name, fn in [("f", f)] + [("g", g)] * (g != f):
        for roots, what in zip(exterior_roots(fn), (f"{name}' vanishes", f"{name} has a pole")):
            if roots.size:
                more = f" (and {roots.size - 1} more there)" if roots.size > 1 else ""
                out.append(f"{what} at {complex(roots[0])} in |z| >= 1{more}")
    return out
