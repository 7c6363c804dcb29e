"""Catalog of meromorphic functions on the exterior disk and admissible
h-functions, plus the zeros of f' and the poles of f in |z| >= 1, solved
from the coefficients: the theorem's hypotheses on f and g.

f, g and h are one model: a Laurent map u = b z + b0 + b1/z + ... under a
flat tuple of Moebius levels, so every derivative through order four has a
closed form; an h = 1 + h2/z^2 + ... has b = 0 and b0 = 1. A small spec
mini-language maps CLI strings onto the constructors: ``identity``,
``joukowski:<re>[,<im>]``, ``laurent:<b>;<b0>;<b1>,...``,
``moebius:<a>,<b>,<c>,<d>:<inner>``, ``hconst``, ``hinvsq:<c>``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import EvaluationFailure, InvalidSpec
from .jet import stack_div
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

    @property
    def declared_class(self) -> str:
        """'Sigma0', 'Sigma' or 'neither', read from the expansion at
        infinity."""
        return _sigma_class(*_expansion_at_infinity(self))

    def lower_coeffs(self):
        """(b, b0, tail-array) of the Laurent map u under the levels, the
        arguments of the Laurent kernel."""
        return (
            complex(self.b),
            complex(self.b0),
            np.asarray(self.tail, dtype=np.complex128),
        )

    def derivs(
        self, points: np.ndarray, order: int = 4, inv=None, first: int = 0
    ) -> np.ndarray:
        """Rows ``first`` (0, or 1 to leave out the value) through ``order``
        of the stack of value and derivatives at each point (``inv``, if
        given, is 1.0 / points, shared with other functions).

        The levels from the outermost one with c != 0 inwards are one
        quotient over the stack of u, with the folded matrix of ``_fold``, so
        it is finite wherever that part of the map is. Each level with c = 0
        outside it then divides by its constant denominator d: the quotient
        recurrence of stack_div reduces to this division (up to the sign of a
        zero), and an overflowing value row stays in its row. Pole hits
        surface as non-finite entries, for the caller to diagnose."""
        points = np.asarray(points, dtype=np.complex128)
        b, b0, tail = self.lower_coeffs()
        cut = next((i for i, lv in enumerate(self.levels) if lv[2]), len(self.levels))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if cut == len(self.levels):
                stack = _kernels.laurent_derivs(points, b, b0, tail, order, inv, first)
            else:
                (a, bb), (c, d) = _fold(self.levels[cut:])
                u_stack = _kernels.laurent_derivs(points, b, b0, tail, order, inv)
                num = a * u_stack
                num[0] = num[0] + bb
                den = c * u_stack
                den[0] = den[0] + d
                stack = stack_div(num, den)[first:]
            for a, bb, _, d in reversed(self.levels[:cut]):
                stack = a * stack
                if first == 0:
                    stack[0] = stack[0] + bb
                stack = stack / d
        return stack

    def values(self, points: np.ndarray) -> np.ndarray:
        return self.derivs(points, order=0)[0]

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
    (a, bb), (c, d) = _fold(fn.levels)
    b_u, b0_u, _ = fn.lower_coeffs()
    # Each folded entry sums products of the levels' entries; the same
    # products of their moduli bound the size of those sums' terms.
    bound = np.eye(2)
    for level in fn.levels:
        bound = bound @ np.abs(np.reshape(level, (2, 2)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
            c, d = _fold(fn.levels)[1]
            zeros = np.roots(np.r_[1.0, 0.0, -np.arange(1, tail.size + 1) * tail / b])
            poles = np.roots(np.r_[c * b, c * b0 + d, c * tail]) if c else zeros[:0]
    except np.linalg.LinAlgError as exc:  # coefficients out of double range
        raise EvaluationFailure(f"no roots of {fn.describe()} in double range") from exc
    return zeros, poles


def exterior_roots(fn) -> tuple:
    """The zeros of fn' and the poles of fn in |z| >= 1 - ROOT_BAND, each
    outermost first (roots of equal modulus in ``np.roots`` order)."""
    out = []
    for roots in _derivative_roots(fn):
        roots = roots[np.argsort(-np.abs(roots), kind="stable")]
        out.append(roots[np.abs(roots) >= 1.0 - ROOT_BAND])
    return tuple(out)
