"""Truncated Taylor ("jet") arithmetic over the complex numbers.

A :class:`ComplexJet` carries a function value and its first three
derivatives at a point; that is exactly enough to form pre-Schwarzian and
Schwarzian derivatives. Internally the package also manipulates derivative
*stacks*: numpy arrays of shape ``(order+1, ...)`` holding value and
derivatives, so the same recurrences serve scalar jets and whole grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutViolation,
    CriticalPoint,
    DivisionByZeroJet,
    NonFiniteJet,
    OutsideDomain,
)

MAX_COMPONENT = 1e300
CUT_DISTANCE = 1e-12

_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))


# ---------------------------------------------------------------------------
# Stack arithmetic (Leibniz / quotient / exp / log recurrences, any order <= 4)
# ---------------------------------------------------------------------------


def stack_mul(a, b):
    out = [a[0] * b[0]]
    for i in range(1, len(a)):
        s = a[0] * b[i]
        for k in range(1, i + 1):
            s = s + _BINOM[i][k] * (a[k] * b[i - k])
        out.append(s)
    return np.stack(out)


def stack_div(a, b):
    q = [a[0] / b[0]]
    for i in range(1, len(a)):
        s = a[i]
        for k in range(i):
            s = s - _BINOM[i][k] * (q[k] * b[i - k])
        q.append(s / b[0])
    return np.stack(q)


def stack_exp(a):
    g = [np.exp(a[0])]
    for n in range(1, len(a)):
        s = a[1] * g[n - 1]
        for k in range(2, n + 1):
            s = s + _BINOM[n - 1][k - 1] * (a[k] * g[n - k])
        g.append(s)
    return np.stack(g)


def stack_log(a, value=None):
    """Jet of log(a). ``value`` overrides the principal log of ``a[0]`` when a
    continued branch is wanted; derivatives are branch-independent."""
    g = [np.log(a[0]) if value is None else value]
    for n in range(1, len(a)):
        s = a[n]
        for j in range(n - 1):
            s = s - _BINOM[n - 1][j] * (g[j + 1] * a[n - 1 - j])
        g.append(s / a[0])
    return np.stack(g)


def stack_pow(a, exponent):
    return stack_exp(exponent * stack_log(a))


# ---------------------------------------------------------------------------
# Public order-3 jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexJet:
    """Value and first three derivatives of a function at one point."""

    value: complex
    d1: complex
    d2: complex
    d3: complex

    @classmethod
    def identity_at(cls, zeta: complex) -> "ComplexJet":
        return cls(complex(zeta), 1.0 + 0j, 0j, 0j)

    @classmethod
    def constant(cls, c: complex) -> "ComplexJet":
        return cls(complex(c), 0j, 0j, 0j)

    @classmethod
    def from_stack(cls, stack) -> "ComplexJet":
        return cls(
            complex(stack[0]), complex(stack[1]), complex(stack[2]), complex(stack[3])
        )

    def as_stack(self):
        return np.array([self.value, self.d1, self.d2, self.d3], dtype=np.complex128)

    def is_finite(self) -> bool:
        comps = (self.value, self.d1, self.d2, self.d3)
        return all(
            np.isfinite(c.real) and np.isfinite(c.imag) and abs(c) <= MAX_COMPONENT
            for c in comps
        )

    def __add__(self, other):
        return jet_combine("add", self, _as_jet(other))

    def __radd__(self, other):
        return jet_combine("add", _as_jet(other), self)

    def __sub__(self, other):
        return jet_combine("sub", self, _as_jet(other))

    def __rsub__(self, other):
        return jet_combine("sub", _as_jet(other), self)

    def __mul__(self, other):
        return jet_combine("mul", self, _as_jet(other))

    def __rmul__(self, other):
        return jet_combine("mul", _as_jet(other), self)

    def __truediv__(self, other):
        return jet_combine("div", self, _as_jet(other))

    def __rtruediv__(self, other):
        return jet_combine("div", _as_jet(other), self)

    def __pow__(self, exponent):
        return jet_combine("pow", self, exponent)

    def exp(self):
        return jet_combine("exp", self)

    def log(self):
        return jet_combine("log", self)


def _as_jet(x) -> ComplexJet:
    if isinstance(x, ComplexJet):
        return x
    return ComplexJet.constant(x)


def _check_finite(jet: ComplexJet) -> ComplexJet:
    if not jet.is_finite():
        raise NonFiniteJet(f"jet component overflowed: {jet}")
    return jet


def _on_cut(value: complex) -> bool:
    v = complex(value)
    if v == 0:
        return True
    return v.real < 0 and abs(v.imag) < CUT_DISTANCE


def jet_combine(kind: str, a: ComplexJet, b=None) -> ComplexJet:
    """Combine jets by the rules of arithmetic: derivative propagation through
    order 3. ``b`` is a second jet for add/sub/mul/div, a complex exponent for
    pow, and must be omitted for exp/log."""
    sa = a.as_stack()
    with np.errstate(over="ignore", invalid="ignore"):
        if kind in ("add", "sub", "mul", "div"):
            sb = _as_jet(b).as_stack()
            if kind == "add":
                out = sa + sb
            elif kind == "sub":
                out = sa - sb
            elif kind == "mul":
                out = stack_mul(sa, sb)
            else:
                if sb[0] == 0:
                    raise DivisionByZeroJet("jet division by zero value")
                out = stack_div(sa, sb)
        elif kind == "exp":
            if b is not None:
                raise ValueError("exp takes a single jet")
            out = stack_exp(sa)
        elif kind == "log":
            if b is not None:
                raise ValueError("log takes a single jet")
            if _on_cut(sa[0]):
                raise BranchCutViolation(f"log argument {sa[0]} on the principal cut")
            out = stack_log(sa)
        elif kind == "pow":
            if _on_cut(sa[0]):
                raise BranchCutViolation(f"pow base {sa[0]} on the principal cut")
            out = stack_pow(sa, complex(b))
        else:
            raise ValueError(f"unknown jet_combine kind {kind!r}")
    return _check_finite(ComplexJet.from_stack(out))


# ---------------------------------------------------------------------------
# Differential operators on catalog functions
# ---------------------------------------------------------------------------


def _require_exterior(zeta: complex) -> complex:
    zeta = complex(zeta)
    if abs(zeta) <= 1.0:
        raise OutsideDomain(f"|zeta| = {abs(zeta)} <= 1")
    return zeta


def derivatives_of(f, zeta: complex) -> ComplexJet:
    """Jet of a catalog function at a point of the exterior disk."""
    zeta = _require_exterior(zeta)
    return _check_finite(f.jet(zeta))


def pre_schwarzian(f, zeta: complex) -> complex:
    """f''/f' at zeta."""
    jet = derivatives_of(f, zeta)
    if jet.d1 == 0:
        raise CriticalPoint(f"f'({zeta}) = 0")
    return jet.d2 / jet.d1


def schwarzian(f, zeta: complex) -> complex:
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at zeta."""
    jet = derivatives_of(f, zeta)
    if jet.d1 == 0:
        raise CriticalPoint(f"f'({zeta}) = 0")
    ratio = jet.d2 / jet.d1
    return jet.d3 / jet.d1 - 1.5 * ratio * ratio
