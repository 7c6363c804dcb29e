from math import comb

import mpmath as mp
import numpy as np
import pytest

import univalence as uv
from univalence.criteria import CriterionParams, evaluate_lhs, pieces
from univalence.errors import CriticalPoint, OutsideDomain
from univalence.catalog import _stack_div

from conftest import exterior_points
from test_reference import mp_derivs, rel_error


def stack(*comps):
    return np.array(comps, dtype=np.complex128)


def close(a, b, tol=1e-12):
    return np.max(np.abs(a - b)) <= tol


def leibniz(a, b):
    """Stack of the product a b by the Leibniz rule: the reference that
    checks the quotient recurrence of catalog._stack_div."""
    return stack(
        *(sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a)))
    )


def order3(f, z):
    """Value and first three derivatives of f at the one point z."""
    return f.derivs(np.array([z], dtype=np.complex128), 3)[:, 0]


def pre_schwarzian(f, points):
    """f''/f' at each point (the piece Becker's criterion reads)."""
    return pieces(f, uv.identity(), uv.constant_one(), np.atleast_1d(points), "becker").pf


def schwarzian(f, points):
    """S_f at each point (the piece the Nehari-type criterion reads)."""
    return pieces(f, uv.identity(), uv.constant_one(), np.atleast_1d(points), "nehari").sf


class TestCombineRules:
    def test_div_then_mul_roundtrip(self):
        a = stack(2.0 + 1j, -0.5, 0.25j, 1.0)
        b = stack(-1.0 + 2j, 1.5, -0.5, 0.125j)
        assert close(leibniz(_stack_div(a, b), b), a, 1e-13)

    def test_division_by_zero_value(self):
        # no row of a quotient by a zero value is finite, so the criterion
        # diagnoses the point
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _stack_div(stack(1, 0, 0, 0), stack(0, 1, 0, 0))
        assert not np.isfinite(out).any()


class TestDerivativesOf:
    def test_identity_example(self):
        assert order3(uv.identity(), 3 + 4j).tolist() == [3 + 4j, 1.0, 0.0, 0.0]

    def test_joukowski_closed_form(self):
        assert close(order3(uv.joukowski(0.5), 2.0), stack(2.25, 0.875, 0.125, -0.1875))

    def test_laurent_matches_joukowski(self):
        a = order3(uv.laurent(1, 0, [0.5]), 2.0)
        assert a.tobytes() == order3(uv.joukowski(0.5), 2.0).tobytes()

    def test_outside_domain(self):
        p = CriterionParams(f=uv.identity(), criterion="becker")
        for z in (0.5, np.exp(0.3j)):
            with pytest.raises(OutsideDomain):
                evaluate_lhs(p, [z])


class TestSchwarzian:
    def test_pre_schwarzian_values(self):
        assert pre_schwarzian(uv.identity(), 1.7 + 0.2j)[0] == 0
        assert abs(pre_schwarzian(uv.joukowski(0.5), 2.0)[0] - 1 / 7) < 1e-15
        inv = uv.moebius_of(uv.identity(), 0, 1, 1, 0)
        assert abs(pre_schwarzian(inv, 2.0)[0] - (-1.0)) < 1e-14

    def test_schwarzian_value(self):
        assert abs(schwarzian(uv.joukowski(0.5), 2.0)[0] - (-12 / 49)) < 1e-15

    def test_schwarzian_vanishes_on_moebius_maps(self, rng):
        inv = uv.moebius_of(uv.identity(), 0, 1, 1, 0)
        pts = exterior_points(rng, 25)
        assert np.max(np.abs(schwarzian(uv.identity(), pts))) <= 1e-12
        assert np.max(np.abs(schwarzian(inv, pts))) <= 1e-12

    def test_critical_point_raises(self):
        # f = z + 4/z has f'(2) = 0.
        for criterion in ("becker", "nehari"):
            p = CriterionParams(f=uv.joukowski(4.0), criterion=criterion)
            with pytest.raises(CriticalPoint):
                evaluate_lhs(p, [2.0])

    def test_moebius_invariance(self, rng):
        fns = [uv.joukowski(0.5), uv.laurent(1, 0.3, [0.2, 0.1])]
        pts = exterior_points(rng, 10, 1.2, 5.0)
        for _ in range(40):
            a, b, c, d = (complex(*rng.uniform(-2, 2, 2)) for _ in range(4))
            if abs(a * d - b * c) < 0.1:
                continue
            for f in fns:
                # stay away from poles of the composition
                z = pts[np.abs(c * f.values(pts) + d) >= 0.2]
                sf = schwarzian(f, z)
                sw = schwarzian(uv.moebius_of(f, a, b, c, d), z)
                assert np.all(np.abs(sw - sf) <= 1e-9 * (1 + np.abs(sf)))


def test_derivs_match_40_digit_reference(rng):
    # Independent cross-check: rows 0-3 against the chain-rule derivatives
    # at 40 digits.
    fns = [
        uv.identity(),
        uv.joukowski(0.5),
        uv.laurent(1, 0, [0.5, 0.1]),
        uv.moebius_of(uv.joukowski(0.4), 1, 0.1, 0.05, 1),
    ]
    pts = exterior_points(rng, 40, 1.25, 2.5)
    with mp.workdps(40):
        for f in fns:
            want = [[complex(x) for x in mp_derivs(f, mp.mpc(complex(z)))] for z in pts]
            assert rel_error(f.derivs(pts, 3), np.transpose(want)) <= 1e-14, f.describe()
