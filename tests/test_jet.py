import mpmath as mp
import numpy as np
import pytest

import univalence as uv
from univalence.criteria import CriterionParams, evaluate_lhs, pieces
from univalence.errors import CriticalPoint, OutsideDomain

from conftest import exterior_points
from test_reference import closed_form_pieces, mp_pieces, rel_error


def stack(*comps):
    return np.array(comps, dtype=np.complex128)


def close(a, b, tol=1e-12):
    return np.max(np.abs(a - b)) <= tol


def order3(f, z):
    """The scaled rows z^j u^(j), j = 0..3, of f's Laurent map u at the
    one point z."""
    return f.derivs((np.array([z], dtype=np.complex128), np.array([1 / z])), 3)[:, 0]


def grid(points):
    z = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    return z, 1.0 / z


def pre_schwarzian(f, points):
    """f''/f' at each point, from z f''/f', the piece Becker's criterion
    reads."""
    z, inv = grid(points)
    return pieces(f, uv.identity(), uv.constant_one(), (z, inv), "becker").pf / z


def schwarzian(f, points):
    """S_f at each point, from z^2 S_f, the piece the Nehari-type criterion
    reads."""
    z, inv = grid(points)
    return pieces(f, uv.identity(), uv.constant_one(), (z, inv), "nehari").sf / (z * z)


class TestDerivativesOf:
    def test_identity_example(self):
        assert order3(uv.identity(), 3 + 4j).tolist() == [3 + 4j, 3 + 4j, 0.0, 0.0]

    def test_joukowski_closed_form(self):
        # z^j f^(j) of f = z + 0.5/z at z = 2, where f' = 0.875, f'' = 0.125
        # and f''' = -0.1875
        assert close(order3(uv.joukowski(0.5), 2.0), stack(2.25, 1.75, 0.5, -1.5))

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
                # S is Moebius-invariant, and the pieces read S_f as S_u,
                # so it is the same bits, near a pole of the composition too
                sf = schwarzian(f, pts)
                sw = schwarzian(uv.moebius_of(f, a, b, c, d), pts)
                assert sw.tobytes() == sf.tobytes()


def test_derivs_match_40_digit_reference(rng):
    # Independent cross-check: the pieces f, z f', z f''/f' and z^2 S_f
    # against the chain-rule derivatives at 40 digits.
    fns = [
        uv.identity(),
        uv.joukowski(0.5),
        uv.laurent(1, 0, [0.5, 0.1]),
        uv.moebius_of(uv.joukowski(0.4), 1, 0.1, 0.05, 1),
    ]
    pts = exterior_points(rng, 40, 1.25, 2.5)
    with mp.workdps(40):
        for f in fns:
            want = [[complex(x) for x in mp_pieces(f, mp.mpc(complex(z)))] for z in pts]
            assert rel_error(closed_form_pieces(f, pts), np.transpose(want)) <= 1e-14, f.describe()
