import numpy as np
import pytest

import univalence as uv
from univalence import _kernels
from univalence.catalog import parse_complex, power_branch_stack
from univalence.errors import InvalidSpec, OutsideDomain

from conftest import exterior_points


class TestConstruction:
    def test_identity_is_sigma0(self):
        f = uv.make_sigma_function("identity")
        assert f.jet(2.0).value == 2.0
        assert f.declared_class == "Sigma0"

    def test_joukowski_value_and_class(self):
        f = uv.make_sigma_function("joukowski:0.5")
        assert f.jet(2.0).value == 2.25
        assert f.declared_class == "Sigma0"

    def test_laurent_equals_joukowski_pointwise(self, rng):
        a = uv.laurent(1, 0, [0.5])
        b = uv.joukowski(0.5)
        pts = exterior_points(rng, 50)
        assert np.array_equal(a.values(pts), b.values(pts))

    def test_laurent_classification(self):
        assert uv.laurent(1, 0, [1.0]).declared_class == "Sigma0"
        assert uv.laurent(1, 3).declared_class == "Sigma"
        assert uv.laurent(2, 0).declared_class == "Sigma"

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            uv.laurent(0, 1)
        with pytest.raises(InvalidSpec):
            uv.moebius_of(uv.identity(), 1, 2, 1, 2)
        with pytest.raises(InvalidSpec):
            uv.parse_function_spec("exp:1")
        with pytest.raises(InvalidSpec):
            uv.parse_h_spec("h:1")


class TestMiniLanguage:
    @pytest.mark.parametrize(
        "spec,probe",
        [
            ("identity", 2.0),
            ("joukowski:0.5", 2.25),
            ("joukowski:0.5,0.25", 2.25 + 0.125j),
            ("laurent:1;0;0.5,0.1", 2.275),
            ("laurent:2;1+1j;0.3", 5.15 + 1j),
        ],
    )
    def test_function_specs_evaluate(self, spec, probe):
        f = uv.parse_function_spec(spec)
        assert abs(f.jet(2.0).value - probe) < 1e-15

    def test_moebius_spec_recurses(self):
        f = uv.parse_function_spec("moebius:0,1,1,0:joukowski:0.5")
        assert abs(f.jet(2.0).value - 1 / 2.25) < 1e-15

    def test_h_specs(self):
        assert uv.parse_h_spec("hconst").jet(2.0).value == 1.0
        h = uv.parse_h_spec("hinvsq:0.25")
        assert h.jet(2.0).value == 1.0625
        assert h.jet(2.0).d1 == -0.0625

    def test_complex_flag_syntax(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("0.5,0.25") == 0.5 + 0.25j
        with pytest.raises(InvalidSpec):
            parse_complex("1;2")


class TestHFunctions:
    def test_constant_one(self, rng):
        h = uv.constant_one()
        pts = exterior_points(rng, 20)
        assert np.all(h.values(pts) == 1.0)
        assert np.all(h.derivs(pts)[1] == 0.0)

    def test_inverse_square_derivative(self):
        h = uv.inverse_square(0.25)
        jet = h.jet(2.0)
        assert jet.value == 1.0625
        assert jet.d1 == -0.0625

    def test_zero_coefficient_collapses_to_constant(self, rng):
        h = uv.inverse_square(0.0)
        assert h == uv.constant_one()

    def test_laurent_even_expansion(self):
        h = uv.laurent_even(0.25, -0.1)
        z = 2.0
        expected = 1 + 0.25 / z**2 - 0.1 / z**4
        assert abs(h.jet(z).value - expected) < 1e-15


class TestSigmaValidator:
    def test_identity(self):
        rep = uv.validate_sigma_normalization(uv.identity(), uv.SamplingPlan())
        assert rep.classification == "Sigma0"
        assert abs(rep.b_estimate - 1) < 1e-12 and abs(rep.b0_estimate) < 1e-12

    def test_shifted_laurent_is_sigma_only(self):
        rep = uv.validate_sigma_normalization(uv.laurent(1, 3), uv.SamplingPlan())
        assert rep.classification == "Sigma"
        assert abs(rep.b0_estimate - 3) < 1e-9

    def test_joukowski_residuals_at_large_radius(self):
        plan = uv.SamplingPlan(r_max=1e4)
        rep = uv.validate_sigma_normalization(uv.joukowski(0.5), plan)
        assert rep.classification == "Sigma0"
        assert rep.residual_b <= 1e-8 and rep.residual_b0 <= 1e-8

    def test_moebius_identity_wrap_passes_through(self):
        inner = uv.joukowski(0.4)
        wrapped = uv.moebius_of(inner, 1, 0, 0, 1)
        rep = uv.validate_sigma_normalization(wrapped, uv.SamplingPlan())
        assert rep.classification == "Sigma0"

    def test_bounded_function_is_neither(self):
        inv = uv.moebius_of(uv.identity(), 0, 1, 1, 0)
        rep = uv.validate_sigma_normalization(inv, uv.SamplingPlan())
        assert rep.classification == "neither"


class TestHAdmissibility:
    def test_constant_one_passes(self):
        rep = uv.validate_h_admissible(uv.constant_one(), uv.SamplingPlan())
        assert rep.passed and rep.min_re_h == 1.0 and rep.max_ratio == 0.0

    def test_half_coefficient_passes_near_boundary(self):
        rep = uv.validate_h_admissible(uv.inverse_square(0.5), uv.SamplingPlan())
        assert rep.passed
        assert rep.min_re_h >= 0.5 - 1e-6
        assert rep.max_ratio <= 1.0 + 1e-9

    def test_too_large_coefficient_fails(self):
        rep = uv.validate_h_admissible(uv.inverse_square(0.6), uv.SamplingPlan())
        assert not rep.passed
        assert rep.min_re_h < 0.5

    def test_equivalence_of_conditions(self):
        # |(1-h)/h| <= 1 and Re h >= 1/2 must agree pointwise.
        for c in (0.3, 0.5 + 0.2j, 0.8, 1.2):
            rep = uv.validate_h_admissible(uv.inverse_square(c), uv.SamplingPlan())
            assert rep.equivalence_ok


class TestPowerBranch:
    def test_equal_functions_give_unit_jet(self):
        v = uv.power_branch(uv.joukowski(0.5), uv.joukowski(0.5), 0.7 + 0.1j, 2.0)
        assert v.as_stack().tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_zero_alpha_gives_unit_jet(self):
        v = uv.power_branch(uv.joukowski(0.5), uv.joukowski(1.2), 0.0, 2.0)
        assert v.value == 1.0 and v.d1 == 0.0

    def test_sqrt_example(self):
        v = uv.power_branch(uv.joukowski(0.5), uv.joukowski(1.2), 0.5, 2.0)
        assert abs(v.value - np.sqrt(0.8)) < 1e-12

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            uv.power_branch(uv.identity(), uv.joukowski(0.5), 0.5, 0.9)

    def test_reciprocity(self, rng):
        f, g = uv.joukowski(0.5), uv.laurent(1, 0, [0.2, 0.1])
        pts = exterior_points(rng, 30, 1.05, 20.0)
        fw = power_branch_stack(f, g, 0.35 + 0.2j, pts)[0]
        bw = power_branch_stack(g, f, 0.35 + 0.2j, pts)[0]
        assert np.max(np.abs(fw * bw - 1.0)) <= 1e-10

    def test_alpha_one_equals_jet_quotient(self, rng):
        f, g = uv.joukowski(0.5), uv.joukowski(1.2)
        for z in exterior_points(rng, 10, 1.3, 8.0):
            v = uv.power_branch(f, g, 1.0, z)
            fd = f.derivs(np.array([z]))[:, 0]
            gd = g.derivs(np.array([z]))[:, 0]
            fprime = uv.ComplexJet(fd[1], fd[2], fd[3], fd[4])
            gprime = uv.ComplexJet(gd[1], gd[2], gd[3], gd[4])
            quotient = uv.jet_combine("div", gprime, fprime)
            assert np.max(np.abs(v.as_stack() - quotient.as_stack())) <= 1e-12

    def test_branch_continuity_against_principal_log(self):
        # For a ratio that stays near 1, ray continuation must agree with the
        # principal branch.
        f, g = uv.joukowski(0.1), uv.joukowski(0.3)
        z = 1.5 * np.exp(1.1j)
        v = uv.power_branch(f, g, 0.5, z)
        fd1 = f.jet(z).d1
        gd1 = g.jet(z).d1
        assert abs(v.value - np.exp(0.5 * np.log(gd1 / fd1))) < 1e-12

    def test_admissible_h_ratio_bound(self):
        # The disk bound used at chain time t=0 holds for every admissible h.
        plan = uv.SamplingPlan()
        for c in (0.25, 0.5, 0.3 + 0.2j):
            rep = uv.validate_h_admissible(uv.inverse_square(c), plan)
            if rep.passed:
                assert rep.max_ratio <= 1.0 + 1e-9


class TestDerivativeOrders:
    """A lower-order stack is bitwise the leading rows of the order-4 one."""

    @pytest.mark.parametrize("tail", [(), (0.3 - 0.1j, 0.05j, -0.02, 0.01 + 0.01j)])
    def test_laurent_kernel(self, rng, tail):
        pts = exterior_points(rng, 200)
        tail = np.asarray(tail, dtype=np.complex128)
        full = _kernels.laurent_derivs(pts, 1.5 - 0.5j, 0.2j, tail)
        assert full.shape == (5, 200)
        for k in range(5):
            stack = _kernels.laurent_derivs(pts, 1.5 - 0.5j, 0.2j, tail, order=k)
            assert stack.tobytes() == full[: k + 1].tobytes()

    def test_moebius_composition(self, rng):
        f = uv.moebius_of(uv.laurent(1, 0.1, [0.3, 0.05j]), 2, 1j, 0.5, 30)
        pts = exterior_points(rng, 200)
        full = f.derivs(pts)
        for k in range(5):
            assert f.derivs(pts, order=k).tobytes() == full[: k + 1].tobytes()
