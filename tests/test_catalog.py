import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import univalence as uv
from univalence import _kernels
from univalence.catalog import (
    ROOT_BAND,
    SigmaClassReport,
    _derivative_roots,
    exterior_roots,
    parse_complex,
)
from univalence.cli import main
from univalence.criteria import CriterionParams, evaluate_lhs
from univalence.errors import (
    EvaluationFailure,
    InvalidSpec,
)
from univalence.jet import stack_div
from univalence.loewner import ChainSpec

from conftest import exterior_points

coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestConstruction:
    def test_identity_is_sigma0(self):
        f = uv.make_sigma_function("identity")
        assert f.values([2.0])[0] == 2.0
        assert f.declared_class == "Sigma0"

    def test_joukowski_value_and_class(self):
        f = uv.make_sigma_function("joukowski:0.5")
        assert f.values([2.0])[0] == 2.25
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
        assert abs(f.values([2.0])[0] - probe) < 1e-15

    def test_moebius_spec_recurses(self):
        f = uv.parse_function_spec("moebius:0,1,1,0:joukowski:0.5")
        assert abs(f.values([2.0])[0] - 1 / 2.25) < 1e-15

    def test_h_specs(self):
        assert uv.parse_h_spec("hconst").values([2.0])[0] == 1.0
        h = uv.parse_h_spec("hinvsq:0.25")
        assert h.derivs([2.0], 1)[:, 0].tolist() == [1.0625, -0.0625]

    @pytest.mark.parametrize(
        "spec",
        ["joukowski:nan", "joukowski:0.5,inf", "laurent:1;0;1e400", "laurent:nan;0",
         "moebius:1,0,inf,1:identity", "hinvsq:nan"],
    )
    def test_nonfinite_coefficients_rejected(self, spec):
        parse = uv.parse_h_spec if spec.startswith("h") else uv.parse_function_spec
        with pytest.raises(InvalidSpec, match="must be finite"):
            parse(spec)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("laurent:1", "laurent spec needs b;b0[;b1,b2,...], got 'laurent:1'"),
            ("laurent:1;0;1;2", "laurent spec needs b;b0[;b1,b2,...], got 'laurent:1;0;1;2'"),
            ("laurent:1;x", "cannot parse coefficient 'x'"),
            ("laurent:1;0;0.1,,0.2", "cannot parse coefficient ''"),
            ("moebius:1,0,0,1", "moebius spec needs :<inner>, got 'moebius:1,0,0,1'"),
            ("moebius:1,0,0:identity", "moebius spec needs a,b,c,d, got '1,0,0'"),
            ("moebius:1,0,0,1:", "unknown function spec ''"),
            ("moebius:1,0,0,1:moebius:1,0", "moebius spec needs :<inner>, got 'moebius:1,0'"),
            ("joukowski:", "cannot parse complex number from ''"),
        ],
    )
    def test_malformed_spec_message(self, spec, message, capsys):
        with pytest.raises(InvalidSpec) as exc:
            uv.parse_function_spec(spec)
        assert str(exc.value) == message
        assert main(["check", "--f", spec]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: InvalidSpec: {message}\n"

    def test_deep_nest_is_a_flat_tuple(self, rng):
        # 5000 identity levels over z + 0.3/z: nothing walks them by recursion
        base = uv.joukowski(0.3)
        deep = uv.parse_function_spec("moebius:1,0,0,1:" * 5000 + "joukowski:0.3")
        built = base
        for _ in range(5000):
            built = uv.moebius_of(built, 1, 0, 0, 1)
        assert deep == built and hash(deep) == hash(built) and deep != base
        assert deep.describe() == "moebius((1+0j),0j,0j,(1+0j))∘" * 5000 + "joukowski((0.3+0j))"
        pts = exterior_points(rng, 50)
        # multiplying by 1 + 0j may flip the sign of a zero part, nothing else
        assert (deep.derivs(pts) + 0.0).tobytes() == (base.derivs(pts) + 0.0).tobytes()
        assert deep.declared_class == "Sigma0"

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
        assert h.derivs([2.0], 1)[:, 0].tolist() == [1.0625, -0.0625]

    def test_zero_coefficient_collapses_to_constant(self, rng):
        h = uv.inverse_square(0.0)
        assert h == uv.constant_one()

    def test_laurent_even_expansion(self):
        h = uv.laurent_even(0.25, -0.1)
        z = 2.0
        expected = 1 + 0.25 / z**2 - 0.1 / z**4
        assert abs(h.values([z])[0] - expected) < 1e-15

    @pytest.mark.parametrize(
        "fn",
        [
            uv.joukowski(0.3),
            uv.identity(),
            uv.moebius_of(uv.constant_one(), 1, 0, 0, 2),
            uv.MeromorphicFn(kind="laurent_even", b=0j, b0=1 + 0j, tail=(0.1,)),
        ],
    )
    def test_make_h_function_refuses_a_non_h(self, fn):
        with pytest.raises(InvalidSpec, match=r"is not an h = 1 \+ h2/z\^2"):
            uv.make_h_function(fn)

    def test_make_h_function_passes_an_h_through(self):
        for h in (uv.constant_one(), uv.inverse_square(0.3), uv.laurent_even(0.2, 0.1)):
            assert uv.make_h_function(h) is h

    @pytest.mark.parametrize(
        "h",
        [
            uv.constant_one(),
            uv.inverse_square(0.3),
            # a Moebius level does not give its inner map the leading term b z
            # it lacks: 2h is an even map, never univalent
            uv.moebius_of(uv.inverse_square(0.3), 2, 0, 0, 1),
        ],
    )
    def test_make_sigma_function_refuses_an_h(self, h):
        message = f"^{re.escape(h.describe())} has no leading term b z with b != 0$"
        with pytest.raises(InvalidSpec, match=message):
            uv.make_sigma_function(h)
        with pytest.raises(InvalidSpec, match=message):
            CriterionParams(f=h)
        with pytest.raises(InvalidSpec, match=message):
            ChainSpec(f=uv.joukowski(0.3), g=h)

    def test_make_sigma_function_passes_a_wrapped_map_through(self):
        # A Moebius map with c != 0 over a Sigma map is bounded at infinity,
        # class 'neither', and stays a valid f, as the CLI's moebius specs
        # allow.
        f = uv.moebius_of(uv.identity(), 0, 1, 1, 1)
        assert uv.make_sigma_function(f) is f


class TestSigmaValidator:
    def test_identity(self):
        rep = uv.validate_sigma_normalization(uv.identity())
        assert rep.classification == "Sigma0"
        assert rep.b == 1 and rep.b0 == 0

    def test_shifted_laurent_is_sigma_only(self):
        rep = uv.validate_sigma_normalization(uv.laurent(1, 3))
        assert rep.classification == "Sigma"
        assert rep.b0 == 3

    def test_joukowski_is_sigma0(self):
        rep = uv.validate_sigma_normalization(uv.joukowski(0.5))
        assert (rep.b, rep.b0, rep.classification) == (1, 0, "Sigma0")

    def test_moebius_identity_wrap_passes_through(self):
        inner = uv.joukowski(0.4)
        wrapped = uv.moebius_of(inner, 1, 0, 0, 1)
        rep = uv.validate_sigma_normalization(wrapped)
        assert rep.classification == "Sigma0"

    def test_bounded_function_is_neither(self):
        inv = uv.moebius_of(uv.identity(), 0, 1, 1, 0)
        rep = uv.validate_sigma_normalization(inv)
        assert rep.classification == "neither"

    @pytest.mark.parametrize(
        "spec,b,b0,cls",
        [
            ("moebius:1,0,1,-2:identity", 0, 1, "neither"),  # tends to a/c = 1
            ("moebius:2,0.5,0,2:joukowski:0.3", 1, 0.25, "Sigma"),
            ("moebius:2,0,0,4:moebius:2,1,0,1:joukowski:0.3", 1, 0.5, "Sigma"),
            ("moebius:1,-1,0,1:moebius:1,1,0,1:identity", 1, 0, "Sigma0"),
            # each level has c != 0, but the folded matrix is the identity
            ("moebius:1,0,-0.5,1:moebius:1,0,0.5,1:identity", 1, 0, "Sigma0"),
            # b != 0 however small, and b = 1, b0 = 0 up to the fold's
            # rounding only: b = 0.30000000000000004 / 0.3 is one ulp off 1
            ("laurent:1e-7;0", 1e-7, 0, "Sigma"),
            ("laurent:1.0000001;0", 1.0000001, 0, "Sigma"),
            ("laurent:1;1e-7", 1, 1e-7, "Sigma"),
            ("moebius:0.1,0,0,0.3:moebius:3,0,0,1:identity", 1.0000000000000002, 0, "Sigma0"),
            # the fold sums 0.3 - 0.1 - 0.2 to -2.8e-17: rounding of terms
            # 0.6 in size, not a b0 of the identity this nest is
            ("moebius:1,0.3,0,1:moebius:1,-0.1,0,1:moebius:1,-0.2,0,1:identity",
             1, -2.7755575615628914e-17, "Sigma0"),
            ("moebius:1,1e-10,0,1:identity", 1, 1e-10, "Sigma"),
        ],
    )
    def test_class_read_from_folded_coefficients(self, spec, b, b0, cls):
        f = uv.make_sigma_function(spec)
        assert uv.validate_sigma_normalization(f) == SigmaClassReport(b, b0, cls)
        assert f.declared_class == cls

    def test_expansion_beyond_double_range_is_evaluation_failure(self):
        f = uv.moebius_of(uv.laurent(1e200, 0), 1e200, 0, 0, 1)
        with pytest.raises(EvaluationFailure, match="beyond double range"):
            uv.validate_sigma_normalization(f)


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

    def test_admissible_h_ratio_bound(self):
        # The disk bound used at chain time t=0 holds for every admissible h.
        plan = uv.SamplingPlan()
        for c in (0.25, 0.5, 0.3 + 0.2j):
            rep = uv.validate_h_admissible(uv.inverse_square(c), plan)
            if rep.passed:
                assert rep.max_ratio <= 1.0 + 1e-9


class TestDerivativeRoots:
    """The zeros of f' and the poles of f, read from the coefficients."""

    def test_derivative_roots_fold_nested_moebius(self):
        inner = uv.laurent(1.5 - 0.5j, 0.2j, [0.3 - 0.1j, 0.05j, -0.02])
        fn = uv.moebius_of(uv.moebius_of(inner, 2, 1j, 0.5, 3), 1, 0.3, 0.2j, 1)
        zeros, poles = _derivative_roots(fn)
        assert zeros.size == 4 and poles.size == 4
        # fn' vanishes with the inner map's derivative; fn blows up at a pole
        assert np.max(np.abs(inner.derivs(zeros, order=1)[1])) < 1e-12
        assert np.min(np.abs(fn.values(poles * (1.0 + 1e-9)))) > 1e6
        assert _derivative_roots(uv.moebius_of(inner, 2, 1, 0, 1))[1].size == 0

    @pytest.mark.parametrize(
        "spec,zeros,poles",
        [
            pytest.param(spec, zeros, poles, id=spec)
            for spec, zeros, poles in [
                ("joukowski:1.2", [1.0954451150103321] * 2, []),
                ("joukowski:2.0", [1.4142135623730951] * 2, []),
                ("laurent:1;0;0,0,0.9", [1.2819] * 4, []),
                ("moebius:1,0,1,-2:identity", [], [2.0]),
                ("joukowski:0.6", [], []),
                ("joukowski:0.999", [], []),
                ("laurent:1;0;0.2,0.05", [], []),
            ]
        ],
    )
    def test_exterior_roots(self, spec, zeros, poles):
        got = exterior_roots(uv.make_sigma_function(spec))
        for roots, want in zip(got, (zeros, poles)):
            assert np.allclose(np.abs(roots), want, rtol=1e-4)
            assert np.all(np.diff(np.abs(roots)) <= 0)  # outermost first

    def test_root_within_rounding_of_the_circle_counts(self):
        # joukowski:1.0 has f' = 1 - 1/z^2, zero at +-1 on the circle, where
        # np.roots may place a root an ulp or two inside: a root within
        # ROOT_BAND of |z| = 1 counts as in |z| >= 1, one farther in does not
        zeros, _ = exterior_roots(uv.joukowski(1.0))
        assert np.allclose(sorted(zeros.real), [-1.0, 1.0], rtol=0, atol=1e-15)
        assert exterior_roots(uv.joukowski((1.0 - 0.5 * ROOT_BAND) ** 2))[0].size == 2
        assert exterior_roots(uv.joukowski((1.0 - 2.0 * ROOT_BAND) ** 2))[0].size == 0


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


class TestConstantDenominatorMoebius:
    """A Moebius map with c = 0 divides by d; the quotient recurrence over
    the denominator c * inner + d, whose derivative rows are zero, gives the
    same stack, bitwise but for the sign of a zero component (the recurrence
    subtracts signed zero products, and -0.0 - -0.0 is +0.0)."""

    INNERS = {
        "identity": uv.identity(),
        "joukowski": uv.joukowski(0.3 - 0.2j),
        "laurent": uv.laurent(-1.5 + 0.5j, 0.2j, [0.3 - 0.1j, 0.05j, -0.02]),
        "moebius_c0": uv.moebius_of(uv.joukowski(0.4), 1.1, 0.2 + 0.1j, 0, 1),
        "moebius_c": uv.moebius_of(uv.joukowski(0.2), 1, 0, 1, 0.3),
    }

    @staticmethod
    def points(rng):
        # random points, the real axis both ways and |z| -> 1+
        r = 1.0 + np.r_[np.exp(rng.uniform(np.log(1e-15), np.log(10.0), 300)), 2e-16]
        return np.r_[
            r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, r.size)), r, -r, 1j * r
        ].astype(np.complex128)

    @staticmethod
    def quotient(fn, pts, order):
        inner = replace(fn, levels=fn.levels[1:]).derivs(pts, order)
        a, b, c, d = fn.levels[0]
        num, den = a * inner, c * inner
        num[0] += b
        den[0] += d
        return stack_div(num, den)

    @pytest.mark.parametrize("inner", sorted(INNERS))
    @pytest.mark.parametrize(
        "abd", [(1, 0, 1), (1.1, 0.2 + 0.1j, 1), (-2.5, 1j, -1), (-0.9, 0.5, 1j)]
    )
    def test_equal_to_quotient(self, rng, inner, abd):
        a, b, d = abd
        fn = uv.moebius_of(self.INNERS[inner], a, b, 0, d)
        pts = self.points(rng)
        for order in range(5):
            got, want = fn.derivs(pts, order), self.quotient(fn, pts, order)
            assert np.isfinite(got).all()
            # adding 0.0 turns -0.0 into +0.0 and leaves every other bit
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        if d == 1:  # the maps the benchmark scans
            assert got.tobytes() == want.tobytes()

    def test_shared_reciprocal_is_bitwise_neutral(self, rng):
        pts = self.points(rng)
        inv = 1.0 / pts
        for fn in [*self.INNERS.values(), uv.inverse_square(0.2 - 0.1j)]:
            for order in range(5):
                assert fn.derivs(pts, order, inv).tobytes() == fn.derivs(pts, order).tobytes()

    def test_overflowing_value_keeps_finite_derivatives(self):
        # f = 1e300 z + 1/z overflows at |z| = 1e10 but f' and f'' do not;
        # the quotient recurrence spread the inf of row 0 to every row
        inner = uv.laurent(1e300, 0, [1])
        fn = uv.moebius_of(inner, 1, 0, 0, 1)
        pts = np.array([1e10, 1e10j, 2.0], dtype=np.complex128)
        stack = fn.derivs(pts, 3)
        assert not np.isfinite(stack[0, :2]).any() and np.isfinite(stack[1:]).all()
        assert stack[1:].tobytes() == inner.derivs(pts, 3)[1:].tobytes()
        p = CriterionParams(f=fn, criterion="becker")
        assert evaluate_lhs(p, pts).tobytes() == evaluate_lhs(
            CriterionParams(f=inner, criterion="becker"), pts
        ).tobytes()

    @pytest.mark.parametrize(
        "spec,zeta",
        [
            pytest.param("moebius:1,0,1,-2:identity", 2.0, id="moebius:1,0,1,-2:identity"),
            pytest.param(
                "moebius:1,0,1,-2:moebius:0.5,0,0,1:identity",
                4.0,
                id="moebius:1,0,1,-2:moebius:0.5,0,0,1:identity",
            ),
        ],
    )
    def test_jet_at_vanishing_denominator_is_pole(self, spec, zeta):
        # the folded denominator c u + d vanishes: no entry is finite
        assert not np.isfinite(uv.make_sigma_function(spec).derivs([zeta], 3)).any()

    def test_jet_at_inner_pole_is_finite(self):
        # (z - 2)/(2z - 2): the inner map's pole at z = 2 is no pole of the
        # whole map, whose folded denominator 2z - 2 is 2 there
        f = uv.make_sigma_function("moebius:0,1,1,1:moebius:1,0,1,-2:identity")
        stack = f.derivs([2.0], 3)[:, 0]
        assert np.max(np.abs(stack - [0, 0.5, -1, 3])) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        u=st.builds(
            uv.laurent,
            coefficients.filter(bool),
            coefficients,
            st.lists(coefficients, max_size=4),
        ),
        abcd=st.tuples(coefficients, coefficients, st.just(0) | coefficients, coefficients),
        order=st.integers(0, 4),
        first=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_level_is_the_quotient(self, u, abcd, order, first, seed):
        """One level, c = 0 or not: the stack is the quotient over the
        inner stack bitwise, but for the sign of a zero when c = 0."""
        a, b, c, d = abcd
        assume(a * d - b * c != 0 and first <= order)
        fn = uv.moebius_of(u, a, b, c, d)
        pts = exterior_points(np.random.default_rng(seed), 40)
        with np.errstate(all="ignore"):
            want = self.quotient(fn, pts, order)[first:]
        assume(np.isfinite(want).all())
        got = fn.derivs(pts, order, first=first)
        if c:
            assert got.tobytes() == want.tobytes()
        else:
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
