import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import univalence as uv
from univalence import _kernels, catalog
from univalence.catalog import (
    ROOT_BAND,
    SigmaClassReport,
    _bound_excludes_roots,
    _derivative_roots,
    exterior_roots,
    parse_complex,
)
from univalence.cli import main
from univalence.criteria import CriterionParams
from univalence.errors import (
    EvaluationFailure,
    InvalidSpec,
)
from univalence.loewner import ChainSpec

from conftest import exterior_points

coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestConstruction:
    def test_identity_is_sigma0(self):
        f = uv.make_sigma_function("identity")
        assert f.values([2.0])[0] == 2.0
        assert uv.validate_sigma_normalization(f).classification == "Sigma0"

    def test_joukowski_value_and_class(self):
        f = uv.make_sigma_function("joukowski:0.5")
        assert f.values([2.0])[0] == 2.25
        assert uv.validate_sigma_normalization(f).classification == "Sigma0"

    def test_laurent_equals_joukowski_pointwise(self, rng):
        a = uv.laurent(1, 0, [0.5])
        b = uv.joukowski(0.5)
        pts = exterior_points(rng, 50)
        assert np.array_equal(a.values(pts), b.values(pts))

    def test_laurent_classification(self):
        assert uv.validate_sigma_normalization(uv.laurent(1, 0, [1.0])).classification == "Sigma0"
        assert uv.validate_sigma_normalization(uv.laurent(1, 3)).classification == "Sigma"
        assert uv.validate_sigma_normalization(uv.laurent(2, 0)).classification == "Sigma"

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
        # h and z h' at z = 2
        assert h.derivs((np.array([2.0]), np.array([0.5])), 1)[:, 0].tolist() == [1.0625, -0.125]

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
        # the levels fold to the identity matrix: the same bits as the base
        grid = (pts, 1.0 / pts)
        assert np.array(deep.pieces(grid, 3, 0)).tobytes() == np.array(base.pieces(grid, 3, 0)).tobytes()
        assert deep.values(pts).tobytes() == base.values(pts).tobytes()
        assert uv.validate_sigma_normalization(deep).classification == "Sigma0"

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
        assert np.all(h.derivs((pts, 1.0 / pts))[1] == 0.0)

    def test_inverse_square_derivative(self):
        h = uv.inverse_square(0.25)
        assert h.derivs((np.array([2.0]), np.array([0.5])), 1)[:, 0].tolist() == [1.0625, -0.125]

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

    def test_expansion_beyond_double_range_is_evaluation_failure(self):
        f = uv.moebius_of(uv.laurent(1e200, 0), 1e200, 0, 0, 1)
        with pytest.raises(EvaluationFailure, match="beyond double range"):
            uv.validate_sigma_normalization(f)

    def test_overflowing_fold_warns_of_nothing(self):
        # the fold's d overflows to inf + nan i while c = 1: the map still
        # tends to a / c at infinity, so it is read as bounded, silently
        f = uv.make_sigma_function(
            "moebius:1e-300,0,1e-300,1e300:moebius:1e-300,1e-300,1e-300,1e300:identity"
        )
        assert uv.validate_sigma_normalization(f) == SigmaClassReport(0, 0, "neither")


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


# spec: the moduli of the zeros of f' and of the poles of f in |z| >= 1
EXTERIOR_ROOT_SPECS = {
    "joukowski:1.2": ([1.0954451150103321] * 2, []),
    "joukowski:2.0": ([1.4142135623730951] * 2, []),
    "laurent:1;0;0,0,0.9": ([1.2819] * 4, []),
    "moebius:1,0,1,-2:identity": ([], [2.0]),
    "joukowski:0.6": ([], []),
    "joukowski:0.999": ([], []),
    "laurent:1;0;0.2,0.05": ([], []),
}


class TestDerivativeRoots:
    """The zeros of f' and the poles of f, read from the coefficients."""

    def test_derivative_roots_fold_nested_moebius(self):
        inner = uv.laurent(1.5 - 0.5j, 0.2j, [0.3 - 0.1j, 0.05j, -0.02])
        fn = uv.moebius_of(uv.moebius_of(inner, 2, 1j, 0.5, 3), 1, 0.3, 0.2j, 1)
        zeros, poles = _derivative_roots(fn)
        assert zeros.size == 4 and poles.size == 4
        # fn' vanishes with the inner map's derivative; fn blows up at a pole
        assert np.max(np.abs(inner.derivs((zeros, 1.0 / zeros), order=1)[1])) < 1e-12
        assert np.min(np.abs(fn.values(poles * (1.0 + 1e-9)))) > 1e6
        assert _derivative_roots(uv.moebius_of(inner, 2, 1, 0, 1))[1].size == 0

    @pytest.mark.parametrize(
        "spec,zeros,poles",
        [
            pytest.param(spec, zeros, poles, id=spec)
            for spec, (zeros, poles) in EXTERIOR_ROOT_SPECS.items()
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


RHO = 1.0 - ROOT_BAND


def _roots_inside(fn) -> bool:
    """Whether every zero of u' lies in |z| < 1 - ROOT_BAND, by 40-digit
    roots with their error bound (exact products of the doubles)."""
    b, tail = mp.mpc(fn.b), [mp.mpc(t) for t in fn.tail]
    with mp.workdps(40):
        poly = [b, 0, *(-k * t for k, t in enumerate(tail, 1))]  # z^(n+1) u'
        roots, err = mp.polyroots(poly, maxsteps=200, extraprec=60, error=True)
        return max(abs(r) for r in roots) + err < RHO


@st.composite
def bounded_maps(draw):
    """A Laurent map with a 1-8 term tail of complex phases whose zero bound
    sum k |t_k| rho^-(k+1) is 0.9-1.1 times |b|, scaled by 2^s: s = 0, or s
    from the least subnormal up, so that |b| may fall below the normal range
    and the t_k into it or under it."""
    n = draw(st.integers(1, 8))
    unit = st.floats(0.0, 2.0 * np.pi)
    moduli = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    tail = moduli * np.exp(1j * np.array(draw(st.lists(unit, min_size=n, max_size=n))))
    b = draw(st.floats(0.5, 2.0)) * np.exp(1j * draw(unit))
    k = np.arange(1, n + 1)
    tail *= draw(st.floats(0.9, 1.1)) * abs(b) / (k @ (moduli * RHO ** -(k + 1.0)))
    scale = 2.0 ** draw(st.just(0) | st.integers(-1074, -940) | st.integers(-1074, 1000))
    assume(b * scale != 0)
    return uv.laurent(b * scale, draw(coefficients), tail * scale)


class TestRootBound:
    """``exterior_roots`` rules the roots out by a bound on the coefficients
    before it solves for them: where the bound decides, every root lies
    inside |z| < 1 - ROOT_BAND, and the result is the solve's."""

    @settings(max_examples=150, deadline=None)
    @given(fn=bounded_maps())
    def test_bound_is_sound(self, fn):
        assert not _bound_excludes_roots(fn) or _roots_inside(fn)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bound_is_sound_at_a_tie(self, n):
        # one-term tails around the tie n |t| = |b| rho^(n+1), a few ulps
        # apart: the computed bound rounds to either side of |b| there, so
        # only its slack keeps it from ruling out a root at |z| >= rho
        for b in (0.7 * np.exp(0.4j), 1.3 * np.exp(0.4j)):
            with mp.workdps(40):
                tie = float(abs(mp.mpc(b)) * mp.mpf(RHO) ** (n + 1) / n)
            for phase in (0.0, 0.3, 1.0, 2.5):
                for j in range(-2, 3):
                    t = (tie + j * np.spacing(tie)) * np.exp(1j * phase)
                    fn = uv.laurent(b, 0, [0] * (n - 1) + [t])
                    assert not _bound_excludes_roots(fn) or _roots_inside(fn), (b, phase, j)

    @pytest.mark.parametrize(
        "fn",
        [pytest.param(uv.joukowski(c), id=f"joukowski:{c!r}") for c in np.linspace(0.0, 1.5, 31)]
        + [
            pytest.param(uv.joukowski((1.0 + s * k * ROOT_BAND) ** 2), id=f"joukowski:(1{s:+}*{k}*band)^2")
            for s in (-1, 1)
            for k in (0.5, 2.0)
        ]
        + [
            pytest.param(uv.laurent(1, 0, [0] * (n - 1) + [-kappa / n]), id=f"z-({kappa}/{n})z^-{n}")
            for n in (4, 8, 16, 32, 63)
            for kappa in (0.5, 1.0, 1.5)
        ]
        + [pytest.param(uv.make_sigma_function(spec), id=spec) for spec in EXTERIOR_ROOT_SPECS],
    )
    def test_bound_agrees_with_the_solve(self, fn, monkeypatch):
        got = exterior_roots(fn)
        monkeypatch.setattr(catalog, "_bound_excludes_roots", lambda fn: False)
        for roots, want in zip(got, exterior_roots(fn), strict=True):
            assert np.array_equal(roots, want)

    def test_bound_decides_the_maps_that_are_clear_of_the_circle(self):
        # z - (0.5/n) z^-n: f' vanishes at |z| = 0.5^(1/(n+1)) <= 0.99;
        # joukowski((1 - k ROOT_BAND)^2): at |z| = 1 - k ROOT_BAND, inside
        # rho for k = 2, in the band for k = 0.5
        for n in (4, 8, 16, 32, 63):
            assert _bound_excludes_roots(uv.laurent(1, 0, [0] * (n - 1) + [-0.5 / n]))
        assert _bound_excludes_roots(uv.joukowski((1.0 - 2.0 * ROOT_BAND) ** 2))
        assert not _bound_excludes_roots(uv.joukowski((1.0 - 0.5 * ROOT_BAND) ** 2))
        # a folded level with c != 0 is left to the solve: 1/(u - 2) has a
        # pole at 2, and 1/(u + 0.5), u = z + (0.1+0.2i)/z, none (u = -0.5
        # at |z| = 0.47), though the zeros of u' are at |z| = 0.47 too
        assert not _bound_excludes_roots(uv.make_sigma_function("moebius:1,0,1,-2:identity"))
        assert not _bound_excludes_roots(uv.make_sigma_function("moebius:1,0,1,0.5:joukowski:0.1,0.2"))
        assert _bound_excludes_roots(uv.make_sigma_function("moebius:2,0,0,1:joukowski:0.1,0.2"))

    def test_overflowing_bound_is_undecided(self):
        # |t| rho^-k overflows: the bound decides nothing, warns of nothing
        # (filterwarnings makes a RuntimeWarning an error), and the solve
        # refuses the coefficients as out of double range
        fn = uv.make_sigma_function("laurent:1;0;0,1e308")
        assert not _bound_excludes_roots(fn)
        with pytest.raises(EvaluationFailure, match="double range"):
            exterior_roots(fn)
        assert not _bound_excludes_roots(replace(fn, tail=(np.nan,)))

    @pytest.mark.parametrize(
        "spec",
        [
            # b = 5(1+i) and each t_k = 1+i in units of 2^-1074: u' has a zero
            # near z = 1.05, but |b| and the |t_k| round to 7 and 1 units,
            # so an unguarded bound reads 6 < 7 with a slack that underflows
            "laurent:2.5e-323+2.5e-323j;0;5e-324+5e-324j,5e-324+5e-324j,5e-324+5e-324j",
            # u' vanishes at |z| = 0.1 only, but |b| is below the normal range
            "laurent:1e-310;0;1e-312",
        ],
    )
    def test_subnormal_leading_coefficient_is_undecided(self, spec):
        # the absolute rounding of subnormal moduli exceeds any relative
        # slack of |b|: the bound decides nothing, and the solve refuses
        # the coefficients (tail / b overflows) as out of double range
        fn = uv.make_sigma_function(spec)
        assert not _bound_excludes_roots(fn)
        with pytest.raises(EvaluationFailure, match="double range"):
            exterior_roots(fn)

    def test_overflowing_fold_is_undecided(self):
        # the folded matrix's d overflows to inf + nan i: undecided, silent
        fn = uv.make_sigma_function(
            "moebius:1e-300,0,1e-300,1e300:moebius:1e-300,1e-300,1e-300,1e300:identity"
        )
        assert not _bound_excludes_roots(fn)
        with pytest.raises(EvaluationFailure, match="double range"):
            exterior_roots(fn)


class TestDerivativeOrders:
    """A lower-order stack is bitwise the leading rows of the order-4 one,
    and a lower-order piece the same piece of the order-3 call."""

    @pytest.mark.parametrize("tail", [(), (0.3 - 0.1j, 0.05j, -0.02, 0.01 + 0.01j)])
    def test_laurent_kernel(self, rng, tail):
        pts = exterior_points(rng, 200)
        tail = np.asarray(tail, dtype=np.complex128)
        full = _kernels.laurent_derivs_scaled(pts, 1.0 / pts, 1.5 - 0.5j, 0.2j, tail)
        assert full.shape == (5, 200)
        for k in range(5):
            stack = _kernels.laurent_derivs_scaled(pts, 1.0 / pts, 1.5 - 0.5j, 0.2j, tail, order=k)
            assert stack.tobytes() == full[: k + 1].tobytes()

    def test_moebius_composition(self, rng):
        f = uv.moebius_of(uv.laurent(1, 0.1, [0.3, 0.05j]), 2, 1j, 0.5, 30)
        pts = exterior_points(rng, 200)
        grid = (pts, 1.0 / pts)
        full = f.pieces(grid, 3, 0)
        for k in (1, 2):
            for got, want in zip(f.pieces(grid, k, 0)[: k + 1], full):
                assert got.tobytes() == want.tobytes()
        assert f.pieces(grid, 3)[0] is None


class TestClosedFormPieces:
    """The pieces of M o u read u's scaled rows: for a level with c = 0,
    z f''/f' and z^2 S_f are u's and z f' is a/d times u's; for c != 0,
    z^2 S_f is u's, bitwise, since the Schwarzian is Moebius-invariant."""

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
    def laurent_map(fn):
        return replace(fn, levels=())

    @pytest.mark.parametrize("inner", sorted(INNERS))
    @pytest.mark.parametrize(
        "abd", [(1, 0, 1), (1.1, 0.2 + 0.1j, 1), (-2.5, 1j, -1), (-0.9, 0.5, 1j)]
    )
    def test_constant_denominator_keeps_the_ratios(self, rng, inner, abd):
        a, b, d = abd
        fn = uv.moebius_of(self.INNERS[inner], a, b, 0, d)
        pts = self.points(rng)
        grid = (pts, 1.0 / pts)
        for order in (1, 2, 3):
            _, f1, pf, sf = fn.pieces(grid, order)
            inner_pieces = self.INNERS[inner].pieces(grid, order)
            assert np.isfinite(f1).all()
            if not self.INNERS[inner].levels:
                k = np.complex128(a) / np.complex128(d)
                assert f1.tobytes() == (inner_pieces[1] if k == 1 else k * inner_pieces[1]).tobytes()
            if order > 1 and not any(lv[2] for lv in self.INNERS[inner].levels):
                assert pf.tobytes() == inner_pieces[2].tobytes()
            if order > 2:
                assert sf.tobytes() == self.laurent_map(fn).pieces(grid, 3)[3].tobytes()

    @pytest.mark.parametrize("inner", sorted(INNERS))
    @pytest.mark.parametrize("abcd", [(1, 0, 0, 1), (1.1, 0.2 + 0.1j, 0, 1), (1, 0.1j, 0.03 + 0.04j, 1)])
    def test_first_leaves_out_the_pieces_before_it(self, rng, inner, abcd):
        # pieces from ``first`` on are bitwise those of the full call, and
        # the ones before it are None: z f' is built only where it is read
        fn = uv.moebius_of(self.INNERS[inner], *abcd)
        pts = self.points(rng)
        grid = (pts, 1.0 / pts)
        for order in (2, 3):
            full = fn.pieces(grid, order, 0)
            for first in (1, 2):
                got = fn.pieces(grid, order, first)
                assert got[:first] == (None,) * first
                for piece, want in zip(got[first:], full[first:]):
                    assert (piece is want is None) or piece.tobytes() == want.tobytes()

    def test_shared_reciprocal_is_bitwise_neutral(self, rng):
        # values, at z and 1.0 / z, is the value piece and reads the value
        # row of the kernel's full stack
        pts = self.points(rng)
        grid = (pts, 1.0 / pts)
        for fn in [*self.INNERS.values(), uv.inverse_square(0.2 - 0.1j)]:
            values = fn.values(pts)
            assert values.tobytes() == fn.pieces(grid, 3, 0)[0].tobytes()
            if not fn.levels:
                assert values.tobytes() == fn.derivs(grid)[0].tobytes()

    def test_overflowing_value_keeps_finite_derivatives(self):
        # u = z + 1.5e308 + 1/z overflows at z = 1e308, but its scaled
        # rows 1-3 do not; a level with c = 0 reads no value row for
        # the pieces, so they stay finite and are u's
        inner = uv.laurent(1, 1.5e308, [1])
        fn = uv.moebius_of(inner, 1, 0.5, 0, 1)
        pts = np.array([1e308, 2.0], dtype=np.complex128)
        grid = (pts, 1.0 / pts)
        f0, *rest = fn.pieces(grid, 3, 0)
        assert not np.isfinite(f0[0]) and np.isfinite(f0[1])
        assert np.isfinite(rest).all()
        assert np.array(rest).tobytes() == np.array(inner.pieces(grid, 3)[1:]).tobytes()

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
    def test_pieces_at_vanishing_denominator_are_a_pole(self, spec, zeta):
        # the folded denominator c u + d vanishes: f, z f' and z f''/f' are
        # not finite, while z^2 S_f = z^2 S_u = 0 (u is z)
        f0, f1, pf, sf = uv.make_sigma_function(spec).pieces((np.array([zeta]), np.array([1 / zeta])), 3, 0)
        assert not np.isfinite(np.array([f0, f1, pf])).any()
        assert sf.tolist() == [0]

    def test_pieces_at_inner_pole_are_finite(self):
        # (z - 2)/(2z - 2): the inner map's pole at z = 2 is no pole of the
        # whole map, whose folded denominator 2z - 2 is 2 there: f = 0,
        # f' = 0.5 and f'' = -1 at z = 2, and S_f = 0
        f = uv.make_sigma_function("moebius:0,1,1,1:moebius:1,0,1,-2:identity")
        got = np.array(f.pieces((np.array([2.0]), np.array([0.5])), 3, 0))[:, 0]
        assert np.max(np.abs(got - [0, 1, -4, 0])) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        u=st.builds(
            uv.laurent,
            coefficients.filter(bool),
            coefficients,
            st.lists(coefficients, max_size=4),
        ),
        abcd=st.tuples(coefficients, coefficients, st.just(0) | coefficients, coefficients),
        order=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_level_reads_the_laurent_map(self, u, abcd, order, seed):
        """One level, c = 0 or not: z^2 S_f is the Laurent map's, bitwise,
        and for c = 0 so are z f''/f' and (a/d times) z f'."""
        a, b, c, d = abcd
        assume(a * d - b * c != 0)
        fn = uv.moebius_of(u, a, b, c, d)
        pts = exterior_points(np.random.default_rng(seed), 40)
        grid = (pts, 1.0 / pts)
        _, f1, pf, sf = fn.pieces(grid, order)
        _, u1, up, us = u.pieces(grid, order)
        if order > 2:
            assert sf.tobytes() == us.tobytes()
        if not c:
            with np.errstate(over="ignore", invalid="ignore"):
                k = np.complex128(a) / np.complex128(d)
                assert f1.tobytes() == (u1 if k == 1 else k * u1).tobytes()
            if order > 1:
                assert pf.tobytes() == up.tobytes()
