import numpy as np
import pytest

import univalence as uv
from univalence.errors import OutsideDomain, WEqualsOne
from univalence.loewner import (
    ChainSpec,
    audit_pommerenke,
    chain_eval,
    chain_p,
    chain_values,
    chain_w,
    chain_w_values,
    extract_a1,
    subordination_check,
)
from univalence.sampling import circle_points

LN2 = float(np.log(2.0))


def trivial_spec():
    return ChainSpec(f=uv.identity(), g=uv.identity(), h=uv.constant_one(), alpha=0.5)


def jouk_spec(c, alpha=0.5, h=None):
    f = uv.joukowski(c)
    return ChainSpec(f=f, g=f, h=h if h is not None else uv.constant_one(), alpha=alpha)


# Chain specs use the normalized class (b = 1, b0 = 0): the quotient formula
# presumes it, and a nonzero b0 drags a chain pole to z ~ 1/(b0 e^t).
CATALOG_SPECS = [
    trivial_spec(),
    jouk_spec(0.5),
    jouk_spec(0.4, alpha=0.3, h=uv.inverse_square(0.25)),
    ChainSpec(f=uv.joukowski(0.4), g=uv.identity(), h=uv.inverse_square(0.25), alpha=0.3),
    ChainSpec(f=uv.laurent(1, 0, [0.1, 0.02]), g=uv.identity(), h=uv.constant_one(), alpha=0.5),
]


class TestChainEval:
    def test_trivial_chain_is_exponential(self):
        spec = trivial_spec()
        assert abs(chain_eval(spec, 0.5, LN2) - 1.0) <= 1e-12
        for t in (0.0, 0.3, 1.0, 2.0):
            for z in (0.1, 0.5j, -0.8, 0.6 - 0.3j):
                assert abs(chain_eval(spec, z, t) - np.exp(t) * z) <= 1e-12 * np.exp(t)

    def test_joukowski_example(self):
        spec = jouk_spec(0.5, alpha=0.7)
        assert abs(chain_eval(spec, 1.0, LN2) - 1 / 0.9375) <= 1e-12

    def test_initial_value_inverts_f(self):
        spec = jouk_spec(0.5, alpha=0.25)
        assert abs(chain_eval(spec, 0.5, 0.0) - 1 / 2.25) <= 1e-12

    def test_initial_value_identity_all_specs(self):
        zs = np.concatenate([circle_points(0.5, 16), circle_points(0.9, 16)])
        for spec in CATALOG_SPECS:
            vals = chain_values(spec, zs, 0.0)
            fvals = spec.f.values(1.0 / zs)
            assert np.max(np.abs(vals * fvals - 1.0)) <= 1e-10

    def test_domain_checks(self):
        with pytest.raises(OutsideDomain):
            chain_eval(trivial_spec(), 1.5, 0.5)
        with pytest.raises(ValueError):
            chain_eval(trivial_spec(), 0.5, -0.1)


class TestChainW:
    def test_w_vanishes_for_trivial_data(self):
        spec = jouk_spec(0.5, alpha=0.9)
        assert chain_w(spec, 0.5, 0.0) == 0.0

    def test_w_at_zero_time_is_h_ratio(self):
        spec = ChainSpec(
            f=uv.joukowski(0.5), g=uv.identity(), h=uv.inverse_square(0.25), alpha=0.5
        )
        assert abs(chain_w(spec, 0.5, 0.0) - (-1 / 17)) <= 1e-12
        zs = circle_points(0.8, 32)
        for spec in CATALOG_SPECS:
            wv = chain_w_values(spec, zs, 0.0)
            hv = spec.h.values(1.0 / zs)
            assert np.max(np.abs(wv - (1.0 - hv) / hv)) <= 1e-10

    def test_w_matches_becker_value(self):
        spec = jouk_spec(0.5)
        assert abs(chain_w(spec, 1.0, LN2) - (-6 / 7)) <= 1e-12

    def test_boundary_bridge(self):
        # |w(z,t)| on |z| = 1 equals the criterion LHS at zeta = e^t / z.
        moebius_f = uv.moebius_of(uv.joukowski(0.3), 1, 0, 0.1, 1)
        laurent_g = uv.laurent(1, 0, [0.1 - 0.05j, 0.03j])
        cases = [
            jouk_spec(0.4),
            ChainSpec(f=uv.joukowski(0.5), g=uv.identity(), h=uv.constant_one(), alpha=0.5),
            ChainSpec(
                f=uv.joukowski(0.5),
                g=uv.joukowski(1.2),
                h=uv.inverse_square(0.25),
                alpha=0.3,
            ),
        ] + [
            # non-Laurent f: its pieces come through the Moebius quotient stack
            ChainSpec(
                f=moebius_f,
                g=laurent_g,
                h=uv.inverse_square(0.2 + 0.1j),
                alpha=0.4 + 0.1j,
                squared_variant=squared,
            )
            for squared in (True, False)
        ]
        zs = circle_points(1.0, 64)
        for spec in cases:
            p = uv.CriterionParams(
                f=spec.f,
                g=spec.g,
                h=spec.h,
                alpha=spec.alpha,
                squared_variant=spec.squared_variant,
            )
            for t in (0.25, LN2, 1.0):
                wv = np.abs(chain_w_values(spec, zs, t))
                lhs = uv.evaluate_lhs(p, np.exp(t) / zs)
                assert np.max(np.abs(wv - lhs)) <= 1e-9

    def test_unsquared_variant_respected(self):
        spec_sq = ChainSpec(
            f=uv.joukowski(0.5), g=uv.identity(), h=uv.constant_one(), alpha=0.3
        )
        spec_un = ChainSpec(
            f=uv.joukowski(0.5),
            g=uv.identity(),
            h=uv.constant_one(),
            alpha=0.3,
            squared_variant=False,
        )
        assert chain_w(spec_sq, 0.5, 1.0) != chain_w(spec_un, 0.5, 1.0)


class TestChainP:
    def test_half_plane_map_values(self):
        spec = jouk_spec(0.5, alpha=0.9)
        assert chain_p(spec, 0.5, 0.0) == 1.0  # w = 0
        spec2 = ChainSpec(
            f=uv.joukowski(0.5), g=uv.identity(), h=uv.inverse_square(0.25), alpha=0.5
        )
        p = chain_p(spec2, 0.5, 0.0)
        assert abs(p - (1 - 1 / 17) / (1 + 1 / 17)) <= 1e-12

    def test_disk_equivalence(self):
        # |w| < 1 iff Re p > 0, via the identity |1-w|^2 Re p = 1 - |w|^2.
        spec = jouk_spec(0.45, alpha=0.3, h=uv.inverse_square(0.2))
        zs = circle_points(0.9, 16)
        for t in (0.1, 0.8):
            wv = chain_w_values(spec, zs, t)
            pv = (1.0 + wv) / (1.0 - wv)
            lhs = np.abs(1.0 - wv) ** 2 * pv.real
            rhs = 1.0 - np.abs(wv) ** 2
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            assert np.all((np.abs(wv) < 1) == (pv.real > 0))

    def test_w_equals_one_raises(self, monkeypatch):
        from univalence import loewner

        monkeypatch.setattr(loewner, "chain_w", lambda *a: 1.0 + 0j)
        with pytest.raises(WEqualsOne):
            loewner.chain_p(jouk_spec(0.5), 0.5, 0.0)


class TestExtractA1:
    def test_trivial_chain(self):
        assert abs(extract_a1(trivial_spec(), 1.0) - np.e) <= 1e-9

    def test_joukowski_series(self):
        spec = jouk_spec(0.5)
        assert abs(extract_a1(spec, 0.0) - 1.0) <= 1e-9
        assert abs(extract_a1(spec, LN2) - 2.0) <= 2e-6

    def test_exponential_law_across_catalog(self):
        for spec in CATALOG_SPECS:
            for t in (0.0, 0.5, 1.0, LN2, 2.0):
                a1 = extract_a1(spec, t)
                assert abs(a1 - np.exp(t)) / np.exp(t) <= 1e-6, (spec, t)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            extract_a1(trivial_spec(), 1.0, circle_radius=1.5)

    def test_unnormalized_constant_term_breaks_the_law(self):
        # b0 != 0 puts a chain pole at z ~ 1/(b0 e^t); by t = 2 it is inside
        # the contour and the extracted coefficient goes wrong. The audit
        # must flag this rather than pass silently.
        spec = ChainSpec(
            f=uv.laurent(1, 0.3, [0.1]), g=uv.identity(), h=uv.constant_one(), alpha=0.5
        )
        assert abs(extract_a1(spec, 2.0) - np.exp(2.0)) / np.exp(2.0) > 1e-3
        rep = audit_pommerenke(spec)
        assert not rep.passed


class TestSubordination:
    def test_ordered_times_nest(self):
        ok, failures = subordination_check(trivial_spec(), 0.0, 1.0, 0.5)
        assert ok and not failures

    def test_equal_times_nest(self):
        ok, _ = subordination_check(trivial_spec(), 1.0, 1.0, 0.5)
        assert ok

    def test_swapped_times_fail(self):
        ok, failures = subordination_check(trivial_spec(), 1.0, 0.0, 0.5)
        assert not ok and len(failures) == 16


class TestAudit:
    def test_trivial_chain_audit(self):
        rep = audit_pommerenke(trivial_spec())
        assert rep.max_abs_w == 0.0
        assert rep.min_re_p == 1.0
        assert rep.passed
        assert not rep.subordination_failures
        assert all(res == 0.0 or res < 1e-12 for _, res in rep.a1_residuals)
        assert np.isfinite(rep.dt_proxy)

    def test_becker_violation_flagged(self):
        rep = audit_pommerenke(jouk_spec(0.6), t_samples=(0.0, 0.25, LN2))
        assert abs(rep.max_abs_w - 1.0588235294117647) <= 1e-6
        assert abs(rep.witness_w[0] - 1.0) <= 1e-12
        assert abs(rep.witness_w[1] - LN2) <= 1e-12
        assert not rep.passed

    def test_becker_pass_case(self):
        rep = audit_pommerenke(jouk_spec(0.4))
        assert rep.max_abs_w < 1.0
        assert abs(rep.max_abs_w - 0.8) < 0.02
        assert rep.min_re_p > 0.0
        assert rep.passed

    def test_json_shape(self):
        rep = audit_pommerenke(trivial_spec(), t_samples=(0.0, 0.5))
        d = rep.to_json_dict()
        assert set(d) >= {
            "max_abs_w",
            "witness_w",
            "min_re_p",
            "witness_p",
            "a1",
            "subordination",
            "boundedness_proxy",
            "pass",
        }
        assert d["pass"] is True
        assert all({"t", "re", "im", "residual", "doubling_ok"} <= set(r) for r in d["a1"])

    def test_nan_does_not_hide_slice_maximum(self, monkeypatch):
        from univalence import loewner

        exact = loewner.chain_w_values

        def with_nan(spec, z, t):
            w = exact(spec, z, t)
            if t == 0.5:
                w = w.copy()
                w[0] = np.nan
                w[1] = 1.5
            return w

        monkeypatch.setattr(loewner, "chain_w_values", with_nan)
        z = loewner.default_z_samples()
        rep = audit_pommerenke(trivial_spec(), t_samples=(0.0, 0.5))
        assert rep.max_abs_w == 1.5
        assert rep.witness_w == (complex(z[1]), 0.5)
        assert f"w grid at t=0.5: non-finite w at z = {complex(z[0])}" in rep.errors
        assert not rep.passed
