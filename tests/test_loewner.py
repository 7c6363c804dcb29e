import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import univalence as uv
from univalence.criteria import pieces
from univalence.errors import (
    CriticalPoint,
    DenominatorVanishes,
    HVanishes,
    InvalidSpec,
    OutsideDomain,
    PointTooCloseToContour,
)
from univalence.criteria import theorem1
from univalence.jet import stack_div
from univalence.loewner import (
    DEFAULT_T_SAMPLES,
    LOEWNER_RESIDUAL_TOL,
    PROBE_COUNT,
    ChainSpec,
    _audit_nodes,
    _audit_samples,
    _chain_slices,
    audit_pommerenke,
    chain_values,
    chain_w_values,
    default_z_samples,
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


# f = 1e-310 z: every chain value overflows.
SUBNORMAL_SPEC = ChainSpec(f=uv.laurent(1e-310, 0), g=uv.identity(), alpha=0.0)

# Chain specs use the normalized class (b = 1, b0 = 0): the quotient formula
# presumes it, and a nonzero b0 drags a chain pole to z ~ 1/(b0 e^t).
CATALOG_SPECS = [
    trivial_spec(),
    jouk_spec(0.5),
    jouk_spec(0.4, alpha=0.3, h=uv.inverse_square(0.25)),
    ChainSpec(f=uv.joukowski(0.4), g=uv.identity(), h=uv.inverse_square(0.25), alpha=0.3),
    ChainSpec(f=uv.laurent(1, 0, [0.1, 0.02]), g=uv.identity(), h=uv.constant_one(), alpha=0.5),
]


class TestChainSpecRoles:
    def test_h_as_g_is_refused(self):
        # refused as ChainSpec is built, before any root of g is solved
        with pytest.raises(InvalidSpec) as exc:
            audit_pommerenke(ChainSpec(f=uv.joukowski(0.3), g=uv.inverse_square(0.3)))
        assert str(exc.value) == "hinvsq((0.3+0j)) has no leading term b z with b != 0"

    def test_non_h_as_h_is_refused(self):
        with pytest.raises(InvalidSpec) as exc:
            ChainSpec(f=uv.joukowski(0.3), g=uv.identity(), h=uv.joukowski(0.3))
        assert str(exc.value) == "joukowski((0.3+0j)) is not an h = 1 + h2/z^2 + ..."


class TestChainEval:
    def test_trivial_chain_is_exponential(self):
        spec = trivial_spec()
        assert abs(chain_values(spec, 0.5, LN2)[0] - 1.0) <= 1e-12
        zs = np.array([0.1, 0.5j, -0.8, 0.6 - 0.3j])
        for t in (0.0, 0.3, 1.0, 2.0):
            assert np.max(np.abs(chain_values(spec, zs, t) - np.exp(t) * zs)) <= 1e-12 * np.exp(t)

    def test_joukowski_example(self):
        spec = jouk_spec(0.5, alpha=0.7)
        assert abs(chain_values(spec, 1.0, LN2)[0] - 1 / 0.9375) <= 1e-12

    def test_initial_value_inverts_f(self):
        spec = jouk_spec(0.5, alpha=0.25)
        assert abs(chain_values(spec, 0.5, 0.0)[0] - 1 / 2.25) <= 1e-12

    def test_initial_value_identity_all_specs(self):
        zs = np.concatenate([circle_points(0.5, 16), circle_points(0.9, 16)])
        for spec in CATALOG_SPECS:
            vals = chain_values(spec, zs, 0.0)
            fvals = spec.f.values(1.0 / zs)
            assert np.max(np.abs(vals * fvals - 1.0)) <= 1e-10

    @pytest.mark.parametrize("alpha", [-2, -1, 1, 2])
    def test_integer_alpha_equals_the_quotient_of_v(self, alpha):
        # An integer alpha gives v = (g'/f')^alpha without a branch. The
        # chain read from v'/v equals (v + c h v')/(f v + c h (f v)') formed
        # from v itself, with zeta = e^t/z and c = (e^-t - e^t)/z.
        f, g = uv.joukowski(0.4), uv.laurent(1, 0, [0.1 - 0.05j, 0.03j])
        spec = ChainSpec(f, g, uv.inverse_square(0.2 + 0.1j), alpha)
        z = np.concatenate([circle_points(0.5, 16), circle_points(0.9, 16)])
        for t in (0.0, 0.5, 2.0):
            zeta, c = np.exp(t) / z, (np.exp(-t) - np.exp(t)) / z
            fd, gd = f.derivs(zeta, order=2), g.derivs(zeta, order=2)
            ratio = stack_div(gd[1:], fd[1:])  # g'/f' and its derivative
            v = ratio[0] ** alpha
            dv = alpha * ratio[0] ** (alpha - 1) * ratio[1]
            ch = c * spec.h.values(zeta)
            want = (v + ch * dv) / (fd[0] * v + ch * (fd[1] * v + fd[0] * dv))
            got = chain_values(spec, z, t)
            # both sides are double quotients; near |L| ~ 100 at t = 2 the
            # denominators cancel and each loses about two digits
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-12

    def test_domain_checks(self):
        with pytest.raises(OutsideDomain):
            chain_values(trivial_spec(), 1.5, 0.5)
        with pytest.raises(ValueError):
            chain_values(trivial_spec(), 0.5, -0.1)


class TestChainW:
    def test_w_vanishes_for_trivial_data(self):
        spec = jouk_spec(0.5, alpha=0.9)
        assert chain_w_values(spec, 0.5, 0.0)[0] == 0.0

    def test_w_at_zero_time_is_h_ratio(self):
        spec = ChainSpec(
            f=uv.joukowski(0.5), g=uv.identity(), h=uv.inverse_square(0.25), alpha=0.5
        )
        assert abs(chain_w_values(spec, 0.5, 0.0)[0] - (-1 / 17)) <= 1e-12
        zs = circle_points(0.8, 32)
        for spec in CATALOG_SPECS:
            wv = chain_w_values(spec, zs, 0.0)
            hv = spec.h.values(1.0 / zs)
            assert np.max(np.abs(wv - (1.0 - hv) / hv)) <= 1e-10

    def test_w_matches_becker_value(self):
        spec = jouk_spec(0.5)
        assert abs(chain_w_values(spec, 1.0, LN2)[0] - (-6 / 7)) <= 1e-12

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
            # non-Laurent f: its pieces come through the Moebius quotient stack
            ChainSpec(
                f=moebius_f,
                g=laurent_g,
                h=uv.inverse_square(0.2 + 0.1j),
                alpha=0.4 + 0.1j,
            ),
        ]
        zs = circle_points(1.0, 64)
        for spec in cases:
            p = uv.CriterionParams(f=spec.f, g=spec.g, h=spec.h, alpha=spec.alpha)
            for t in (0.25, LN2, 1.0):
                wv = np.abs(chain_w_values(spec, zs, t))
                lhs = uv.evaluate_lhs(p, np.exp(t) / zs)
                assert np.max(np.abs(wv - lhs)) <= 1e-9

    def test_grid_shape_is_kept(self):
        spec = CATALOG_SPECS[3]
        zs = circle_points(0.8, 32)
        for fn in (chain_values, chain_w_values):
            grid = fn(spec, zs.reshape(4, 8), 0.5)
            assert grid.shape == (4, 8)
            assert np.array_equal(grid.ravel(), fn(spec, zs, 0.5))


class TestChainP:
    def test_disk_equivalence(self):
        # |w| < 1 iff Re p > 0 for the chain's p = (1-w)/(1+w), via the
        # identity |1+w|^2 Re p = 1 - |w|^2.
        spec = jouk_spec(0.45, alpha=0.3, h=uv.inverse_square(0.2))
        zs = circle_points(0.9, 16)
        for t in (0.1, 0.8):
            wv = chain_w_values(spec, zs, t)
            pv = (1.0 - wv) / (1.0 + wv)
            lhs = np.abs(1.0 + wv) ** 2 * pv.real
            rhs = 1.0 - np.abs(wv) ** 2
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            assert np.all((np.abs(wv) < 1) == (pv.real > 0))


def unsquared_w(spec, z, t):
    """w with (f''/f' - g''/g') in place of its square in the alpha-term,
    from the criterion pieces at zeta = e^t/z."""
    et = np.exp(t)
    zeta = et / z
    _, _, h0, h1, pf, sf, pg, sg = pieces(spec.f, spec.g, spec.h, zeta)
    e2t, alpha = et * et, spec.alpha
    return (
        (1.0 - h0) / h0 * e2t
        - (e2t - 1.0) * zeta * (h1 / h0 + (1.0 - 2.0 * alpha) * pf + 2.0 * alpha * pg)
        + alpha * (e2t - 1.0) ** 2 / (z * z) * h0 * ((alpha - 0.5) * (pf - pg) + sf - sg)
    )


def chain_rows(spec, z, t):
    """The rows (L, dL/dt, z dL/dz) of the grid pass over one slice
    evaluated alone."""
    rows, (error,), _ = _chain_slices(spec, [(z, t)], grid=True)
    if error is not None:
        raise error
    return rows[:3]


class TestLoewnerEquation:
    """The chain L and its driving function w obey dL/dt = z dL/dz p with
    p = (1-w)/(1+w), by central differences in t and in log z."""

    STEP = 1e-5
    BOUND = 1e-7
    SPECS = [
        ChainSpec(
            f=uv.laurent(1, 0, [0.1, 0.02]),
            g=uv.joukowski(0.2),
            h=uv.inverse_square(0.1),
            alpha=0.25,
        ),
        ChainSpec(
            f=uv.joukowski(0.4),
            g=uv.laurent(1, 0, [0.1 - 0.05j, 0.03j]),
            h=uv.inverse_square(0.2 + 0.1j),
            alpha=0.35 + 0.1j,
        ),
        ChainSpec(
            f=uv.laurent(1, 0, [0.2, 0.05j]),
            g=uv.joukowski(0.3),
            h=uv.inverse_square(-0.15),
            alpha=1.0,
        ),
    ]

    def differences(self, spec, z, t):
        """dL/dt and z dL/dz at the points z."""
        step = self.STEP
        dt = (chain_values(spec, z, t + step) - chain_values(spec, z, t - step)) / (2 * step)
        zdz = (
            chain_values(spec, z * np.exp(step), t) - chain_values(spec, z * np.exp(-step), t)
        ) / (2 * step)
        return dt, zdz

    def residual(self, spec, w, z, t):
        """max|dL/dt - z dL/dz p| / max|dL/dt| at the points z."""
        dt, zdz = self.differences(spec, z, t)
        p = (1.0 - w) / (1.0 + w)
        return np.max(np.abs(dt - zdz * p)) / np.max(np.abs(dt))

    @pytest.mark.parametrize("spec", SPECS, ids=["laurent_f", "laurent_g", "alpha_one"])
    def test_w_drives_the_chain(self, spec):
        z = circle_points(0.9, 16)
        for t in (0.25, 1.0, 2.0):
            assert self.residual(spec, chain_w_values(spec, z, t), z, t) <= self.BOUND
            # the check can fail: the unsquared alpha-term drives no chain
            assert self.residual(spec, unsquared_w(spec, z, t), z, t) > self.BOUND + 1e-3

    @pytest.mark.parametrize("spec", SPECS, ids=["laurent_f", "laurent_g", "alpha_one"])
    def test_closed_form_derivatives(self, spec):
        # the rows the grid pass gives next to L, against the differences of
        # the L pass; its L is bitwise the L pass's
        z = circle_points(0.9, 16)
        for t in (0.25, 1.0, 2.0):
            value, dt, zdz = chain_rows(spec, z, t)
            assert np.array_equal(value, chain_values(spec, z, t))
            for got, want in zip((dt, zdz), self.differences(spec, z, t)):
                assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= self.BOUND

    def test_rows_do_not_depend_on_the_other_points_of_the_call(self):
        # each point's rows from a one-point slice are bitwise its rows in a
        # 300-point call: no complex multiply writes in place, which at
        # length 1 is not bitwise the out-of-place product
        spec = ChainSpec(
            f=uv.make_sigma_function("joukowski:0.3,0.1"),
            g=uv.make_sigma_function("laurent:1;0;0.1+0.05j,0.02j"),
            h=uv.make_h_function("hinvsq:0.2,0.1"),
            alpha=0.3 + 0.1j,
        )
        z = np.concatenate([circle_points(r, 100) for r in (0.3, 0.6, 0.9)])
        batch = chain_rows(spec, z, 0.7)
        alone = np.stack([chain_rows(spec, z[k : k + 1], 0.7)[:, 0] for k in range(z.size)], axis=1)
        assert [int(np.sum(a != b)) for a, b in zip(batch, alone)] == [0, 0, 0]


def doubled_h_term(z, pc, alpha, aa, phase=None):
    """theorem1 with its (1 - h)/h aa term counted twice."""
    return theorem1(z, pc, alpha, aa, phase) + (1.0 - pc.h0) / pc.h0 * aa


def flipped_alpha_term(z, pc, alpha, aa, phase=None):
    """theorem1 with the sign of its alpha-term flipped: pieces without S_f
    leave that term out."""
    without = theorem1(z, pc._replace(sf=None), alpha, aa, phase)
    return 2.0 * without - theorem1(z, pc, alpha, aa, phase)


class TestLoewnerResidual:
    """The audit's ``loewner_residual``: the Loewner equation on the z grid
    from the closed-form derivatives, scaled by e^{-2t}."""

    SPEC = ChainSpec(
        f=uv.laurent(1, 0, [0.1, 0.02]),
        g=uv.joukowski(0.2),
        h=uv.inverse_square(0.1),
        alpha=0.4 + 0.1j,
    )

    @pytest.mark.parametrize("mutant", [doubled_h_term, flipped_alpha_term])
    def test_a_wrong_w_fails(self, mutant, monkeypatch):
        from univalence import loewner

        assert audit_pommerenke(self.SPEC).passed
        monkeypatch.setattr(loewner, "theorem1", mutant)
        rep = audit_pommerenke(self.SPEC)
        # |w| < 1 and every other check still holds: the residual alone fails
        assert rep.max_abs_w < 1.0 and not rep.errors
        assert rep.loewner_residual >= 1e3 * LOEWNER_RESIDUAL_TOL
        assert not rep.passed

    def test_bound_scales_with_e_2t(self):
        # The chain quotient's denominator cancels from e^t/z to e^-t/z, so
        # the unscaled residual grows like eps e^{2t}: at t = 8 it is past
        # the bound, and scaled by e^{-2t} it is within it.
        spec = ChainSpec(
            f=uv.make_sigma_function("joukowski:0.4"),
            g=uv.make_sigma_function("laurent:1;0;0.1,0.03j"),
            h=uv.make_h_function("hinvsq:-0.1,0.2"),
            alpha=0.25,
        )
        for t in (6.0, 8.0):
            rep = audit_pommerenke(spec, t_samples=(t,))
            assert not rep.errors
            assert rep.loewner_residual <= LOEWNER_RESIDUAL_TOL
        assert rep.loewner_residual * np.exp(16.0) > LOEWNER_RESIDUAL_TOL


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
        assert rep.passed
        assert not rep.subordination_failures
        assert all(res == 0.0 or res < 1e-12 for _, _, res, _ in rep.a1_records)
        assert 0.0 <= rep.loewner_residual <= LOEWNER_RESIDUAL_TOL

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
        assert rep.passed

    def test_json_shape(self):
        rep = audit_pommerenke(trivial_spec(), t_samples=(0.0, 0.5))
        d = rep.to_json_dict()
        assert set(d) >= {
            "max_abs_w",
            "witness_w",
            "a1",
            "subordination",
            "loewner_residual",
            "pass",
        }
        assert d["pass"] is True
        assert all({"t", "re", "im", "residual", "doubling_ok"} <= set(r) for r in d["a1"])

    def test_nonfinite_chain_values_are_recorded(self):
        # f = 1e-310 z: the quotient's denominator is subnormal, so every
        # chain value overflows and every dt quotient is NaN
        rep = audit_pommerenke(SUBNORMAL_SPEC, t_samples=(0.0, 1.0))
        for t in (0.0, 1.0):
            assert f"chain grid at t={t}: non-finite chain value at z = (0.5+0j)" in rep.errors
        assert not rep.passed

    def test_nan_does_not_hide_slice_maximum(self, monkeypatch):
        from univalence import loewner

        exact = loewner._chain_slices

        def with_nan(spec, slices, grid=False):
            rows, *errors = exact(spec, slices, grid)
            start = 0
            for z, t in slices:
                if grid and t == 0.5:
                    rows[3, start] = np.nan
                    rows[3, start + 1] = 1.5
                start += z.size
            return (rows, *errors)

        monkeypatch.setattr(loewner, "_chain_slices", with_nan)
        z = loewner.default_z_samples()
        rep = audit_pommerenke(trivial_spec(), t_samples=(0.0, 0.5))
        assert rep.max_abs_w == 1.5
        assert rep.witness_w == (complex(z[1]), 0.5)
        assert f"w grid at t=0.5: non-finite w at z = {complex(z[0])}" in rep.errors
        assert not rep.passed

    def test_residual_without_finite_samples_is_null(self):
        # the subnormal chain above: no finite chain derivative gives a residual
        d = audit_pommerenke(SUBNORMAL_SPEC, t_samples=(0.0, 1.0)).to_json_dict()
        assert d["loewner_residual"] is None
        assert d["pass"] is False

    def test_empty_t_samples_is_refused(self):
        with pytest.raises(ValueError, match="^t_samples must hold at least one time$"):
            audit_pommerenke(trivial_spec(), t_samples=())

    def test_subordination_contour_failure_is_recorded(self):
        # the probes at 0.45 e^t land on the ring at 0.5 e^s when e^(t-s) =
        # 10/9: that pair is recorded and the audit goes on
        t = 0.10536051565782628
        rep = audit_pommerenke(trivial_spec(), t_samples=(t, 0.0))
        assert rep.errors == (
            f"subordination ({t}, 0.0): point (0.5+0j) within rounding of the contour",
        )
        assert not rep.subordination_failures
        assert len(rep.a1_records) == 2
        assert not rep.passed

    def test_large_time_records_overflow_without_warning(self):
        # e^t overflows past t of about 709: the samples at t = 1e300 are
        # recorded as errors, and no RuntimeWarning (an error in this suite)
        # escapes from the grid or the L pass
        spec = ChainSpec(f=uv.joukowski(0.3), g=uv.joukowski(0.2))
        rep = audit_pommerenke(spec, t_samples=(0.0, 1e300))
        assert rep.errors[0] == "w grid at t=1e+300: non-finite w at z = (0.5+0j)"
        assert rep.errors[-1].startswith("subordination (0.0, 1e+300): ")
        assert not rep.passed

    def test_pairs_judged_as_subordination_check_judges_them(self):
        # one winding pass for all pairs; per pair, the same failures or
        # error as subordination_check: the probes of (t_on, 0) land on the
        # s-contour, those of (t_off, 0) lie 5e-8 outside it, where each
        # crossing is still certain, and (0, t_off) nests
        t_on = 0.10536051565782628
        t_off = t_on + 1e-7
        ts = (t_on, 0.0, t_off, 0.0)
        rep = audit_pommerenke(trivial_spec(), t_samples=ts)
        errors, failures = [], []
        for t, s in zip(ts[:-1], ts[1:]):
            try:
                failures += subordination_check(trivial_spec(), t, s)[1]
            except PointTooCloseToContour as exc:
                errors.append(f"subordination ({t}, {s}): {exc}")
        assert errors == [f"subordination ({t_on}, 0.0): point (0.5+0j) within rounding of the contour"]
        assert len(failures) == PROBE_COUNT
        assert list(rep.errors) == errors
        assert list(rep.subordination_failures) == failures

    def test_one_evaluation_pass_per_audit(self, monkeypatch):
        # one root solve per function (the precondition) and a fixed number
        # of kernel calls whatever the number of chain times: f, g and h
        # stacks to order 3 for the grid pass over the z grid (6 x 192
        # points at the default grids) and to order 2 for the L pass over
        # the doubled a1 contour and the probes (6 x 512 + 5 x 16 points);
        # one winding call for all subordination pairs, none for a single
        # chain time (no pair); no circle_points call, since the z grid and
        # the nodes are built once, read-only
        from univalence import _kernels, catalog, loewner

        roots, kernel, kernel_points, passes = Counter(), Counter(), Counter(), []
        solve, derivs, winding, chain = (
            catalog._derivative_roots,
            _kernels.laurent_derivs,
            _kernels.winding_sum,
            loewner._chain_slices,
        )

        def counted_roots(fn):
            roots[fn] += 1
            return solve(fn)

        def counted(name, fn):
            def call(*args, **kwargs):
                kernel[name] += 1
                return fn(*args, **kwargs)

            return call

        def recorded_derivs(points, b, b0, tail, order=4, inv=None, first=0):
            kernel_points[points.size, order] += 1
            return derivs(points, b, b0, tail, order, inv, first)

        def recorded_chain(spec, slices, grid=False):
            passes.append((sum(np.size(z) for z, _ in slices), grid))
            return chain(spec, slices, grid)

        monkeypatch.setattr(catalog, "_derivative_roots", counted_roots)
        monkeypatch.setattr(_kernels, "laurent_derivs", counted("derivs", recorded_derivs))
        monkeypatch.setattr(_kernels, "winding_sum", counted("winding", winding))
        monkeypatch.setattr(loewner, "_chain_slices", recorded_chain)
        monkeypatch.setattr(loewner, "circle_points", counted("circle_points", loewner.circle_points))
        f, g = uv.laurent(1, 0, [0.1, 0.02]), uv.joukowski(0.2)
        spec = ChainSpec(f=f, g=g, h=uv.inverse_square(0.1), alpha=0.4 + 0.1j)
        rep = audit_pommerenke(spec)
        assert rep.passed
        assert roots == Counter({f: 1, g: 1})
        assert kernel["derivs"] == 6
        # f and g (from g') to order 3 on the grid and 2 on the nodes, h to 1 and 0
        assert kernel_points == Counter({(1152, 3): 2, (1152, 1): 1, (3152, 2): 2, (3152, 0): 1})
        assert sum(size * count for (size, _), count in kernel_points.items()) == 12912
        assert passes == [(1152, True), (3152, False)]
        assert kernel["winding"] == 1
        assert kernel["circle_points"] == 0
        for nodes in (loewner.default_z_samples(), *loewner._audit_nodes()):
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = nodes[0]

        kernel.clear()
        audit_pommerenke(spec, t_samples=np.linspace(0.0, 4.0, 11))
        assert kernel["derivs"] == 6
        assert kernel["winding"] == 1

        kernel.clear()
        audit_pommerenke(spec, t_samples=(1.0,))
        assert kernel["winding"] == 0


def _standalone(fn, spec, z, t):
    """``fn(spec, z, t)``, or the chain error it raises."""
    try:
        return fn(spec, z, t)
    except (CriticalPoint, DenominatorVanishes, HVanishes) as exc:
        return exc


def _same(got, error, want) -> bool:
    """A stacked row and its error equal the row's standalone evaluation:
    bitwise the same values, NaN positions included, and no error; or an
    error of the same type and message, and a row of NaN."""
    if isinstance(want, Exception):
        return type(error) is type(want) and str(error) == str(want) and np.isnan(got).all()
    return error is None and np.array_equal(got, want, equal_nan=True)


def assert_samples_standalone(spec, ts):
    """Every row of the audit's samples stacked over t (over the pairs for
    the probes), the a1 contour view and the w row of the grid pass
    included, is what the grid pass, ``chain_values`` or ``chain_w_values``
    gives for its slice alone, and the grid's L is the L pass's; returns
    the number of rows that are errors."""
    z = default_z_samples()
    contour, doubled, probes_z = nodes = _audit_nodes()
    (grid, on_contour, on_doubled, w, probes), errors = _audit_samples(spec, ts, z, nodes)
    assert grid.shape == (3, len(ts), z.size) and w.shape == (len(ts), z.size)
    assert probes.shape == (len(ts) - 1, PROBE_COUNT)
    grid_errors, contour_errors, doubled_errors, w_errors, probe_errors = errors
    rows = []
    for i, t in enumerate(ts):
        rows += [
            (grid[:, i], grid_errors[i], chain_rows, z, t),
            (grid[0, i], grid_errors[i], chain_values, z, t),
            (on_contour[i], contour_errors[i], chain_values, contour, t),
            (on_doubled[i], doubled_errors[i], chain_values, doubled, t),
            (w[i], w_errors[i], chain_w_values, z, t),
        ]
    rows += [(probes[i], probe_errors[i], chain_values, probes_z, t) for i, t in enumerate(ts[:-1])]
    count = 0
    for got, error, fn, zs, t in rows:
        want = _standalone(fn, spec, zs, t)
        assert _same(got, error, want), (fn.__name__, zs.size, t, got, error, want)
        count += isinstance(want, Exception)
    return count


# 1/z at the first odd node of the doubled contour and t = 0, as the chain
# pass computes it: a pole of f there fails that contour alone.
_ODD_NODE_ZETA = complex((np.exp(np.zeros(1)) / _audit_nodes()[1][1:2])[0])


def _laurent_or_joukowski(c1, c2, joukowski):
    return uv.joukowski(c1) if joukowski else uv.laurent(1, 0, [c1, c2])


small = st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False)


class TestAuditSamples:
    def test_contour_views_are_bitwise_standalone_nodes(self):
        _, doubled, _ = _audit_nodes()
        first_circle = default_z_samples()[: len(doubled) // 8]
        assert np.array_equal(doubled[::2], circle_points(0.5, 256))
        assert np.array_equal(doubled[::8], first_circle)

    @pytest.mark.parametrize(
        "f,g,alpha",
        [
            # g'(1) = 0: at t = 0, z = 1 only w, not the chain, reads it
            ("joukowski:0.3", "joukowski:1.0", 0.0),
            ("laurent:1;0;0.1,0.02", "laurent:1;0;0.1,0.02", 0.4 + 0.1j),
            ("moebius:1,0.1j,0.03+0.04j,1:joukowski:0.3", "joukowski:0.2,-0.1", 0.4 - 0.1j),
        ],
        ids=["alpha_zero", "g_is_f", "moebius_f"],
    )
    def test_w_is_the_bracket_of_separate_pieces(self, f, g, alpha):
        # w from the grid pass's stacks, where the chain itself reads no g
        # (alpha = 0), reuses f's rows (g = f) or reads a quotient stack (a
        # Moebius level with c != 0), is bitwise theorem1 over pieces
        # evaluated apart at zeta = e^t/z, and fails where those pieces
        # hold a critical point
        spec = ChainSpec(
            f=uv.make_sigma_function(f),
            g=uv.make_sigma_function(g),
            h=uv.make_h_function("hinvsq:0.15,0.05"),
            alpha=alpha,
        )
        z = default_z_samples()
        samples, errors = _audit_samples(spec, DEFAULT_T_SAMPLES, z, _audit_nodes())
        assert errors[0] == [None] * len(DEFAULT_T_SAMPLES)
        critical = []
        for t, w, error in zip(DEFAULT_T_SAMPLES, samples[3], errors[3]):
            et = np.exp(np.full(z.size, t))
            zeta = et / z
            pc = pieces(spec.f, spec.g, spec.h, zeta)
            if ((pc.f1 == 0) | (pc.g1 == 0)).any():
                critical.append(t)
                assert isinstance(error, CriticalPoint) and np.isnan(w).all()
            else:
                want = theorem1(zeta, pc, spec.alpha, et * et, 1.0 / (z * z))
                assert error is None and np.array_equal(w, want)
        assert critical == ([0.0] if g == "joukowski:1.0" else [])


    @seed(20240809)
    @settings(max_examples=40, deadline=None)
    @given(
        f=st.tuples(small, small, st.booleans()),
        g=st.tuples(small, small, st.booleans()),
        h=st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
        alpha=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        ts=st.one_of(
            st.just(DEFAULT_T_SAMPLES),
            st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4).map(tuple),
        ),
    )
    def test_samples_equal_standalone_evaluation(self, f, g, h, alpha, ts):
        spec = ChainSpec(
            f=_laurent_or_joukowski(*f),
            g=_laurent_or_joukowski(*g),
            h=uv.inverse_square(h),
            alpha=alpha,
        )
        assert_samples_standalone(spec, ts)

    @pytest.mark.parametrize(
        "f,g,alpha,ts,fails",
        [
            # f'(1) = 0 at the grid point z = 1 at t = 0
            ("joukowski:1.0", "identity", -1.0, DEFAULT_T_SAMPLES, True),
            # the pole of f at the first node of both contours at t = 0
            ("moebius:1,0,1,-2:identity", "identity", 0.5, DEFAULT_T_SAMPLES, True),
            # a pole at an odd node of the doubled contour: the a1 contour and
            # the grid, evaluated alone, are clean
            (f"moebius:1,0,1,{-_ODD_NODE_ZETA}:identity", "laurent:1;0;0.1-0.05j,0.03j", 0.3,
             (0.0, 0.25), True),
            # every chain value overflows, with no error
            ("laurent:1e-310;0", "identity", 0.0, (0.0, 1.0), False),
        ],
        ids=["critical_point_on_grid", "moebius_pole", "pole_at_odd_node", "subnormal_f"],
    )
    def test_failing_slices_equal_standalone_evaluation(self, f, g, alpha, ts, fails):
        spec = ChainSpec(
            f=uv.make_sigma_function(f), g=uv.make_sigma_function(g), alpha=alpha
        )
        assert bool(assert_samples_standalone(spec, ts)) == fails


GOLDEN = json.loads((Path(__file__).parent / "golden_chain_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_audit_reproduces_golden_report(case):
    spec = ChainSpec(
        f=uv.make_sigma_function(case["f"]),
        g=uv.make_sigma_function(case["g"]),
        h=uv.make_h_function(case["h"]),
        alpha=complex(*case["alpha"]),
    )
    got = audit_pommerenke(spec, t_samples=case["t_samples"]).to_json_dict()
    assert json.dumps(got, allow_nan=False) == json.dumps(case["report"])
