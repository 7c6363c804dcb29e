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
    EvaluationFailure,
    HVanishes,
    InvalidSpec,
    OutsideDomain,
)
from univalence.criteria import theorem1
from univalence.loewner import (
    DEFAULT_T_SAMPLES,
    LOEWNER_RESIDUAL_TOL,
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
        # the audit died in the ray branch: "no roots of hinvsq(...) in
        # double range"
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
    """The rows (L, dL/dt, z dL/dz) of one slice evaluated alone."""
    rows = _chain_slices(spec, [(z, t)])[0]
    if isinstance(rows, Exception):
        raise rows
    return rows


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
        # the rows _chain_slices gives next to L, against the differences
        z = circle_points(0.9, 16)
        for t in (0.25, 1.0, 2.0):
            _, dt, zdz = chain_rows(spec, z, t)
            for got, want in zip((dt, zdz), self.differences(spec, z, t)):
                assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= self.BOUND


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
        # den/num overflows: every chain value is inf, every dt quotient NaN
        spec = ChainSpec(
            f=uv.make_sigma_function(
                "moebius:1e-160,1e-300,1e-300,-1.29-1.19e-07j:"
                "laurent:2.22e-16-0.702j;0.716+2.88j;1e-300+1e-300j"
            ),
            g=uv.joukowski(-0.774),
            alpha=-1.0,
        )
        rep = audit_pommerenke(spec, t_samples=(0.0, 1.0))
        for t in (0.0, 1.0):
            assert f"chain grid at t={t}: non-finite chain value at z = (0.5+0j)" in rep.errors
        assert not rep.passed

    def test_nan_does_not_hide_slice_maximum(self, monkeypatch):
        from univalence import loewner

        exact = loewner._w_slices

        def with_nan(spec, slices):
            out = exact(spec, slices)
            for (_, t), w in zip(slices, out):
                if t == 0.5:
                    w[0] = np.nan
                    w[1] = 1.5
            return out

        monkeypatch.setattr(loewner, "_w_slices", with_nan)
        z = loewner.default_z_samples()
        rep = audit_pommerenke(trivial_spec(), t_samples=(0.0, 0.5))
        assert rep.max_abs_w == 1.5
        assert rep.witness_w == (complex(z[1]), 0.5)
        assert f"w grid at t=0.5: non-finite w at z = {complex(z[0])}" in rep.errors
        assert not rep.passed

    def test_residual_without_finite_samples_is_null(self):
        # the overflow chain above: no finite chain derivative gives a residual
        spec = ChainSpec(
            f=uv.make_sigma_function(
                "moebius:1e-160,1e-300,1e-300,-1.29-1.19e-07j:"
                "laurent:2.22e-16-0.702j;0.716+2.88j;1e-300+1e-300j"
            ),
            g=uv.joukowski(-0.774),
            alpha=-1.0,
        )
        d = audit_pommerenke(spec, t_samples=(0.0, 1.0)).to_json_dict()
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
            f"subordination ({t}, 0.0): point (0.5+0j) within 0.0 of the contour",
        )
        assert not rep.subordination_failures
        assert len(rep.a1_records) == 2
        assert not rep.passed

    def test_one_evaluation_pass_per_audit(self, monkeypatch):
        # one root solve per function and a fixed number of kernel calls
        # whatever the number of chain times: five for the chain pass (f, g
        # and h stacks, and f', g' at the ray anchors) and three for the w
        # pass (f, g and h); 3920 chain points at the default grids (the a1
        # contour and the first grid circle are views of the doubled
        # contour); one winding call per subordination pair
        from univalence import _kernels, catalog, loewner

        roots, kernel, branch_points = Counter(), Counter(), []
        solve, derivs, winding, branch = (
            catalog._derivative_roots,
            _kernels.laurent_derivs,
            _kernels.winding_sum,
            loewner.power_branch_slices,
        )

        def counted_roots(fn):
            roots[fn] += 1
            return solve(fn)

        def counted(name, fn):
            def call(*args, **kwargs):
                kernel[name] += 1
                return fn(*args, **kwargs)

            return call

        def recorded_branch(f, g, alpha, points, *args, **kwargs):
            branch_points.append(points.size)
            return branch(f, g, alpha, points, *args, **kwargs)

        monkeypatch.setattr(catalog, "_derivative_roots", counted_roots)
        monkeypatch.setattr(_kernels, "laurent_derivs", counted("derivs", derivs))
        monkeypatch.setattr(_kernels, "winding_sum", counted("winding", winding))
        monkeypatch.setattr(loewner, "power_branch_slices", recorded_branch)
        f, g = uv.laurent(1, 0, [0.1, 0.02]), uv.joukowski(0.2)
        spec = ChainSpec(f=f, g=g, h=uv.inverse_square(0.1), alpha=0.4 + 0.1j)
        rep = audit_pommerenke(spec)
        assert rep.passed
        n = len(DEFAULT_T_SAMPLES)
        assert roots == Counter({f: 1, g: 1})
        assert kernel["derivs"] <= 8
        assert branch_points == [3920]
        assert kernel["winding"] == n - 1

        kernel.clear()
        audit_pommerenke(spec, t_samples=np.linspace(0.0, 4.0, 11))
        assert kernel["derivs"] <= 8
        assert kernel["winding"] == 10


def _standalone(fn, spec, z, t):
    """``fn(spec, z, t)``, or the chain error it raises."""
    try:
        return fn(spec, z, t)
    except (CriticalPoint, DenominatorVanishes, EvaluationFailure, HVanishes) as exc:
        return exc


def _same(got, want) -> bool:
    """A sample equals its standalone evaluation: bitwise the same values,
    NaN positions included, or an error of the same type and message."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, Exception) and np.array_equal(got, want, equal_nan=True)


def assert_samples_standalone(spec, ts):
    """Every audit sample, views of the doubled contour and the one w pass
    included, is what ``_chain_slices`` or ``chain_w_values`` gives for its
    slice alone; returns the number of samples that are errors."""
    z = default_z_samples()
    contour, doubled, probes_z = nodes = _audit_nodes()
    samples, probes = _audit_samples(spec, ts, z, nodes)
    assert len(samples) == len(ts) and len(probes) == len(ts) - 1
    errors = 0
    for t, (grid, on_contour, on_doubled, w) in zip(ts, samples):
        for got, fn, zs, at in (
            (grid, chain_rows, z, t),
            (on_contour, chain_rows, contour, t),
            (on_doubled, chain_rows, doubled, t),
            (w, chain_w_values, z, t),
        ):
            want = _standalone(fn, spec, zs, at)
            assert _same(got, want), (fn.__name__, zs.size, at, got, want)
            errors += isinstance(want, Exception)
    for got, t in zip(probes, ts[:-1]):
        want = _standalone(chain_rows, spec, probes_z, t)
        assert _same(got, want), (t, got, want)
        errors += isinstance(want, Exception)
    return errors


def _laurent_or_joukowski(c1, c2, joukowski):
    return uv.joukowski(c1) if joukowski else uv.laurent(1, 0, [c1, c2])


small = st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False)


class TestAuditSamples:
    def test_contour_views_are_bitwise_standalone_nodes(self):
        _, doubled, _ = _audit_nodes()
        first_circle = default_z_samples()[: len(doubled) // 8]
        assert np.array_equal(doubled[::2], circle_points(0.5, 256))
        assert np.array_equal(doubled[::8], first_circle)

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
        "f,g,alpha,ts",
        [
            # the root of f' on the ray to grid points at t = 0
            ("joukowski:1.5", "identity", -1.0, DEFAULT_T_SAMPLES),
            # the pole of f at the first node of both contours at t = 0
            ("moebius:1,0,1,-2:identity", "identity", 0.5, DEFAULT_T_SAMPLES),
            # a pole on the ray to an even node of the doubled contour
            ("moebius:1,0,0.1,1:joukowski:0.3", "laurent:1;0;0.1-0.05j,0.03j", 0.3, (0.0, 0.25)),
            # every chain value overflows
            (
                "moebius:1e-160,1e-300,1e-300,-1.29-1.19e-07j:"
                "laurent:2.22e-16-0.702j;0.716+2.88j;1e-300+1e-300j",
                "joukowski:-0.774",
                -1.0,
                (0.0, 1.0),
            ),
        ],
        ids=["root_on_ray", "moebius_pole", "moebius_pole_on_ray", "overflow_chain"],
    )
    def test_failing_slices_equal_standalone_evaluation(self, f, g, alpha, ts):
        spec = ChainSpec(
            f=uv.make_sigma_function(f), g=uv.make_sigma_function(g), alpha=alpha
        )
        errors = assert_samples_standalone(spec, ts)
        if not f.startswith("moebius:1e-160"):
            assert errors


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
