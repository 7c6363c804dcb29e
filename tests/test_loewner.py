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
    InvalidPlan,
    InvalidSpec,
)
from univalence.criteria import theorem1
from univalence.loewner import (
    _CONTOUR,
    _Z_SAMPLES,
    A1_NODE_COUNT,
    A1_RADIUS,
    A1_RESIDUAL_TOL,
    DEFAULT_T_SAMPLES,
    LOEWNER_RESIDUAL_TOL,
    ChainSpec,
    _NODES,
    _audit_samples,
    audit_pommerenke,
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


SHIFTS = "moebius:1,-0.3,0,1:" + "moebius:1,0.1,0,1:" * 3


class TestSigma0Precondition:
    """The chain presumes f = z + O(1/z): an f outside Sigma0 fails the
    audit as a precondition, up to the rounding of the fold alone."""

    @pytest.mark.parametrize(
        "f,line",
        [
            ("moebius:1,0,1,-2:identity", "b = 0j, b0 = (1+0j)"),  # bounded at infinity
            ("laurent:2;0;0.1", "b = (2+0j), b0 = 0j"),
            ("laurent:1;1e-300", "b = (1+0j), b0 = (1e-300+0j)"),
            # b0 = 0.1 + 0.1 + 0.1 - 0.3 = 2.8e-17, the rounding of the fold
            (SHIFTS + "joukowski:0.3", None),
            (SHIFTS.replace("0.1,", "0.1000001,", 1) + "joukowski:0.3",
             "b = (1+0j), b0 = (1.0000000000287557e-07+0j)"),
            ("moebius:2,0,0,2:joukowski:0.3", None),
        ],
        ids=["bounded", "b_not_one", "tiny_b0", "rounded_b0", "small_b0", "scaled"],
    )
    def test_only_f_outside_sigma0_fails(self, f, line):
        spec = ChainSpec(f=uv.make_sigma_function(f), g=uv.identity(), alpha=0.0)
        rep = audit_pommerenke(spec, t_samples=(0.0,))
        sigma = [e for e in rep.errors if e.startswith("precondition: f is not in Sigma0: ")]
        assert sigma == ([] if line is None else [f"precondition: f is not in Sigma0: {line}"])
        if line is not None:
            assert rep.errors[0] == sigma[0] and not rep.passed


def chain_at(spec, ts, zs):
    """L over the times ``ts`` by the points ``zs``, a row per time, and
    its per-time errors, from ``_audit_samples`` with no point on the z
    grid."""
    (value, *_), (_, errors, _) = _audit_samples(spec, ts, np.asarray(zs, dtype=np.complex128), 0)
    return value, errors


class TestChainEval:
    """L from ``_audit_samples``, a row of values per time."""

    def test_trivial_chain_is_exponential(self):
        spec = trivial_spec()
        assert abs(chain_at(spec, (LN2,), [0.5])[0][0, 0] - 1.0) <= 1e-12
        zs = np.array([0.1, 0.5j, -0.8, 0.6 - 0.3j])
        ts = (0.0, 0.3, 1.0, 2.0)
        rows, errors = chain_at(spec, ts, zs)
        assert errors == [None] * len(ts)
        for t, values in zip(ts, rows):
            assert np.max(np.abs(values - np.exp(t) * zs)) <= 1e-12 * np.exp(t)

    def test_joukowski_example(self):
        spec = jouk_spec(0.5, alpha=0.7)
        assert abs(chain_at(spec, (LN2,), [1.0])[0][0, 0] - 1 / 0.9375) <= 1e-12

    def test_initial_value_inverts_f(self):
        spec = jouk_spec(0.5, alpha=0.25)
        assert abs(chain_at(spec, (0.0,), [0.5])[0][0, 0] - 1 / 2.25) <= 1e-12

    def test_initial_value_identity_all_specs(self):
        zs = np.concatenate([circle_points(0.5, 16), circle_points(0.9, 16)])
        for spec in CATALOG_SPECS:
            rows, errors = chain_at(spec, (0.0,), zs)
            fvals = spec.f.values(1.0 / zs)
            assert errors == [None] and np.max(np.abs(rows[0] * fvals - 1.0)) <= 1e-10

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
            # f, f', f'' and g', g'' from the scaled rows z^j u^(j)
            powers = np.stack([np.ones_like(zeta), zeta, zeta * zeta])
            fd = f.derivs((zeta, 1.0 / zeta), order=2) / powers
            gd = g.derivs((zeta, 1.0 / zeta), order=2) / powers
            ratio = gd[1] / fd[1]  # g'/f' and its derivative
            dratio = (gd[2] * fd[1] - gd[1] * fd[2]) / (fd[1] * fd[1])
            v = ratio**alpha
            dv = alpha * ratio ** (alpha - 1) * dratio
            ch = c * spec.h.values(zeta)
            want = (v + ch * dv) / (fd[0] * v + ch * (fd[1] * v + fd[0] * dv))
            rows, errors = chain_at(spec, (t,), z)
            got = rows[0]
            assert errors == [None]
            # both sides are double quotients; near |L| ~ 100 at t = 2 the
            # denominators cancel and each loses about two digits
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-12

    def test_domain_checks(self):
        # the audit's nodes are constants in the chain domain 0 < |z| <= 1;
        # a negative time is refused before anything is evaluated
        mods = np.abs(_NODES)
        assert np.all((mods > 0) & (mods <= 1.0 + 1e-12))
        with pytest.raises(InvalidPlan, match="^chain time must be nonnegative, got -0.1$"):
            chain_at(trivial_spec(), (0.5, -0.1), [0.5])
        with pytest.raises(InvalidPlan, match="^chain time must be nonnegative, got -0.1$"):
            _audit_samples(trivial_spec(), (-0.1, 1e300), _NODES, _Z_SAMPLES.size)


def grid_at(spec, ts, zs):
    """L, dL/dt, z dL/dz and w over the times ``ts`` by the points ``zs``,
    each with a row per time, and the per-time errors of L and of w, from
    ``_audit_samples`` with every point on the z grid."""
    zs = np.asarray(zs, dtype=np.complex128)
    rows, (errors, _, w_errors) = _audit_samples(spec, ts, zs, zs.size)
    return rows, errors, w_errors


class TestChainW:
    """w, the last of the rows ``_audit_samples`` gives on the z grid."""

    def test_w_vanishes_for_trivial_data(self):
        spec = jouk_spec(0.5, alpha=0.9)
        assert grid_at(spec, (0.0,), [0.5])[0][3][0, 0] == 0.0

    def test_w_at_zero_time_is_h_ratio(self):
        spec = ChainSpec(
            f=uv.joukowski(0.5), g=uv.identity(), h=uv.inverse_square(0.25), alpha=0.5
        )
        assert abs(grid_at(spec, (0.0,), [0.5])[0][3][0, 0] - (-1 / 17)) <= 1e-12
        zs = circle_points(0.8, 32)
        for spec in CATALOG_SPECS:
            rows, _, w_errors = grid_at(spec, (0.0,), zs)
            hv = spec.h.values(1.0 / zs)
            assert w_errors == [None] and np.max(np.abs(rows[3][0] - (1.0 - hv) / hv)) <= 1e-10

    def test_w_matches_becker_value(self):
        spec = jouk_spec(0.5)
        assert abs(grid_at(spec, (LN2,), [1.0])[0][3][0, 0] - (-6 / 7)) <= 1e-12

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
        ts = (0.25, LN2, 1.0)
        for spec in cases:
            p = uv.CriterionParams(f=spec.f, g=spec.g, h=spec.h, alpha=spec.alpha)
            rows, _, w_errors = grid_at(spec, ts, zs)
            assert w_errors == [None] * len(ts)
            for t, wv in zip(ts, np.abs(rows[3])):
                lhs = uv.evaluate_lhs(p, np.exp(t) / zs)
                assert np.max(np.abs(wv - lhs)) <= 1e-9

    def test_grid_rows_do_not_depend_on_the_other_nodes(self):
        # the z grid's rows are views of the one pass over every node: with
        # other nodes after the grid, or with none, they are bitwise the same
        spec = CATALOG_SPECS[3]
        zs = circle_points(0.8, 32)
        nodes = np.concatenate([zs, circle_points(0.5, 16)])
        ts = (0.0, 0.5, 2.0)
        alone, errors = _audit_samples(spec, ts, zs, zs.size)
        within, within_errors = _audit_samples(spec, ts, nodes, zs.size)
        assert errors == within_errors == ([None] * 3, [None] * 3, [None] * 3)
        assert within[0].shape == (3, nodes.size) and np.array_equal(within[0][:, : zs.size], alone[0])
        for got, want in zip(within[1:], alone[1:]):
            assert got.shape == want.shape == (3, zs.size) and np.array_equal(got, want)


class TestChainP:
    def test_disk_equivalence(self):
        # |w| < 1 iff Re p > 0 for the chain's p = (1-w)/(1+w), via the
        # identity |1+w|^2 Re p = 1 - |w|^2.
        spec = jouk_spec(0.45, alpha=0.3, h=uv.inverse_square(0.2))
        zs = circle_points(0.9, 16)
        for t in (0.1, 0.8):
            wv = grid_at(spec, (t,), zs)[0][3][0]
            pv = (1.0 - wv) / (1.0 + wv)
            lhs = np.abs(1.0 + wv) ** 2 * pv.real
            rhs = 1.0 - np.abs(wv) ** 2
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            assert np.all((np.abs(wv) < 1) == (pv.real > 0))


def unsquared_w(spec, z, t):
    """w with (f''/f' - g''/g') in place of its square in the alpha-term,
    from the criterion pieces at zeta = e^t/z, scaled by powers of zeta."""
    et = np.exp(t)
    zeta = et / z
    _, _, h0, h1, pf, sf, pg, sg = pieces(spec.f, spec.g, spec.h, (zeta, z / et))
    e2t, alpha = et * et, spec.alpha
    return (
        (1.0 - h0) / h0 * e2t
        - (e2t - 1.0) * (h1 / h0 + (1.0 - 2.0 * alpha) * pf + 2.0 * alpha * pg)
        + alpha * (e2t - 1.0) ** 2 / e2t * h0 * ((alpha - 0.5) * zeta * (pf - pg) + sf - sg)
    )


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
        """dL/dt and z dL/dz at the points z, from L alone."""
        step = self.STEP
        (later, earlier), errors = chain_at(spec, (t + step, t - step), z)
        (radial,), radial_errors = chain_at(spec, (t,), np.concatenate([z * np.exp(step), z * np.exp(-step)]))
        assert errors == [None] * 2 and radial_errors == [None]
        outer, inner = np.split(radial, 2)
        return (later - earlier) / (2 * step), (outer - inner) / (2 * step)

    def residual(self, spec, w, z, t):
        """max|dL/dt - z dL/dz p| / max|dL/dt| at the points z."""
        dt, zdz = self.differences(spec, z, t)
        p = (1.0 - w) / (1.0 + w)
        return np.max(np.abs(dt - zdz * p)) / np.max(np.abs(dt))

    @pytest.mark.parametrize("spec", SPECS, ids=["laurent_f", "laurent_g", "alpha_one"])
    def test_w_drives_the_chain(self, spec):
        z = circle_points(0.9, 16)
        for t in (0.25, 1.0, 2.0):
            w = grid_at(spec, (t,), z)[0][3][0]
            assert self.residual(spec, w, z, t) <= self.BOUND
            # the check can fail: the unsquared alpha-term drives no chain
            assert self.residual(spec, unsquared_w(spec, z, t), z, t) > self.BOUND + 1e-3

    @pytest.mark.parametrize("spec", SPECS, ids=["laurent_f", "laurent_g", "alpha_one"])
    def test_closed_form_derivatives(self, spec):
        # the rows given next to L on the z grid, against the differences of
        # L; that L is bitwise L off the grid
        z = circle_points(0.9, 16)
        for t in (0.25, 1.0, 2.0):
            rows, errors, _ = grid_at(spec, (t,), z)
            value, dt, zdz = (row[0] for row in rows[:3])
            assert errors == [None]
            assert np.array_equal(value, chain_at(spec, (t,), z)[0][0])
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
        batch = np.stack(grid_at(spec, (0.7,), z)[0])[:, 0]
        alone = [np.stack(grid_at(spec, (0.7,), z[k : k + 1])[0])[:, 0, 0] for k in range(z.size)]
        alone = np.stack(alone, axis=1)
        assert [int(np.sum(a != b)) for a, b in zip(batch, alone)] == [0, 0, 0, 0]


def doubled_h_term(pc, alpha, aa, am1):
    """theorem1 with its (1 - h)/h aa term counted twice."""
    return theorem1(pc, alpha, aa, am1) + (1.0 - pc.h0) / pc.h0 * aa


def flipped_alpha_term(pc, alpha, aa, am1):
    """theorem1 with the sign of its alpha-term flipped: pieces without S_f
    leave that term out."""
    without = theorem1(pc._replace(sf=None), alpha, aa, am1)
    return 2.0 * without - theorem1(pc, alpha, aa, am1)


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


class TestA1:
    """The a1 the audit records: the trapezoidal mean over the a1 contour."""

    def test_trivial_chain(self):
        ((t, a1, _),) = audit_pommerenke(trivial_spec(), t_samples=(1.0,)).a1_records
        assert t == 1.0 and abs(a1 - np.e) <= 1e-9

    def test_joukowski_series(self):
        records = audit_pommerenke(jouk_spec(0.5), t_samples=(0.0, LN2)).a1_records
        (t0, at_zero, _), (t1, at_ln2, _) = records
        assert (t0, t1) == (0.0, LN2)
        assert abs(at_zero - 1.0) <= 1e-9
        assert abs(at_ln2 - 2.0) <= 2e-6

    def test_exponential_law_across_catalog(self):
        ts = (0.0, 0.5, LN2, 1.0, 2.0)
        for spec in CATALOG_SPECS:
            records = audit_pommerenke(spec, t_samples=ts).a1_records
            assert [t for t, *_ in records] == list(ts)
            for t, a1, *_ in records:
                assert abs(a1 - np.exp(t)) / np.exp(t) <= 1e-6, (spec, t)

    def test_unnormalized_constant_term_breaks_the_law(self):
        # b0 != 0 puts a chain pole at z ~ 1/(b0 e^t); by t = 2 it is inside
        # the contour and the extracted coefficient goes wrong. The audit
        # refuses such an f as a precondition, before the law is read.
        spec = ChainSpec(
            f=uv.laurent(1, 0.3, [0.1]), g=uv.identity(), h=uv.constant_one(), alpha=0.5
        )
        rep = audit_pommerenke(spec)
        assert rep.errors == ("precondition: f is not in Sigma0: b = (1+0j), b0 = (0.3+0j)",)
        (residual,) = [res for t, _, res in rep.a1_records if t == 2.0]
        assert residual > 1e-3
        assert not rep.passed

    def test_residual_alone_fails_past_the_digit_loss(self):
        # f = g = z + 0.3/z: |w| <= 0.6 at every t, and the chain's rounding
        # error of about eps e^{2t} moves the a1 mean by 1.8e-8 at t = 10,
        # within A1_RESIDUAL_TOL, and by 8.7e-6 at t = 13, past it
        for t, passed in ((10.0, True), (13.0, False)):
            rep = audit_pommerenke(jouk_spec(0.3), t_samples=(t,))
            ((_, _, residual),) = rep.a1_records
            assert rep.max_abs_w < 0.61 and not rep.errors
            assert rep.loewner_residual <= LOEWNER_RESIDUAL_TOL
            assert (residual <= A1_RESIDUAL_TOL) == passed and rep.passed == passed


class TestTimeOrder:
    """Each chain time is judged alone, so the times may come in any order."""

    def test_swapped_times_pass(self):
        rep = audit_pommerenke(trivial_spec(), t_samples=(1.0, 0.0))
        assert rep.passed and not rep.errors

    def test_records_are_those_of_each_time_alone(self):
        ts = (2.0, 0.5, 0.0, 1.0, 0.0)
        spec = CATALOG_SPECS[3]
        rep = audit_pommerenke(spec, t_samples=ts)
        alone = [audit_pommerenke(spec, t_samples=(t,)) for t in ts]
        assert rep.a1_records == tuple(r for a in alone for r in a.a1_records)
        assert rep.max_abs_w == max(a.max_abs_w for a in alone)
        assert rep.loewner_residual == max(a.loewner_residual for a in alone)
        assert rep.passed and all(a.passed for a in alone)


class TestAudit:
    def test_trivial_chain_audit(self):
        rep = audit_pommerenke(trivial_spec())
        assert rep.max_abs_w == 0.0
        assert rep.passed
        assert all(res == 0.0 or res < 1e-12 for _, _, res in rep.a1_records)
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
        assert set(d) == {
            "max_abs_w",
            "witness_w",
            "a1",
            "loewner_residual",
            "errors",
            "pass",
        }
        assert d["pass"] is True
        assert all(set(r) == {"t", "re", "im", "residual"} for r in d["a1"])

    def test_nonfinite_chain_values_are_recorded(self):
        # f = 1e-310 z: the quotient's denominator is subnormal, so every
        # chain value overflows and every dt quotient is NaN
        rep = audit_pommerenke(SUBNORMAL_SPEC, t_samples=(0.0, 1.0))
        for t in (0.0, 1.0):
            assert f"chain grid at t={t}: non-finite chain value at z = (0.5+0j)" in rep.errors
        assert not rep.passed

    def test_nan_does_not_hide_slice_maximum(self, monkeypatch):
        from univalence import loewner

        exact = loewner._audit_samples

        def with_nan(spec, ts, nodes, n_grid):
            (value, dt, zdz, w), errors = exact(spec, ts, nodes, n_grid)
            i = ts.index(0.5)
            w[i, 0] = np.nan
            w[i, 1] = 1.5
            return (value, dt, zdz, w), errors

        monkeypatch.setattr(loewner, "_audit_samples", with_nan)
        z = loewner._Z_SAMPLES
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
        with pytest.raises(InvalidPlan, match="^t_samples must hold at least one time$"):
            audit_pommerenke(trivial_spec(), t_samples=())

    def test_large_time_records_overflow_without_warning(self):
        # e^t overflows past t of about 709: the samples at t = 1e300 are
        # recorded as errors, and no RuntimeWarning (an error in this suite)
        # escapes from the grid or the L pass
        spec = ChainSpec(f=uv.joukowski(0.3), g=uv.joukowski(0.2))
        rep = audit_pommerenke(spec, t_samples=(0.0, 1e300))
        assert rep.errors[0] == "w grid at t=1e+300: non-finite w at z = (0.5+0j)"
        assert rep.errors[-1].startswith("a1 at t=1e+300: ")
        assert [t for t, *_ in rep.a1_records] == [0.0]
        assert not rep.passed

    def test_one_evaluation_pass_per_audit(self, monkeypatch):
        # no root solve, since the coefficient bound of the precondition
        # rules out every root of both functions, and a fixed number of
        # kernel calls whatever the number of chain times: f, g and h
        # stacks to order 3, 3 and 1 in one pass over the times by the z
        # grid and the a1 contour (6 x 448 points at the default grids); no
        # winding call; no circle_points call, since the nodes are built
        # once, read-only
        from univalence import _kernels, catalog, loewner

        roots, kernel, kernel_points, passes = Counter(), Counter(), Counter(), []
        solve, derivs, winding, chain = (
            catalog._derivative_roots,
            _kernels.laurent_derivs_scaled,
            _kernels.winding_sum,
            loewner._audit_samples,
        )

        def counted_roots(fn):
            roots[fn] += 1
            return solve(fn)

        def counted(name, fn):
            def call(*args, **kwargs):
                kernel[name] += 1
                return fn(*args, **kwargs)

            return call

        def recorded_derivs(points, inv, b, b0, tail, order=4, first=0):
            kernel_points[points.size, order] += 1
            return derivs(points, inv, b, b0, tail, order, first)

        def recorded_chain(spec, ts, nodes, n_grid):
            passes.append((len(ts), nodes.size, n_grid))
            return chain(spec, ts, nodes, n_grid)

        monkeypatch.setattr(catalog, "_derivative_roots", counted_roots)
        monkeypatch.setattr(_kernels, "laurent_derivs_scaled", counted("derivs", recorded_derivs))
        monkeypatch.setattr(_kernels, "winding_sum", counted("winding", winding))
        monkeypatch.setattr(loewner, "_audit_samples", recorded_chain)
        monkeypatch.setattr(loewner, "circle_points", counted("circle_points", loewner.circle_points))
        f, g = uv.laurent(1, 0, [0.1, 0.02]), uv.joukowski(0.2)
        spec = ChainSpec(f=f, g=g, h=uv.inverse_square(0.1), alpha=0.4 + 0.1j)
        rep = audit_pommerenke(spec)
        assert rep.passed
        assert roots == Counter()
        assert kernel["derivs"] == 3
        # f and g (from g') to order 3 and h to order 1, each over 6 x 448 points
        assert kernel_points == Counter({(2688, 3): 2, (2688, 1): 1})
        assert passes == [(6, 448, 192)]
        assert kernel["winding"] == 0
        assert kernel["circle_points"] == 0
        for nodes in (loewner._NODES, loewner._Z_SAMPLES, loewner._CONTOUR):
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = nodes[0]

        kernel.clear()
        kernel_points.clear()
        passes.clear()
        audit_pommerenke(spec, t_samples=np.linspace(0.0, 4.0, 11))
        assert kernel["derivs"] == 3
        assert kernel_points == Counter({(4928, 3): 2, (4928, 1): 1})
        assert passes == [(11, 448, 192)]
        assert kernel["winding"] == 0

        # f = z - (1.5/16) z^-16, whose f' vanishes at |z| = 1.024, is beyond
        # the bound: one solve names its roots; g = identity needs none
        f16 = uv.laurent(1, 0, [0] * 15 + [-1.5 / 16])
        rep = audit_pommerenke(ChainSpec(f=f16, g=uv.identity(), alpha=0))
        assert roots == Counter({f16: 1})
        assert rep.errors[0].startswith("precondition: f' vanishes at ")
        assert rep.errors[0].endswith(" in |z| >= 1 (and 16 more there)")


def _rows_of(samples, i):
    """The rows of time i of ``_audit_samples``' output with their errors:
    L, dL/dt and z dL/dz on the z grid, L on the a1 contour, w."""
    (value, dt, zdz, w), (grid_errors, contour_errors, w_errors) = samples
    return [
        (np.stack([value[i, : dt.shape[1]], dt[i], zdz[i]]), grid_errors[i]),
        (value[i, dt.shape[1] :], contour_errors[i]),
        (w[i], w_errors[i]),
    ]


def assert_samples_standalone(spec, ts):
    """Every row of the audit's samples, one per time, is that time audited
    alone, and the same time over the z grid alone and over the a1 contour
    alone: bitwise the same values, NaN positions included, and an error of
    the same type and message, or none. L on the contour nodes that are z
    grid nodes (every fourth) is bitwise L on the grid. Returns the number
    of rows that are errors."""
    grid = _Z_SAMPLES.size
    samples = _audit_samples(spec, ts, _NODES, grid)
    (value, dt, zdz, w), (grid_errors, contour_errors, _) = samples
    assert value.shape == (len(ts), _NODES.size)
    assert dt.shape == zdz.shape == w.shape == (len(ts), grid)
    failed = 0
    for i, t in enumerate(ts):
        got = _rows_of(samples, i)
        on_grid = _rows_of(_audit_samples(spec, (t,), _Z_SAMPLES, grid), 0)
        on_contour = _rows_of(_audit_samples(spec, (t,), _CONTOUR, 0), 0)
        apart = [on_grid[0], on_contour[1], on_grid[2]]
        for want in (_rows_of(_audit_samples(spec, (t,), _NODES, grid), 0), apart):
            for (row, error), (want_row, want_error) in zip(got, want):
                assert type(error) is type(want_error) and str(error) == str(want_error), (error, want_error)
                assert np.array_equal(row, want_row, equal_nan=True), (row, want_row)
        failed += sum(error is not None for _, error in got)
        if grid_errors[i] is None and contour_errors[i] is None:
            shared = value[i, grid:][::4]
            assert np.array_equal(shared, value[i, : shared.size], equal_nan=True), t
    return failed


# 1/z at the first node of the a1 contour off the z grid, at t = 0, as the
# chain's one pass computes it: a pole of f there fails that contour alone.
_OFF_GRID_NODE_ZETA = complex((np.exp(np.zeros(1)) / _CONTOUR[1:2])[0])


def _laurent_or_joukowski(c1, c2, joukowski):
    return uv.joukowski(c1) if joukowski else uv.laurent(1, 0, [c1, c2])


small = st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False)


class TestAuditSamples:
    def test_a1_contour_holds_the_first_grid_circle(self):
        # the grid's circle of radius A1_RADIUS is every fourth contour node,
        # so the contour's odd nodes lie off the grid
        first_circle = _Z_SAMPLES[: A1_NODE_COUNT // 4]
        assert np.array_equal(_CONTOUR, circle_points(A1_RADIUS, A1_NODE_COUNT))
        assert np.array_equal(_CONTOUR[::4], first_circle)

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
        # w from the audit's stacks, where the chain itself reads no g
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
        z = _Z_SAMPLES
        samples, errors = _audit_samples(spec, DEFAULT_T_SAMPLES, _NODES, z.size)
        assert errors[0] == [None] * len(DEFAULT_T_SAMPLES)
        critical = []
        for t, w, error in zip(DEFAULT_T_SAMPLES, samples[3], errors[2]):
            t = np.full(z.size, t)
            pc = pieces(spec.f, spec.g, spec.h, (np.exp(t) / z, z * np.exp(-t)))
            if ((pc.f1 == 0) | (pc.g1 == 0)).any():
                critical.append(t[0])
                assert isinstance(error, CriticalPoint) and np.isnan(w).all()
            else:
                aa = np.exp(2.0 * t)
                want = theorem1(pc, spec.alpha, aa, aa - 1.0)
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
            # the pole of f at the first node of the grid and the contour at t = 0
            ("moebius:1,0,1,-2:identity", "identity", 0.5, DEFAULT_T_SAMPLES, True),
            # a pole at a node of the a1 contour off the z grid: the grid,
            # evaluated alone, is clean
            (f"moebius:1,0,1,{-_OFF_GRID_NODE_ZETA}:identity", "laurent:1;0;0.1-0.05j,0.03j", 0.3,
             (0.0, 0.25), True),
            # every chain value overflows, with no error
            ("laurent:1e-310;0", "identity", 0.0, (0.0, 1.0), False),
        ],
        ids=["critical_point_on_grid", "moebius_pole", "pole_off_the_grid", "subnormal_f"],
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
