"""Independent 40-digit reference (mpmath) for the criterion LHS and the
Loewner chain.

Every reference value is recomputed from the catalog coefficients with
mpmath, by paths that share no code with the package: derivatives in closed
form through the chain rule, the chain from v = (g'/f')^alpha itself, with
the branch of log(g'/f') as the principal log at a ray's start plus the
quadrature of g''/g' - f''/f' along the ray (no root finding), the chain's
dL/dt and z dL/dz by numerical differentiation, the driving function w from
the Loewner equation dL/dt = z L' (1 - w)/(1 + w), and a1 by a 40-digit
trapezoidal rule.
"""

import functools
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import univalence as uv
from univalence.criteria import CRITERIA, CriterionParams, evaluate_lhs
from univalence.loewner import ChainSpec, _audit_samples, audit_pommerenke
from univalence.region import estimate_sup

from conftest import exterior_points

# Agreement demanded of the double-precision results, relative (floored at 1).
LHS_TOL = 1e-12  # Schwarzians of Moebius maps lose about three digits
CHAIN_TOL = 1e-13
# The closed-form pieces of a c != 0 Moebius map over another Moebius map,
# one folded level over the innermost Laurent map.
FOLD_TOL = 2e-14

LAURENT_F = uv.laurent(1, 0, [0.2 - 0.1j, 0.05j, -0.02])
# A pole at z = -11.99 + 16.01i, off every sampled ray of the scan tests;
# test_criterion_lhs_near_the_moebius_pole samples beside it.
MOEBIUS_F = uv.moebius_of(uv.joukowski(0.3), 1, 0.1j, 0.03 + 0.04j, 1)
# The outer map cancels the inner one's pole at z ~ -50: (1 + 0.1i) f.
NESTED_F = uv.moebius_of(uv.moebius_of(LAURENT_F, 1, 0, 0.02, 1), 1 + 0.1j, 0, -0.02, 1)
PAIRS = [
    (uv.joukowski(0.4), uv.laurent(1, 0, [0.1 + 0.05j, -0.03j])),
    (LAURENT_F, uv.identity()),
    (MOEBIUS_F, uv.joukowski(0.2 - 0.1j)),
    (uv.identity(), NESTED_F),
]


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


@functools.lru_cache(maxsize=None)
def mp_coeffs(fn):
    """Catalog coefficients as mpmath numbers (exact: they are doubles)."""
    if fn.levels:
        return tuple(mp.mpc(complex(x)) for x in fn.levels[0])
    b, b0, tail = fn.lower_coeffs()
    return mp.mpc(complex(b)), mp.mpc(complex(b0)), [mp.mpc(complex(t)) for t in tail]


def mp_derivs(fn, z):
    """fn, fn', fn'', fn''' at z; Moebius maps by the chain rule."""
    if fn.levels:
        a, b, c, d = mp_coeffs(fn)
        g0, g1, g2, g3 = mp_derivs(replace(fn, levels=fn.levels[1:]), z)
        q = c * g0 + d
        det = a * d - b * c
        return [
            (a * g0 + b) / q,
            det * g1 / q**2,
            det * (g2 / q**2 - 2 * c * g1**2 / q**3),
            det * (g3 / q**2 - 6 * c * g1 * g2 / q**3 + 6 * c**2 * g1**3 / q**4),
        ]
    b, b0, tail = mp_coeffs(fn)
    out = [b * z + b0, b, 0, 0]
    x = 1 / z
    term = x
    for k, t in enumerate(tail, 1):
        tk = t * term  # t_k z^-k
        out[0] += tk
        out[1] -= k * tk * x
        out[2] += k * (k + 1) * tk * x**2
        out[3] -= k * (k + 1) * (k + 2) * tk * x**3
        term *= x
    return out


def mp_pieces(fn, z):
    """fn, z fn', z fn''/fn' and z^2 S_fn at z, from ``mp_derivs``: the
    pieces ``MeromorphicFn.pieces`` reads in closed form."""
    d = mp_derivs(fn, z)
    p = d[2] / d[1]
    return [d[0], z * d[1], z * p, z**2 * (d[3] / d[1] - mp.mpf(3) / 2 * p**2)]


def closed_form_pieces(fn, points):
    """The rows f, z f', z f''/f' and z^2 S_f of ``fn.pieces`` at ``points``
    and 1.0 / points, as ``evaluate_lhs`` reads them."""
    points = np.asarray(points, dtype=np.complex128)
    return np.array(fn.pieces((points, 1.0 / points), 3, 0))


def mp_ratio(f, g, z):
    return mp_derivs(g, z)[1] / mp_derivs(f, z)[1]


def mp_log_ratio(f, g, zeta):
    """log(g'/f') at zeta: Log ratio at the ray's start zeta_s plus the
    integral of g''/g' - f''/f' along the ray from zeta_s to zeta, taken in
    s = log(zeta/z) so that the integrand is smooth over the whole ray."""
    zeta = mp.mpc(zeta)
    start_radius = 1e6  # far past every zero and pole of the pairs tested
    s_start = mp.log(start_radius / abs(zeta))

    def integrand(s):
        z = zeta * mp.exp(s)
        fd, gd = mp_derivs(f, z), mp_derivs(g, z)
        return (gd[2] / gd[1] - fd[2] / fd[1]) * z

    nodes = [s_start / 4**k for k in range(4)] + [0]
    integral, error = mp.quad(integrand, nodes, method="gauss-legendre", error=True)
    assert error < mp.mpf(10) ** -30
    return mp.log(mp_ratio(f, g, zeta * mp.exp(s_start))) + integral


def mp_lhs(params, z):
    """Criterion LHS modulus at z (a double, or an mpmath point taken as
    it is), transcribed term by term."""
    z = z if isinstance(z, mp.mpc) else mp.mpc(complex(z))
    f, g, h = (mp_derivs(fn, z) for fn in (params.f, params.g, params.h))
    pf, pg = f[2] / f[1], g[2] / g[1]
    sf = f[3] / f[1] - mp.mpf(3) / 2 * pf**2
    sg = g[3] / g[1] - mp.mpf(3) / 2 * pg**2
    aa = abs(z) ** 2
    if params.criterion == "becker":
        return (aa - 1) * abs(z * pf)
    if params.criterion == "nehari":
        return (aa - 1) ** 2 * abs(sf) / 2
    ratio = (1 - h[0]) / h[0]
    hh = z * h[1] / h[0]
    phase = z / mp.conj(z)
    if params.criterion == "alpha_zero":
        t = ratio * aa - (aa - 1) * (hh + z * pf)
    elif params.criterion == "miazga_wesolowski":
        t = (
            ratio * aa
            - (aa - 1) * (hh + z * pg)
            + (aa - 1) ** 2 / 2 * phase * h[0] * (sf - sg)
        )
    elif params.criterion == "epstein":
        t = (aa - 1) ** 2 / 2 * phase * (sf - sg) - (aa - 1) * z * pg
    else:
        a = mp.mpc(params.alpha)
        diff = (pf - pg) ** 2
        t = (
            ratio * aa
            - (aa - 1) * (hh + (1 - 2 * a) * z * pf + 2 * a * z * pg)
            + a * (aa - 1) ** 2 * phase * h[0] * ((a - mp.mpf(1) / 2) * diff + sf - sg)
        )
    return abs(t)


class MpChain:
    """The chain L(z, t) = (v + c h v')/(u + c h u') at 40 digits, with u = f v,
    v = (g'/f')^alpha and c = (e^-t - e^t)/z. The branch of log(g'/f') comes
    from one quadrature per ``base`` = (zeta0, log at zeta0), and reaches
    nearby points by a principal log of the ratio's quotient."""

    def __init__(self, spec):
        self.spec = spec
        self.alpha = mp.mpc(spec.alpha)

    def base(self, z, t):
        zeta = mp.exp(t) / z
        return zeta, mp_log_ratio(self.spec.f, self.spec.g, zeta)

    def log_near(self, zeta, base):
        zeta0, log0 = base
        f, g = self.spec.f, self.spec.g
        return log0 + mp.log(mp_ratio(f, g, zeta) / mp_ratio(f, g, zeta0))

    def value(self, z, t, base):
        spec, a = self.spec, self.alpha
        zeta = mp.exp(t) / z
        f, g, h = (mp_derivs(fn, zeta) for fn in (spec.f, spec.g, spec.h))
        v = mp.exp(a * self.log_near(zeta, base))
        v1 = a * v * (g[2] / g[1] - f[2] / f[1])
        c = (mp.exp(-t) - mp.exp(t)) / z
        return (v + c * h[0] * v1) / (f[0] * v + c * h[0] * (f[1] * v + f[0] * v1))

    def derivs(self, z, t, base):
        """dL/dt, z dL/dz and the driving function w from the Loewner
        equation: p = L_t / (z L_z)."""
        lt = mp.diff(lambda s: self.value(z, s, base), t)
        zlz = z * mp.diff(lambda y: self.value(y, t, base), z)
        p = lt / zlz
        return lt, zlz, (1 - p) / (1 + p)

    def a1(self, t, radius=0.5, nodes=128):
        """First Taylor coefficient by the trapezoidal rule on |z| = radius;
        the log branch is carried from node to node."""
        total, base = 0, None
        for j in range(nodes):
            z = radius * mp.expjpi(mp.mpf(2 * j) / nodes)
            zeta = mp.exp(t) / z
            base = self.base(z, t) if base is None else (zeta, self.log_near(zeta, base))
            total += self.value(z, t, base) / z
        return total / nodes


def rel_error(got, want):
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))


def test_moebius_over_moebius_pieces():
    rng = np.random.default_rng(0)

    def coeff(scale=1.0):
        return complex(*rng.normal(scale=scale, size=2))

    for k in range(24):
        u = uv.laurent(coeff(), coeff(0.3), [coeff(0.3) for _ in range(k % 4)])
        inner = uv.moebius_of(u, coeff(), coeff(), coeff(0.3) if k % 2 else 0, coeff())
        fn = uv.moebius_of(inner, coeff(), coeff(), coeff(0.3), coeff())
        points = exterior_points(rng, 16, 1.1, 10.0)
        want = [[complex(x) for x in mp_pieces(fn, mp.mpc(complex(z)))] for z in points]
        assert rel_error(closed_form_pieces(fn, points), np.transpose(want)) <= FOLD_TOL


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion_lhs(criterion):
    points = exterior_points(np.random.default_rng(7), 6, 1.05, 20.0)
    for f, g in PAIRS[:3]:
        params = CriterionParams(f, g, uv.inverse_square(0.2 - 0.1j), 0.35 + 0.1j, criterion)
        ref = np.array([float(mp_lhs(params, z)) for z in points])
        assert rel_error(evaluate_lhs(params, points), ref) <= LHS_TOL


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion_lhs_near_the_moebius_pole(criterion):
    # points 0.05 to 0.5 from MOEBIUS_F's pole at -11.99 + 16.01i, where
    # S_f as a difference of terms of size |f''/f'|^2 lost up to 7 digits;
    # S_f = S_u keeps them, and z f''/f' = z u''/u' - 2c z u'/(c u + d)
    # keeps those of the criteria that read it
    pole = -11.99101053 + 16.01200394j
    points = pole + np.array([0.5, 0.45j, -0.31, -0.2 - 0.2j, 0.1j, 0.05])
    for g, h, alpha in [
        (uv.identity(), uv.constant_one(), 0.5),
        (uv.joukowski(0.2 - 0.1j), uv.inverse_square(0.2 - 0.1j), 0.35 + 0.1j),
    ]:
        params = CriterionParams(MOEBIUS_F, g, h, alpha, criterion)
        ref = np.array([float(mp_lhs(params, z)) for z in points])
        assert rel_error(evaluate_lhs(params, points), ref) <= LHS_TOL


# The scan's rows checked at their exact polar points: r_min = 1.001, a
# middle row, r_max and the 2 r_max circle. Far out the LHS is a difference
# of larger terms (the bracket's grow like |z|^2; for MOEBIUS_F the two
# terms of S_f are O(|z|^-2), S_f is O(|z|^-4)), so doubles lose about
# 2 log10 |z| digits, at the rounded z and on the polar grid alike: at the
# default r_max = 50 the 2 r_max circle reads up to 9.3e-12. r_max = 10
# keeps every row within LHS_TOL, as |z| <= 20 does for test_criterion_lhs.
POLAR_PLAN = uv.SamplingPlan(r_max=10.0, radial_count=5, angular_count=7, refine_depth=0)


def polar_params():
    for criterion in CRITERIA:
        for f, g in PAIRS[:3]:
            yield CriterionParams(f, g, uv.inverse_square(0.2 - 0.1j), 0.35 + 0.1j, criterion)


@functools.lru_cache(maxsize=None)
def mp_polar_rows(params):
    """The 40-digit LHS at r e^{i theta}, from the float r and theta of each
    checked row of POLAR_PLAN and each of its angles."""
    plan = POLAR_PLAN
    radii = plan.radii()
    with mp.workdps(40):
        return np.array([
            [float(mp_lhs(params, mp.mpf(r) * mp.expj(theta))) for theta in plan.angles()]
            for r in (radii[0], radii[2], radii[-1], 2.0 * plan.r_max)
        ])


def polar_scan_error():
    """The largest relative error (floored at 1) of the scan's values on the
    checked rows of POLAR_PLAN, over every criterion and three pairs."""
    worst = 0.0
    for params in polar_params():
        sink = []
        estimate_sup(params, POLAR_PLAN, grid_sink=sink)
        rows = sink[0][1].reshape(POLAR_PLAN.radial_count, POLAR_PLAN.angular_count)
        got = np.stack([rows[0], rows[2], rows[-1], sink[-1][1]])
        worst = max(worst, rel_error(got, mp_polar_rows(params)))
    return worst


def test_scan_at_exact_polar_points():
    # the scan's scaled rows, |z|^2 - 1 = (r-1)(r+1) and phase 1/|z|^2 hold
    # the LHS at the polar point r e^{i theta} itself, the 2 r_max circle
    # included
    assert polar_scan_error() <= LHS_TOL


@pytest.mark.parametrize(
    "fn",
    [LAURENT_F, uv.moebius_of(LAURENT_F, 2, 0.5j, 0, 1), MOEBIUS_F, NESTED_F],
    ids=["laurent", "moebius_c0", "moebius_c", "nested"],
)
def test_scaled_pieces_at_exact_polar_points(fn):
    # the scan's pieces f, z f', z f''/f' and z^2 S_f, from z = r u and
    # 1/z = conj(u)/r, at r e^{i theta} (float r and theta) on POLAR_PLAN's
    # rows and its 2 r_max circle
    plan = POLAR_PLAN
    radii, units = np.append(plan.radii(), 2.0 * plan.r_max), np.exp(1j * plan.angles())
    z, inv = radii[:, None] * units, (1.0 / radii)[:, None] * np.conj(units)
    got = np.array(fn.pieces((z, inv), 3, 0))
    want = [
        [[complex(x) for x in mp_pieces(fn, z)] for z in
         (mp.mpf(r) * mp.expj(theta) for theta in plan.angles())]
        for r in radii
    ]
    assert rel_error(got, np.moveaxis(np.array(want), -1, 0)) <= FOLD_TOL


def chain_spec(pair):
    f, g = PAIRS[pair]
    return ChainSpec(f, g, uv.inverse_square(0.15 + 0.05j), 0.4 - 0.1j)


@pytest.mark.parametrize("pair", range(len(PAIRS)))
def test_chain_values_and_w(pair):
    # w from the Loewner equation is the theorem1 bracket's closed form, and
    # the grid pass's derivative rows are those of the chain's value; L from
    # both passes
    spec = chain_spec(pair)
    ref = MpChain(spec)
    zs = np.array([0.9 * np.exp(0.4j), np.exp(-1.9j)])
    for t in (0.0, 2.0):
        values, ws, derivs = [], [], []
        for z in zs:
            z_mp, t_mp = mp.mpc(complex(z)), mp.mpf(t)
            base = ref.base(z_mp, t_mp)
            values.append(complex(ref.value(z_mp, t_mp, base)))
            lt, zlz, w = (complex(x) for x in ref.derivs(z_mp, t_mp, base))
            derivs.append((lt, zlz))
            ws.append(w)
        (chain, *_), (_, errors, _) = _audit_samples(spec, (t,), zs, 0)
        (value, dt, zdz, w), (grid_errors, _, w_errors) = _audit_samples(spec, (t,), zs, zs.size)
        assert errors == grid_errors == w_errors == [None]
        for got in (chain[0], value[0]):
            assert rel_error(got, np.array(values)) <= CHAIN_TOL
        assert rel_error(np.stack([dt[0], zdz[0]]), np.transpose(derivs)) <= CHAIN_TOL
        assert rel_error(w[0], np.array(ws)) <= CHAIN_TOL


def test_boundary_bridge():
    # |w(z, t)| on |z| = 1 is the master criterion's LHS at e^t/z
    spec = chain_spec(0)
    params = CriterionParams(spec.f, spec.g, spec.h, spec.alpha, "theorem1")
    zs = np.exp(1j * np.array([0.3, 2.0, -2.8]))
    for t in (0.25, 1.0):
        want = np.array([float(mp_lhs(params, np.exp(t) / z)) for z in zs])
        (*_, w), (_, _, w_errors) = _audit_samples(spec, (t,), zs, zs.size)
        assert w_errors == [None] and rel_error(np.abs(w[0]), want) <= CHAIN_TOL


@pytest.mark.parametrize("pair", [0, 3])
def test_audit_a1(pair):
    # the a1 the audit records; pairs whose chain is analytic in the disk:
    # MOEBIUS_F's pole would put a branch point of v inside the contour
    spec = chain_spec(pair)
    records = audit_pommerenke(spec, t_samples=(0.0, 1.0)).a1_records
    assert [t for t, *_ in records] == [0.0, 1.0]
    for t, a1, *_ in records:
        want = complex(MpChain(spec).a1(mp.mpf(t)))
        assert abs(a1 - want) <= CHAIN_TOL * abs(want)


def test_chain_where_the_log_ratio_leaves_the_principal_branch():
    # g' = (1 - 1.3/z)(1 - 1.5/z)(1 + 2.8/z): a ray passing just beside both
    # zeros on the positive axis turns log(g'/f') by nearly 2 pi, so at the
    # first three zeta the branch MpChain continues along the ray is off the
    # principal one by 2 pi i. The chain reads v only through v'/v, which no
    # branch changes, and agrees with MpChain there.
    f, g = uv.joukowski(0.2), uv.laurent(1, 0, [5.89, -2.73])
    spec = ChainSpec(f, g, uv.inverse_square(0.15 + 0.05j), 0.3 + 0.2j)
    ref = MpChain(spec)
    t = 0.05
    zetas = np.array([1.2 * np.exp(0.05j), 1.2 * np.exp(-0.05j), 1.1 * np.exp(0.1j), 2j])
    zs = np.exp(t) / zetas
    values, derivs, sheets = [], [], []
    for z in zs:
        z_mp, t_mp = mp.mpc(complex(z)), mp.mpf(t)
        zeta, log_ratio = base = ref.base(z_mp, t_mp)
        sheets.append(int(mp.nint((log_ratio - mp.log(mp_ratio(f, g, zeta))).imag / (2 * mp.pi))))
        values.append(complex(ref.value(z_mp, t_mp, base)))
        derivs.append([complex(x) for x in ref.derivs(z_mp, t_mp, base)[:2]])
    assert sheets == [1, -1, 1, 0]
    (chain, *_), (_, errors, _) = _audit_samples(spec, (t,), zs, 0)
    assert errors == [None] and rel_error(chain[0], np.array(values)) <= CHAIN_TOL
    (_, dt, zdz, _), _ = _audit_samples(spec, (t,), zs, zs.size)
    assert rel_error(np.stack([dt[0], zdz[0]]), np.transpose(derivs)) <= CHAIN_TOL
