"""The mutant matrix: checks that can really fail.

Each entry replaces one program constant or function in process and names
the one check that must fail under it. A check is a verdict or an invariant
on a stated input, never a golden byte pin: it holds on the program as it
is, and fails under its mutant. A function mutant is the function rebuilt
from its own source with one textual replacement, which must match exactly
once, installed at every name a caller looks the function up by.

A check added to the program adds its mutant here.
"""

import __future__
import contextlib
import inspect
import io
import textwrap
from typing import NamedTuple

import numpy as np
import pytest

import univalence as uv
from univalence import _kernels, catalog, cli, criteria, loewner, oracle, region
from univalence.catalog import ROOT_BAND
from univalence.errors import PointTooCloseToContour
from univalence.loewner import ChainSpec, audit_pommerenke
from univalence.oracle import winding_rows

import test_reference
from test_loewner import _OFF_GRID_NODE_ZETA


def rebuilt(fn, old: str, new: str):
    """``fn`` compiled from its own source with ``old`` replaced by ``new``,
    in a copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (fn.__name__, old)
    namespace = dict(fn.__globals__)
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec", flags, True), namespace)
    return namespace[fn.__name__]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

# S_f != S_g, alpha != 1/2 and h != 1: every term of w is live.
LIVE_W = ChainSpec(
    f=uv.laurent(1, 0, [0.1, 0.02]),
    g=uv.joukowski(0.2),
    h=uv.inverse_square(0.1),
    alpha=0.4 + 0.1j,
)


def loewner_residual_holds():
    """w drives the chain: the audit's Loewner residual of LIVE_W is within
    its bound."""
    return audit_pommerenke(LIVE_W).loewner_residual <= loewner.LOEWNER_RESIDUAL_TOL


def wrong_w_is_refused():
    """The audit fails LIVE_W driven by a w whose (1 - h)/h term is counted
    twice, where |w| < 1 and only the Loewner residual can see it."""
    theorem1 = loewner.theorem1

    def doubled_h_term(pc, alpha, aa, am1):
        return theorem1(pc, alpha, aa, am1) + (1.0 - pc.h0) / pc.h0 * aa

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(loewner, "theorem1", doubled_h_term)
        report = audit_pommerenke(LIVE_W)
    return report.max_abs_w < 1.0 and not report.passed


def pole_beyond_the_a1_contour_fails():
    """f = g = z + 1.2: L(z, t) = e^t z/(1 + 1.2 e^t z) has its pole at
    |z| = e^-t/1.2, in the disk but beyond the a1 contour, where |w| = 0,
    the a1 mean and the Loewner residual all hold; the audit at the times
    (0, 0.1) fails."""
    f = uv.laurent(1, 1.2)
    return not audit_pommerenke(ChainSpec(f=f, g=f), t_samples=(0.0, 0.1)).passed


def a1_law_fails_past_the_digit_loss():
    """f = g = z + 0.3/z at t = 13: |w| <= 0.6, and the chain's rounding
    error of about eps e^{2t} moves the a1 mean by 8.7e-6, past
    A1_RESIDUAL_TOL; the audit fails."""
    spec = ChainSpec(f=uv.joukowski(0.3), g=uv.joukowski(0.3))
    return not audit_pommerenke(spec, t_samples=(13.0,)).passed


def scan_holds_at_exact_polar_points():
    """The scan's values on the rows of test_reference.POLAR_PLAN agree
    with the 40-digit LHS at the exact polar points r e^{i theta}, for every
    criterion, within test_reference.LHS_TOL."""
    return test_reference.polar_scan_error() <= test_reference.LHS_TOL


def check_fails_an_off_grid_pole():
    """f = z/(z - 2) has a pole at z = 2, off every sampled ray of the
    default plan, where the scan reads sup 2.2e-11: check fails it (exit 1)
    on the root precondition."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["check", "--f", "moebius:1,0,1,-2:identity"]) == 1


def pole_at_an_off_grid_contour_node_fails_that_contour_alone():
    """f = z/(z - zeta0) has its pole at the zeta0 = 1/z of the first a1
    contour node off the z grid at t = 0: past its preconditions, the audit
    at the times (0, 0.25) records one error, for the contour at t = 0, and
    it names that node's zeta, not only a non-finite a1 mean."""
    f = uv.make_sigma_function(f"moebius:1,0,1,{-_OFF_GRID_NODE_ZETA}:identity")
    spec = ChainSpec(f=f, g=uv.make_sigma_function("laurent:1;0;0.1-0.05j,0.03j"), alpha=0.3)
    errors = [e for e in audit_pommerenke(spec, t_samples=(0.0, 0.25)).errors if not e.startswith("precondition")]
    return len(errors) == 1 and errors[0].startswith("a1 at t=0.0: ") and str(_OFF_GRID_NODE_ZETA) in errors[0]


def median_spacing_is_the_median():
    """On a 3 x 6 grid of random points, whose 30 neighbour gaps are an even
    count, the oracle's median spacing is np.median of the same gaps."""
    plan = uv.SamplingPlan(radial_count=3, angular_count=6)
    grid = np.array([1.0, 1j]) @ np.random.default_rng(7).normal(size=(2, 18))
    mesh = grid.reshape(3, 6)
    gaps = np.r_[np.abs(mesh - np.roll(mesh, 1, axis=1)).ravel(), np.abs(mesh[1:] - mesh[:-1]).ravel()]
    return gaps.size % 2 == 0 and oracle._median_neighbor_spacing(grid, plan) == np.median(gaps)


# Maps whose u' vanishes in |z| >= rho = 1 - ROOT_BAND.
ROOTS_OUTSIDE = {
    # z - (1.5/16) z^-16: 17 zeros at |z| = 1.5^(1/17) = 1.024
    "n16": uv.laurent(1, 0, [0] * 15 + [-1.5 / 16]),
    # zeros at |z| = 1 - ROOT_BAND/2, in the band
    "band": uv.joukowski((1.0 - 0.5 * ROOT_BAND) ** 2),
    # b z + t z^-6 at the tie 6 |t| = |b| rho^7: its zeros lie 3.9e-18
    # outside rho (40-digit), and the computed bound falls below |b| by
    # rounding alone
    "tie": uv.laurent(0.7 * np.exp(0.4j), 0, [0] * 5 + [0.11666666585000002]),
    # b = 5(1+i) and each t_k = 1+i in units of 2^-1074: a zero near
    # z = 1.05, with |b| below the normal range
    "subnormal": uv.make_sigma_function(
        "laurent:2.5e-323+2.5e-323j;0;5e-324+5e-324j,5e-324+5e-324j,5e-324+5e-324j"
    ),
}


def bound_keeps(name):
    """The coefficient bound does not rule out the zeros of u' of the map
    ROOTS_OUTSIDE[name]."""

    def check():
        return not catalog._bound_excludes_roots(ROOTS_OUTSIDE[name])

    check.__name__ = f"bound_keeps_{name}"
    return check


def probe_on_a_segment_has_no_winding_number():
    """A probe at the midpoint of a segment whose rounded intercept is not 0
    but within rounding of it lies on the contour: no winding number."""
    contour = np.array([0.25 + 0.8125j, 1.0 - 0.1783904658936024j, 0.0, 0.25 + 0.8125j]) * 10.0**-0.5
    probe = contour[0] + 0.5 * (contour[1] - contour[0])
    _, (error,) = winding_rows(contour[None], np.array([[probe]]))
    return isinstance(error, PointTooCloseToContour)


# A 9 x 9 lattice of half-cell steps at tolerance 1: up to four images to a
# cell, five cells to a column. The sorted keys of a column are at most one
# apart and a column's top key is two below the next column's bottom, so
# the whole lattice is one run of keys and every column but the last is
# crowded: its samples' column cx+1 intervals are found by searchsorted.
CROWDED_STEPS = np.arange(-4, 5)


def cell_candidates_are_the_adjacent_pairs():
    """On the crowded lattice at tolerance 1, the cell search yields each
    pair of images whose cells differ by at most one in each coordinate
    exactly once, and no other pair."""
    re, im = (a.ravel() for a in np.meshgrid(CROWDED_STEPS, CROWDED_STEPS))
    width = 1.0 + 2.0**-16  # the cell side at tolerance 1
    values = 0.5 * width * (re + 1j * im)  # exactly cell (re // 2, im // 2)
    cx, cy = re // 2, im // 2
    n = values.size
    adjacent = {
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if abs(cx[a] - cx[b]) <= 1 and abs(cy[a] - cy[b]) <= 1
    }
    seen = [
        (min(a, b), max(a, b))
        for i, j in oracle._cell_candidates(values, 1.0)
        for a, b in zip(i.tolist(), j.tolist())
    ]
    return len(seen) == len(set(seen)) and set(seen) == adjacent


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


class Mutant(NamedTuple):
    name: str
    owners: tuple  # the modules a caller looks the target up in
    attr: str
    edit: tuple  # (old, new) source text, or (value,) for a constant
    check: object


MUTANTS = [
    Mutant("theorem1 (aa-1) for (aa-1)^2", (criteria, loewner), "theorem1",
           ("am1**2", "am1"), loewner_residual_holds),
    Mutant("polar Schwarzian weight 1/r for 1/r^2", (criteria, loewner), "theorem1",
           ("am1**2 / aa", "am1**2 / np.sqrt(aa)"), scan_holds_at_exact_polar_points),
    Mutant("polar Schwarzian weight 1 in place of 1/aa", (criteria, loewner), "theorem1",
           ("am1**2 / aa", "am1**2"), scan_holds_at_exact_polar_points),
    Mutant("polar 1/z without conj", (criteria, region), "lhs_polar",
           ("np.conj(units)", "units"), scan_holds_at_exact_polar_points),
    Mutant("polar row j read at power k+1+j", (_kernels,), "laurent_derivs_scaled",
           ("-k)), power)", "-k)), power * inv**j)"),
           scan_holds_at_exact_polar_points),
    Mutant("polar am1 = r - 1", (criteria, region), "lhs_polar",
           ("(radii - 1.0) * (radii + 1.0)", "radii - 1.0"), scan_holds_at_exact_polar_points),
    Mutant("polar Schwarzian of a c != 0 level unscaled", (catalog.MeromorphicFn,), "pieces",
           ("return f0, f1, pf, sf", "return f0, f1, pf, sf / (grid[0] * grid[0]) if c and order > 2 else sf"),
           scan_holds_at_exact_polar_points),
    Mutant("z f''/f' without its -2c U1/s term", (catalog.MeromorphicFn,), "pieces",
           ("pf = p - (2.0 * c) * u1q", "pf = p"), scan_holds_at_exact_polar_points),
    Mutant("reciprocal of the wrong row", (catalog.MeromorphicFn,), "pieces",
           ("q = np.reciprocal(c * u0 + d)", "q = np.reciprocal(c * u1 + d)"), scan_holds_at_exact_polar_points),
    Mutant("check without the root precondition", (cli,), "run",
           ("failed = root_preconditions(params.f, params.g)", "failed = []"),
           check_fails_an_off_grid_pole),
    Mutant("LOEWNER_RESIDUAL_TOL = 1e300", (loewner,), "LOEWNER_RESIDUAL_TOL",
           (1e300,), wrong_w_is_refused),
    Mutant("A1_RESIDUAL_TOL = 1e300", (loewner,), "A1_RESIDUAL_TOL",
           (1e300,), a1_law_fails_past_the_digit_loss),
    Mutant("chain without the Sigma0 precondition", (loewner,), "_preconditions",
           ('sigma.classification != "Sigma0"', "False"), pole_beyond_the_a1_contour_fails),
    Mutant("root bound without the k weight", (catalog,), "_bound_excludes_roots",
           ("k @ (", "np.sum("), bound_keeps("n16")),
    Mutant("root bound at rho = 1", (catalog,), "_bound_excludes_roots",
           ("rho, k = 1.0 - ROOT_BAND,", "rho, k = 1.0,"), bound_keeps("band")),
    Mutant("root bound without slack", (catalog,), "_bound_excludes_roots",
           ("slack * (abs(b) + zeros)", "0.0"), bound_keeps("tie")),
    Mutant("root bound without the normal-range condition", (catalog,), "_bound_excludes_roots",
           (" or not slack * abs(b) >= np.finfo(np.float64).tiny", ""), bound_keeps("subnormal")),
    Mutant("root bound decides a folded c != 0", (catalog,), "_bound_excludes_roots",
           ("fn._folded[1, 0] or ", ""), check_fails_an_off_grid_pole),
    Mutant("chain contour errors read from the z grid's columns", (loewner,), "_audit_samples",
           ("_row_errors(chain, slice(n_grid, None),", "_row_errors(chain, slice(0, n_grid),"),
           pole_at_an_off_grid_contour_node_fails_that_contour_alone),
    Mutant("chain z grid errors read from the contour's columns", (loewner,), "_audit_samples",
           ("_row_errors(chain, slice(0, n_grid),", "_row_errors(chain, slice(n_grid, None),"),
           pole_at_an_off_grid_contour_node_fails_that_contour_alone),
    Mutant("median spacing with the lower half's min for its max", (oracle,), "_median_neighbor_spacing",
           ("gaps[:half].max()", "gaps[:half].min()"), median_spacing_is_the_median),
    Mutant("winding certificate 0", (_kernels,), "winding_sum",
           ("np.abs(x0) > 1e-12 *", "np.abs(x0) > 0.0 *"), probe_on_a_segment_has_no_winding_number),
    Mutant("cell search without the crowded-run search", (oracle,), "_cell_candidates",
           ("rest[keys[end] >= keys[rest] + (stride - 1)]", "rest[:0]"),
           cell_candidates_are_the_adjacent_pairs),
    Mutant("cell search with lo = i + 1 everywhere", (oracle,), "_cell_candidates",
           ("np.flatnonzero(step < stride - 1)", "np.flatnonzero(step < 0)"),
           cell_candidates_are_the_adjacent_pairs),
    Mutant("cell search without a spare row", (oracle,), "_cell_candidates",
           ("int(cy.max()) + 2", "int(cy.max()) + 1"), cell_candidates_are_the_adjacent_pairs),
    Mutant("cell search without (cx, cy+1)", (oracle,), "_cell_candidates",
           ("keys[near] + 1,", "keys[near],"), cell_candidates_are_the_adjacent_pairs),
    Mutant("cell search without (cx+1, cy-1)", (oracle,), "_cell_candidates",
           ("    head = keys.take(lo,", "    lo = np.searchsorted(keys, keys + stride)\n    head = keys.take(lo,"),
           cell_candidates_are_the_adjacent_pairs),
    Mutant("cell search without (cx+1, cy+1)", (oracle,), "_cell_candidates",
           ("keys[beside] + (stride + 1)", "keys[beside] + stride"),
           cell_candidates_are_the_adjacent_pairs),
    Mutant("cell search from pos instead of pos+1", (oracle,), "_cell_candidates",
           ("(near + 1, lo[beside])", "(near, lo[beside])"), cell_candidates_are_the_adjacent_pairs),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, monkeypatch):
    assert mutant.check(), f"{mutant.check.__name__} fails on the program as it is"
    if len(mutant.edit) == 1:
        value = mutant.edit[0]
    else:
        value = rebuilt(getattr(mutant.owners[0], mutant.attr), *mutant.edit)
    for owner in mutant.owners:
        monkeypatch.setattr(owner, mutant.attr, value)
    assert not mutant.check(), f"{mutant.name} survives {mutant.check.__name__}"
