import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import univalence as uv
from univalence.criteria import (
    _BLOCK,
    _PRESETS,
    CRITERIA,
    CriterionParams,
    Pieces,
    _abs2,
    evaluate_lhs,
    pieces,
    theorem1,
)
from univalence.errors import (
    CriticalPoint,
    CriticalPointInRegion,
    HVanishes,
    InvalidSpec,
    OutsideDomain,
)
from univalence.region import estimate_sup
from univalence.sampling import SamplingPlan

from conftest import exterior_points


def params(f, g=None, h=None, alpha=0.5, criterion="theorem1", squared=True):
    return CriterionParams(
        f=f,
        g=g if g is not None else uv.identity(),
        h=h if h is not None else uv.constant_one(),
        alpha=alpha,
        criterion=criterion,
        squared_variant=squared,
    )


def lhs(p, z):
    """The LHS of ``p``'s criterion at the one point z."""
    return float(evaluate_lhs(p, [z])[0])


class TestPointwiseValues:
    def test_identity_vanishes(self, rng):
        p = params(uv.identity(), g=uv.identity())
        assert np.all(evaluate_lhs(p, exterior_points(rng, 10)) == 0.0)

    def test_becker_reduction_value(self):
        f = uv.joukowski(0.5)
        p = params(f, g=f)
        assert abs(lhs(p, 2.0) - 6 / 7) < 1e-14

    def test_nehari_reduction_value(self):
        p = params(uv.joukowski(0.5), g=uv.identity())
        assert abs(lhs(p, 2.0) - 0.5 * 9 * (12 / 49)) < 1e-13

    def test_alpha_zero_with_h(self):
        p = params(
            uv.joukowski(0.5),
            h=uv.inverse_square(0.25),
            alpha=0.0,
            criterion="alpha_zero",
        )
        expected = abs(-4 * 0.0625 / 1.0625 - 3 * (-0.125 / 1.0625 + 2 / 7))
        assert abs(lhs(p, 2.0) - expected) < 1e-12
        assert abs(lhs(replace(p, criterion="theorem1"), 2.0) - expected) < 1e-12

    def test_becker_closed_form(self):
        p = params(uv.joukowski(0.5), criterion="becker")
        assert abs(lhs(p, 2.0) - 3 / 3.5) < 1e-14

    def test_nehari_normalized_output(self):
        p = params(uv.joukowski(0.5), criterion="nehari")
        assert abs(lhs(p, 2.0) - 0.5 * 9 * (12 / 49)) < 1e-13


def max_gap(p, q, pts):
    return np.max(np.abs(evaluate_lhs(p, pts) - evaluate_lhs(q, pts)))


class TestReductions:
    def test_becker_reduction(self, rng):
        f = uv.joukowski(0.45)
        pts = exterior_points(rng, 60, 1.01, 20.0)
        assert max_gap(params(f, g=f), params(f, criterion="becker"), pts) <= 1e-12

    def test_nehari_reduction(self, rng):
        f = uv.laurent(1, 0, [0.3, 0.1])
        pts = exterior_points(rng, 60, 1.01, 20.0)
        assert max_gap(params(f, g=uv.identity()), params(f, criterion="nehari"), pts) <= 1e-12

    def test_alpha_zero_reduction_ignores_g(self, rng):
        f, h = uv.joukowski(0.4), uv.inverse_square(0.25)
        pts = exterior_points(rng, 60, 1.01, 20.0)
        pc = params(f, h=h, alpha=0.0, criterion="alpha_zero")
        for g in (uv.identity(), uv.joukowski(1.2)):
            assert max_gap(params(f, g=g, h=h, alpha=0.0), pc, pts) <= 1e-12

    def test_miazga_wesolowski_reduction(self, rng):
        f, g, h = uv.joukowski(0.4), uv.laurent(1, 0, [0.2]), uv.inverse_square(0.3)
        p = params(f, g=g, h=h, alpha=0.5)
        pc = params(f, g=g, h=h, alpha=0.5, criterion="miazga_wesolowski")
        assert max_gap(p, pc, exterior_points(rng, 60, 1.01, 20.0)) <= 1e-12

    def test_epstein_reduction(self, rng):
        f, g = uv.joukowski(0.4), uv.joukowski(0.2 + 0.1j)
        p = params(f, g=g, alpha=0.5)
        pc = params(f, g=g, alpha=0.5, criterion="epstein")
        assert max_gap(p, pc, exterior_points(rng, 60, 1.01, 20.0)) <= 1e-12


class TestVariants:
    def test_squared_flag_changes_mixed_alpha_values(self):
        f, g = uv.joukowski(0.5), uv.identity()
        z = 1.7 + 0.4j
        sq = lhs(params(f, g=g, alpha=0.3), z)
        unsq = lhs(params(f, g=g, alpha=0.3, squared=False), z)
        assert abs(sq - unsq) > 1e-6

    def test_variants_agree_when_prefactor_vanishes(self, rng):
        # alpha = 1/2 kills the (alpha - 1/2) factor, f = g kills the base.
        f = uv.joukowski(0.5)
        pts = exterior_points(rng, 10)
        for g, alpha in ((uv.identity(), 0.5), (f, 0.3)):
            a = evaluate_lhs(params(f, g=g, alpha=alpha), pts)
            b = evaluate_lhs(params(f, g=g, alpha=alpha, squared=False), pts)
            assert a.tobytes() == b.tobytes()


class TestStructure:
    def test_becker_nehari_record_canonical_g_h(self):
        p = CriterionParams(
            f=uv.joukowski(0.5),
            g=uv.joukowski(1.2),
            h=uv.inverse_square(0.3),
            criterion="becker",
        )
        assert p.g == uv.identity()
        assert p.h == uv.constant_one()

    def test_alpha_recorded_even_when_fixed(self):
        p = CriterionParams(f=uv.identity(), alpha=0.25, criterion="nehari")
        assert p.alpha == 0.25

    def test_unknown_criterion(self):
        with pytest.raises(InvalidSpec):
            CriterionParams(f=uv.identity(), criterion="lewandowski")

    def test_h_as_f_is_refused(self):
        # an h has b = 0: becker read it as f and returned 9 at z = 2
        with pytest.raises(InvalidSpec) as exc:
            evaluate_lhs(CriterionParams(f=uv.inverse_square(0.3), criterion="becker"), [2])
        assert str(exc.value) == "hinvsq((0.3+0j)) has no leading term b z with b != 0"

    def test_non_h_as_h_is_refused(self):
        with pytest.raises(InvalidSpec) as exc:
            CriterionParams(f=uv.joukowski(0.3), h=uv.joukowski(0.3))
        assert str(exc.value) == "joukowski((0.3+0j)) is not an h = 1 + h2/z^2 + ..."

    def test_spec_strings_are_parsed(self):
        p = CriterionParams(f="joukowski:0.3", g="identity", h="hinvsq:0.1")
        assert (p.f, p.g, p.h) == (uv.joukowski(0.3), uv.identity(), uv.inverse_square(0.1))

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            lhs(params(uv.identity()), 0.99)

    def test_critical_point_inside_region(self):
        # joukowski(4) has critical points at +-2.
        with pytest.raises(CriticalPoint):
            lhs(params(uv.joukowski(4.0), g=uv.joukowski(4.0)), 2.0)

    def test_h_vanishes(self):
        with pytest.raises(HVanishes):
            lhs(params(uv.identity(), h=uv.inverse_square(-4.0)), 2.0)


def single_pass(p, pts):
    """``p``'s LHS at ``pts`` from one ``pieces`` pass and one ``theorem1``
    call, at the alpha its criterion fixes."""
    alpha = _PRESETS[p.criterion][0]
    alpha = p.alpha if alpha is None else alpha
    pc = pieces(p.f, p.g, p.h, pts, p.criterion)
    return np.abs(theorem1(pts, pc, alpha, p.squared_variant, _abs2(pts)))


class TestBlocks:
    # Laurent f, and Moebius f over a Laurent inner map with c = 0 (constant
    # denominator) and with c != 0 (a true quotient, pole near -9.97)
    F_CASES = {
        "laurent": uv.laurent(1, 0.1, [0.3 - 0.1j, 0.05j]),
        "moebius_c0": uv.moebius_of(uv.joukowski(0.3), 2, 0.5j, 0, 1),
        "moebius_c": uv.moebius_of(uv.joukowski(0.3), 1, 0, 0.1, 1),
    }

    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])
    @pytest.mark.parametrize("f", sorted(F_CASES))
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_blocks_match_single_pass(self, rng, criterion, f, n):
        p = params(
            self.F_CASES[f],
            g=uv.laurent(1, 0, [0.2, 0.1j]),
            h=uv.inverse_square(0.2 + 0.1j),
            alpha=0.3 + 0.1j,
            criterion=criterion,
        )
        pts = exterior_points(rng, n)
        ref = single_pass(p, pts)
        assert np.isfinite(ref).all()
        assert evaluate_lhs(p, pts).tobytes() == ref.tobytes()

    def test_first_point_in_closed_disk_is_named(self, rng):
        # each block tests its own points: those a rounding step outside the
        # unit circle pass, and the first one on or inside it, in block
        # order, is named
        p = params(uv.joukowski(0.3), criterion="becker")
        pts = exterior_points(rng, 3 * _BLOCK)
        pts[3], pts[4] = 1.0 + 2.0**-52, -1j * (1.0 + 2.0**-52)
        assert np.isfinite(evaluate_lhs(p, pts)).all()
        pts[_BLOCK + 7], pts[2 * _BLOCK + 1] = 1j, 0.5
        with pytest.raises(OutsideDomain) as exc:
            evaluate_lhs(p, pts)
        assert str(exc.value) == "criterion point 1j not in the exterior disk"


def six_formula_lhs(criterion, points, pc, alpha, squared, aa):
    """The criterion LHS as it was assembled before every criterion became
    ``theorem1`` at a preset: one formula per criterion."""
    z = points
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        am1 = aa - 1.0
        if criterion == "becker":
            return am1 * np.abs(z * pc.pf)
        if criterion == "nehari":
            return 0.5 * am1**2 * np.abs(pc.sf)
        if criterion == "epstein":
            phase = z / np.conj(z)
            return np.abs(0.5 * am1**2 * phase * (pc.sf - pc.sg) - am1 * (z * pc.pg))
        ratio = (1.0 - pc.h0) / pc.h0
        hh = z * pc.h1 / pc.h0
        if criterion == "alpha_zero":
            return np.abs(ratio * aa - am1 * (hh + z * pc.pf))
        phase = z / np.conj(z)
        if criterion == "miazga_wesolowski":
            t = (
                ratio * aa
                - am1 * (hh + z * pc.pg)
                + 0.5 * am1**2 * phase * pc.h0 * (pc.sf - pc.sg)
            )
        else:
            diff = pc.pf - pc.pg
            if squared:
                diff = diff * diff
            t = (
                ratio * aa
                - am1 * (hh + (1.0 - 2.0 * alpha) * z * pc.pf + 2.0 * alpha * z * pc.pg)
                + alpha * am1**2 * phase * pc.h0 * ((alpha - 0.5) * diff + pc.sf - pc.sg)
            )
        return np.abs(t)


def closed_form_w(spec, z, t):
    """w(z, t) as the Loewner module wrote it before it called ``theorem1``:
    its own closed form in e^t."""
    et = np.exp(t)
    w = et / z
    f1, g1, h0, h1, pf, sf, pg, sg = pieces(spec.f, spec.g, spec.h, w)
    e2t = et * et
    em2t = np.exp(-2.0 * t)
    alpha = spec.alpha
    diff = pf - pg
    if spec.squared_variant:
        diff = diff * diff
    return (
        e2t * (1.0 - h0) / h0
        + (1.0 - e2t) * w * (h1 / h0 + (1.0 - 2.0 * alpha) * pf + 2.0 * alpha * pg)
        + alpha * e2t * (em2t - 1.0) ** 2 * (e2t / (z * z)) * h0
        * ((sf - sg) + (alpha - 0.5) * diff)
    )


class TestPresets:
    """Each criterion is theorem1 at a preset: g = z, h = 1, alpha (None:
    the given one). Four are bitwise the formulas they replaced; becker and
    nehari take the modulus of a product instead of a product of moduli."""

    PRESETS = {
        "theorem1": (False, False, None),
        "alpha_zero": (True, False, 0.0),
        "miazga_wesolowski": (False, False, 0.5),
        "epstein": (False, True, 0.5),
        "becker": (True, True, 0.0),
        "nehari": (True, True, 0.5),
    }

    @pytest.mark.parametrize("alpha", [0.3 + 0.1j, 0.0, 0.5])
    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("f", sorted(TestBlocks.F_CASES))
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_criterion_is_theorem1_at_its_preset(self, rng, criterion, f, squared, alpha):
        g, h = uv.laurent(1, 0, [0.2, 0.1j]), uv.inverse_square(0.2 + 0.1j)
        p = params(TestBlocks.F_CASES[f], g=g, h=h, alpha=alpha, criterion=criterion,
                   squared=squared)
        pts = exterior_points(rng, 2000, r_lo=1.0001, r_hi=1e3)
        got = evaluate_lhs(p, pts)
        old = six_formula_lhs(criterion, pts, pieces(p.f, p.g, p.h, pts), p.alpha, squared,
                              _abs2(pts))
        g_is_z, h_is_one, fixed = self.PRESETS[criterion]
        preset = params(
            p.f,
            g=uv.identity() if g_is_z else g,
            h=uv.constant_one() if h_is_one else h,
            alpha=p.alpha if fixed is None else fixed,
            squared=squared,
        )
        at_preset = evaluate_lhs(preset, pts)
        assert np.isfinite(got).all()
        if criterion in ("becker", "nehari"):
            for ref in (old, at_preset):
                assert np.all(np.abs(got - ref) <= 1e-15 * ref)
        else:
            assert got.tobytes() == old.tobytes() == at_preset.tobytes()

    @pytest.mark.parametrize("squared", [True, False])
    @pytest.mark.parametrize("f", sorted(TestBlocks.F_CASES))
    def test_w_is_theorem1_on_the_chain(self, f, squared):
        from univalence.loewner import ChainSpec, chain_w_values, default_z_samples

        spec = ChainSpec(
            f=TestBlocks.F_CASES[f],
            g=uv.laurent(1, 0, [0.2, 0.1j]),
            h=uv.inverse_square(0.2 + 0.1j),
            alpha=0.3 + 0.1j,
            squared_variant=squared,
        )
        z = default_z_samples()
        for t in (0.0, 0.25, 1.0, 4.0):
            got = chain_w_values(spec, z, t)
            want = closed_form_w(spec, z, t)
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


class TestRowRequests:
    """Each block asks the kernel for the stack rows of the README table
    and for no others: a refactor that builds a dead row fails here."""

    @staticmethod
    def readme_table():
        # {criterion: {"f": (first, order), ...}} from "f rows 1–3, ..." cells
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = {}
        for name, cell in re.findall(r"^\| `(\w+)` \|.*\| ([^|]*rows[^|]*) \|$", text, re.M):
            rows = re.findall(r"([fgh]) rows (\d)–(\d)", cell)
            table[name] = {fn: (int(lo), int(hi)) for fn, lo, hi in rows}
        return table

    def test_requests_match_readme_table(self, rng, monkeypatch):
        from univalence import _kernels

        table = self.readme_table()
        assert sorted(table) == sorted(CRITERIA)
        # the leading coefficient b tells the three stacks apart
        f, g = uv.laurent(1.5, 0.1, [0.3, 0.05j]), uv.joukowski(0.2)
        which = {1.5: "f", 1.0: "g", 0.0: "h"}
        calls = []
        kernel = _kernels.laurent_derivs

        def recorded(points, b, b0, tail, order=4, inv=None, first=0):
            calls.append((which[b], first, order))
            return kernel(points, b, b0, tail, order, inv, first)

        monkeypatch.setattr(_kernels, "laurent_derivs", recorded)
        pts = exterior_points(rng, 2 * _BLOCK + 5)
        for criterion in CRITERIA:
            calls.clear()
            p = params(f, g=g, h=uv.inverse_square(0.1), criterion=criterion)
            evaluate_lhs(p, pts)
            want = Counter({(fn, *rows): 3 for fn, rows in table[criterion].items()})
            assert Counter(calls) == want, criterion
            assert all(first == 1 for fn, first, _ in calls if fn != "h"), criterion
        assert table["becker"] == {"f": (1, 2)}


class TestPiecesOnDemand:
    # Pieces left None: those a criterion neither reads nor builds on the
    # way to one it reads (f''/f' comes with S_f, f' with any f stack).
    NEVER = {
        "alpha_zero": {"g1", "pg", "sf", "sg"},
        "epstein": {"h0", "h1"},
        "becker": {"g1", "h0", "h1", "sf", "pg", "sg"},
        "nehari": {"g1", "h0", "h1", "pg", "sg"},
    }

    @pytest.mark.parametrize("f", sorted(TestBlocks.F_CASES))
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_read_pieces_match_full_call(self, rng, criterion, f):
        fn, g = TestBlocks.F_CASES[f], uv.moebius_of(uv.joukowski(0.2), 1.1, 0.3, 0, 1)
        h = uv.inverse_square(0.2 + 0.1j)
        pts = exterior_points(rng, 300)
        full = pieces(fn, g, h, pts)
        got = pieces(fn, g, h, pts, criterion)
        for name in Pieces._fields:
            value = getattr(got, name)
            if name in self.NEVER.get(criterion, ()):
                assert value is None, name
            else:
                assert value.tobytes() == getattr(full, name).tobytes(), name

    @pytest.mark.parametrize("criterion", ["becker", "alpha_zero", "nehari"])
    @pytest.mark.parametrize("moebius", [False, True])
    def test_critical_point_of_f_is_diagnosed(self, criterion, moebius):
        # joukowski(4) has f' = 0 at z = 2, a grid point of this plan
        f = uv.joukowski(4.0)
        if moebius:
            f = uv.moebius_of(f, 2, 1j, 0, 1)
        plan = SamplingPlan(r_min=2.0, r_max=4.0, radial_count=3, angular_count=8)
        with pytest.raises(CriticalPointInRegion) as exc:
            estimate_sup(params(f, criterion=criterion), plan)
        assert str(exc.value) == "f' vanishes at (2+0j)"
        assert exc.value.point == 2


class TestAnalyticProperties:
    def test_rotation_equivariance(self, rng):
        # Evaluating the rotated instance (f, g, h conjugated by z -> z e^{i
        # theta}) at z equals evaluating the original at z e^{i theta}.
        for theta in rng.uniform(0, 2 * np.pi, 5):
            rot = np.exp(1j * theta)
            c, ch = 0.4 + 0.1j, 0.25
            p1 = params(uv.joukowski(c), g=uv.identity(), h=uv.inverse_square(ch), alpha=0.3)
            p2 = params(
                uv.joukowski(c / rot**2),
                g=uv.identity(),
                h=uv.inverse_square(ch / rot**2),
                alpha=0.3,
            )
            pts = exterior_points(rng, 8, 1.05, 5.0)
            a = evaluate_lhs(p1, pts * rot)
            b = evaluate_lhs(p2, pts)
            assert np.all(np.abs(a - b) <= 1e-10 * (1 + a))

    def test_boundary_limit_is_h_ratio(self):
        # As |zeta| -> 1+, the LHS collapses to |(1-h)/h| <= 1.
        h = uv.inverse_square(0.4)
        p = params(uv.joukowski(0.5), g=uv.joukowski(0.2), h=h, alpha=0.5)
        r = 1.0 + 1e-6
        z = r * np.exp(1j * np.linspace(0.0, 2 * np.pi, 32, endpoint=False))
        hv = h.values(z)
        target = np.abs((1 - hv) / hv)
        got = evaluate_lhs(p, z)
        assert np.all(np.abs(got - target) <= 1e-3)
        assert np.all(got <= 1.0 + 1e-3)

    def test_lhs_bounded_toward_infinity(self):
        # Values on the outermost circle and its double differ by < 5%.
        cases = [
            params(uv.joukowski(0.5), g=uv.joukowski(0.5)),
            params(uv.joukowski(0.4), g=uv.identity(), h=uv.inverse_square(0.25)),
            params(uv.laurent(1, 0, [0.3, 0.1]), g=uv.identity(), alpha=0.3),
        ]
        for p in cases:
            for r in (50.0,):
                ring1 = r * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
                m1 = float(np.max(evaluate_lhs(p, ring1)))
                m2 = float(np.max(evaluate_lhs(p, 2 * ring1)))
                assert abs(m1 - m2) <= 0.05 * max(m2, 1e-12)
