import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import univalence as uv
from univalence.criteria import (
    _BLOCK,
    CRITERIA,
    CriterionParams,
    Pieces,
    _abs2,
    _assemble_lhs,
    _lhs,
    corollary_lhs,
    evaluate_lhs,
    pieces,
    theorem1_lhs,
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


class TestPointwiseValues:
    def test_identity_vanishes(self, rng):
        p = params(uv.identity(), g=uv.identity())
        for z in exterior_points(rng, 10):
            assert theorem1_lhs(p, z) == 0.0

    def test_becker_reduction_value(self):
        f = uv.joukowski(0.5)
        p = params(f, g=f)
        assert abs(theorem1_lhs(p, 2.0) - 6 / 7) < 1e-14

    def test_nehari_reduction_value(self):
        p = params(uv.joukowski(0.5), g=uv.identity())
        assert abs(theorem1_lhs(p, 2.0) - 0.5 * 9 * (12 / 49)) < 1e-13

    def test_alpha_zero_with_h(self):
        p = params(
            uv.joukowski(0.5),
            h=uv.inverse_square(0.25),
            alpha=0.0,
            criterion="alpha_zero",
        )
        expected = abs(-4 * 0.0625 / 1.0625 - 3 * (-0.125 / 1.0625 + 2 / 7))
        assert abs(corollary_lhs(p, 2.0) - expected) < 1e-12
        assert abs(theorem1_lhs(p, 2.0) - expected) < 1e-12

    def test_becker_closed_form(self):
        p = params(uv.joukowski(0.5), criterion="becker")
        assert abs(corollary_lhs(p, 2.0) - 3 / 3.5) < 1e-14

    def test_nehari_normalized_output(self):
        p = params(uv.joukowski(0.5), criterion="nehari")
        assert abs(corollary_lhs(p, 2.0) - 0.5 * 9 * (12 / 49)) < 1e-13

    def test_corollary_requires_corollary_id(self):
        with pytest.raises(InvalidSpec):
            corollary_lhs(params(uv.identity()), 2.0)


class TestReductions:
    def test_becker_reduction(self, rng):
        f = uv.joukowski(0.45)
        p = params(f, g=f)
        pb = params(f, criterion="becker")
        for z in exterior_points(rng, 60, 1.01, 20.0):
            assert abs(theorem1_lhs(p, z) - corollary_lhs(pb, z)) <= 1e-12

    def test_nehari_reduction(self, rng):
        f = uv.laurent(1, 0, [0.3, 0.1])
        p = params(f, g=uv.identity())
        pn = params(f, criterion="nehari")
        for z in exterior_points(rng, 60, 1.01, 20.0):
            assert abs(theorem1_lhs(p, z) - corollary_lhs(pn, z)) <= 1e-12

    def test_alpha_zero_reduction_ignores_g(self, rng):
        f, h = uv.joukowski(0.4), uv.inverse_square(0.25)
        pts = exterior_points(rng, 60, 1.01, 20.0)
        pc = params(f, h=h, alpha=0.0, criterion="alpha_zero")
        for g in (uv.identity(), uv.joukowski(1.2)):
            p = params(f, g=g, h=h, alpha=0.0)
            for z in pts:
                assert abs(theorem1_lhs(p, z) - corollary_lhs(pc, z)) <= 1e-12

    def test_miazga_wesolowski_reduction(self, rng):
        f, g, h = uv.joukowski(0.4), uv.laurent(1, 0, [0.2]), uv.inverse_square(0.3)
        p = params(f, g=g, h=h, alpha=0.5)
        pc = params(f, g=g, h=h, alpha=0.5, criterion="miazga_wesolowski")
        for z in exterior_points(rng, 60, 1.01, 20.0):
            assert abs(theorem1_lhs(p, z) - corollary_lhs(pc, z)) <= 1e-12

    def test_epstein_reduction(self, rng):
        f, g = uv.joukowski(0.4), uv.joukowski(0.2 + 0.1j)
        p = params(f, g=g, alpha=0.5)
        pc = params(f, g=g, alpha=0.5, criterion="epstein")
        for z in exterior_points(rng, 60, 1.01, 20.0):
            assert abs(theorem1_lhs(p, z) - corollary_lhs(pc, z)) <= 1e-12


class TestVariants:
    def test_squared_flag_changes_mixed_alpha_values(self):
        f, g = uv.joukowski(0.5), uv.identity()
        z = 1.7 + 0.4j
        sq = theorem1_lhs(params(f, g=g, alpha=0.3), z)
        unsq = theorem1_lhs(params(f, g=g, alpha=0.3, squared=False), z)
        assert abs(sq - unsq) > 1e-6

    def test_variants_agree_when_prefactor_vanishes(self, rng):
        # alpha = 1/2 kills the (alpha - 1/2) factor, f = g kills the base.
        f = uv.joukowski(0.5)
        for z in exterior_points(rng, 10):
            a = theorem1_lhs(params(f, g=uv.identity(), alpha=0.5), z)
            b = theorem1_lhs(params(f, g=uv.identity(), alpha=0.5, squared=False), z)
            assert a == b
            c = theorem1_lhs(params(f, g=f, alpha=0.3), z)
            d = theorem1_lhs(params(f, g=f, alpha=0.3, squared=False), z)
            assert c == d


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

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            theorem1_lhs(params(uv.identity()), 0.99)

    def test_critical_point_inside_region(self):
        # joukowski(4) has critical points at +-2.
        with pytest.raises(CriticalPoint):
            theorem1_lhs(params(uv.joukowski(4.0), g=uv.joukowski(4.0)), 2.0)

    def test_h_vanishes(self):
        with pytest.raises(HVanishes):
            theorem1_lhs(params(uv.identity(), h=uv.inverse_square(-4.0)), 2.0)

    def test_scalar_matches_vector_path(self, rng):
        p = params(uv.joukowski(0.4), g=uv.laurent(1, 0, [0.2]), alpha=0.3)
        pts = exterior_points(rng, 30)
        vec = evaluate_lhs(p, pts)
        for z, v in zip(pts, vec):
            assert theorem1_lhs(p, z) == v


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
        pc = pieces(p.f, p.g, p.h, pts)
        ref = _assemble_lhs(criterion, pts, pc, p.alpha, p.squared_variant, _abs2(pts))
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
            _lhs(p, pts, "becker")
        assert str(exc.value) == "criterion point 1j not in the exterior disk"


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
            for z in exterior_points(rng, 8, 1.05, 5.0):
                a = theorem1_lhs(p1, z * rot)
                b = theorem1_lhs(p2, z)
                assert abs(a - b) <= 1e-10 * (1 + a)

    def test_boundary_limit_is_h_ratio(self):
        # As |zeta| -> 1+, the LHS collapses to |(1-h)/h| <= 1.
        h = uv.inverse_square(0.4)
        p = params(uv.joukowski(0.5), g=uv.joukowski(0.2), h=h, alpha=0.5)
        r = 1.0 + 1e-6
        for theta in np.linspace(0.0, 2 * np.pi, 32, endpoint=False):
            z = r * np.exp(1j * theta)
            hv = h.jet(z).value
            target = abs((1 - hv) / hv)
            got = theorem1_lhs(p, z)
            assert abs(got - target) <= 1e-3
            assert got <= 1.0 + 1e-3

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
