"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget (run with -s to see the
lines live)."""

import json
import subprocess
import sys
import time

import mpmath as mp
import numpy as np

import univalence as uv
from univalence.criteria import CriterionParams, evaluate_lhs, pieces
from univalence.loewner import ChainSpec, _audit_samples, audit_pommerenke
from univalence.region import estimate_sup, issue_verdict
from univalence.sampling import circle_points

from test_reference import closed_form_pieces, mp_pieces, rel_error

LN2 = float(np.log(2.0))


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
            f"({elapsed:.2f}s, budget {self.seconds:.0f}s)"
        )
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        return False


def sample_points(count=200, r_lo=1.01, r_hi=20.0, seed=20240809):
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), count))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return radii * np.exp(1j * angles)


CATALOG_F = [
    uv.joukowski(0.5),
    uv.joukowski(0.3 + 0.2j),
    uv.laurent(1, 0, [0.5, 0.1]),
    uv.laurent(1, -0.2, [0.3]),
    uv.moebius_of(uv.joukowski(0.4), 1, 0.1, 0.05, 1),
]
CATALOG_G = [uv.identity(), uv.joukowski(0.2), uv.laurent(1, 0, [0.15])]
CATALOG_H = [uv.constant_one(), uv.inverse_square(0.25), uv.inverse_square(0.3 + 0.1j)]


def test_01_reduction_identities():
    with _Budget(1, "reduction identities", 5.0):
        pts = sample_points(200)
        tol = 1e-12

        def both(params_master, params_cor):
            a = evaluate_lhs(
                CriterionParams(
                    f=params_master.f,
                    g=params_master.g,
                    h=params_master.h,
                    alpha=params_master.alpha,
                    criterion="theorem1",
                ),
                pts,
            )
            b = evaluate_lhs(params_cor, pts)
            assert np.max(np.abs(a - b)) <= tol, params_cor.criterion

        for i, f in enumerate(CATALOG_F):
            g = CATALOG_G[i % len(CATALOG_G)]
            for h in CATALOG_H:
                p = CriterionParams(f=f, g=g, h=h, alpha=0.0)
                both(p, CriterionParams(f=f, g=g, h=h, alpha=0.0, criterion="alpha_zero"))
                p = CriterionParams(f=f, g=g, h=h, alpha=0.5)
                both(
                    p,
                    CriterionParams(
                        f=f, g=g, h=h, alpha=0.5, criterion="miazga_wesolowski"
                    ),
                )
            p = CriterionParams(f=f, g=g, alpha=0.5)
            both(p, CriterionParams(f=f, g=g, alpha=0.5, criterion="epstein"))
            p = CriterionParams(f=f, g=f, alpha=0.5)
            both(p, CriterionParams(f=f, alpha=0.5, criterion="becker"))
            p = CriterionParams(f=f, g=uv.identity(), alpha=0.5)
            both(p, CriterionParams(f=f, alpha=0.5, criterion="nehari"))

        f, g, h = uv.joukowski(0.5), uv.joukowski(0.2), uv.inverse_square(0.25)
        both(
            CriterionParams(f=f, g=g, h=h, alpha=0.5),
            CriterionParams(f=f, g=g, h=h, alpha=0.5, criterion="miazga_wesolowski"),
        )


def test_02_becker_supremum_law():
    with _Budget(2, "becker supremum law", 10.0):
        plan = uv.SamplingPlan()  # r_max = 50
        for c in (0.2, 0.4, 0.6, 0.8):
            rep = estimate_sup(
                CriterionParams(f=uv.joukowski(c), criterion="becker"), plan
            )
            assert abs(rep.sup_estimate - 2 * c) <= 0.02 * 2 * c, c
            verdict = issue_verdict(rep)
            assert verdict.outcome == ("pass" if c <= 0.4 else "fail"), c


def schwarzian(f, points):
    """S_f at each point, from z^2 S_f, the piece the Nehari-type criterion
    reads."""
    z = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    return pieces(f, uv.identity(), uv.constant_one(), (z, 1.0 / z), "nehari").sf / (z * z)


def test_03_schwarzian_checks():
    with _Budget(3, "schwarzian checks", 10.0):
        s = schwarzian(uv.joukowski(0.5), 2.0)[0]
        assert abs(s - (-12 / 49)) <= 1e-9

        rng = np.random.default_rng(7)
        pts = sample_points(20, 1.2, 6.0, seed=11)
        f = uv.joukowski(0.5)
        count = 0
        while count < 50:
            a, b, c, d = (complex(*rng.uniform(-2, 2, 2)) for _ in range(4))
            if abs(a * d - b * c) < 0.1:
                continue
            count += 1
            wrapped = uv.moebius_of(f, a, b, c, d)
            z = pts[:6][np.abs(c * f.values(pts[:6]) + d) >= 0.2]
            sf = schwarzian(f, z)
            sw = schwarzian(wrapped, z)
            assert np.all(np.abs(sw - sf) <= 1e-9 * (1 + np.abs(sf)))

        inv = uv.moebius_of(uv.identity(), 0, 1, 1, 0)
        assert np.max(np.abs(schwarzian(uv.identity(), pts))) <= 1e-12
        assert np.max(np.abs(schwarzian(inv, pts))) <= 1e-12


def test_04_derivs_vs_40_digit_reference():
    with _Budget(4, "derivative stacks vs 40 digits", 2.0):
        # the pieces f, z f', z f''/f' and z^2 S_f against the chain-rule
        # derivatives at 40 digits, relative error floored at 1
        pts = sample_points(100, 1.25, 2.5, seed=31)
        with mp.workdps(40):
            for f in [uv.identity(), *CATALOG_F]:
                want = [[complex(x) for x in mp_pieces(f, mp.mpc(complex(z)))] for z in pts]
                got = closed_form_pieces(f, pts)
                assert rel_error(got, np.transpose(want)) <= 1e-14, f.describe()


CHAIN_SPECS = [
    ChainSpec(f=uv.identity(), g=uv.identity(), h=uv.constant_one(), alpha=0.5),
    ChainSpec(f=uv.joukowski(0.5), g=uv.joukowski(0.5), h=uv.constant_one(), alpha=0.5),
    ChainSpec(f=uv.joukowski(0.4), g=uv.identity(), h=uv.inverse_square(0.25), alpha=0.3),
    ChainSpec(f=uv.laurent(1, 0, [0.1, 0.02]), g=uv.identity(), h=uv.constant_one(), alpha=0.5),
]


def test_05_loewner_chain_identities():
    with _Budget(5, "loewner chain identities", 5.0):
        zs = np.concatenate([circle_points(0.5, 32), circle_points(0.9, 32)])
        ts = (0.0, 0.5, 1.0, 2.0)
        trivial = CHAIN_SPECS[0]
        (vals, *_), (_, errors, _) = _audit_samples(trivial, ts, zs, 0)
        assert errors == [None] * len(ts)
        for t, row in zip(ts, vals):
            assert np.max(np.abs(row - np.exp(t) * zs)) <= 1e-12 * np.exp(t)
        for spec in CHAIN_SPECS:
            (value, _, _, w), (errors, _, w_errors) = _audit_samples(spec, (0.0,), zs, zs.size)
            assert errors == w_errors == [None]
            assert np.max(np.abs(value[0] * spec.f.values(1.0 / zs) - 1.0)) <= 1e-10
            hv = spec.h.values(1.0 / zs)
            assert np.max(np.abs(w[0] - (1.0 - hv) / hv)) <= 1e-10
            records = audit_pommerenke(spec, t_samples=ts).a1_records
            assert [t for t, *_ in records] == list(ts)
            for t, a1, *_ in records:
                assert abs(a1 - np.exp(t)) / np.exp(t) <= 1e-6, (spec, t)


def test_06_boundary_bridge():
    with _Budget(6, "boundary bridge", 5.0):
        cases = [
            ChainSpec(f=uv.joukowski(0.4), g=uv.joukowski(0.4), h=uv.constant_one(), alpha=0.5),
            ChainSpec(f=uv.joukowski(0.5), g=uv.identity(), h=uv.constant_one(), alpha=0.5),
            ChainSpec(
                f=uv.joukowski(0.5),
                g=uv.joukowski(1.2),
                h=uv.inverse_square(0.25),
                alpha=0.3,
            ),
        ]
        zs = circle_points(1.0, 64)
        for spec in cases:
            params = CriterionParams(f=spec.f, g=spec.g, h=spec.h, alpha=spec.alpha)
            for t in (0.25, LN2, 1.0):
                # g stays locally univalent here: |e^t/z| = e^t avoids the
                # critical radius sqrt(1.2) of the third case
                (*_, w), (_, _, w_errors) = _audit_samples(spec, (t,), zs, zs.size)
                assert w_errors == [None]
                wv = np.abs(w[0])
                lhs = evaluate_lhs(params, np.exp(t) / zs)
                assert np.max(np.abs(wv - lhs)) <= 1e-9, (spec, t)


SOUNDNESS_MATRIX = [
    CriterionParams(f=uv.identity(), g=uv.identity()),
    CriterionParams(f=uv.joukowski(0.2), g=uv.joukowski(0.2)),
    CriterionParams(f=uv.joukowski(0.4), g=uv.joukowski(0.4)),
    CriterionParams(f=uv.joukowski(0.6), g=uv.joukowski(0.6)),
    CriterionParams(f=uv.joukowski(0.8), g=uv.joukowski(0.8)),
    CriterionParams(f=uv.joukowski(1.2), g=uv.joukowski(1.2)),
    CriterionParams(f=uv.joukowski(0.3), g=uv.identity()),
    CriterionParams(f=uv.joukowski(0.5), g=uv.identity()),
    CriterionParams(f=uv.joukowski(0.4), g=uv.joukowski(0.4), h=uv.inverse_square(0.25)),
    CriterionParams(f=uv.joukowski(0.3), g=uv.joukowski(0.3), h=uv.inverse_square(0.5)),
    CriterionParams(f=uv.laurent(1, 0, [0.3, 0.1]), g=uv.laurent(1, 0, [0.3, 0.1])),
    CriterionParams(f=uv.laurent(2, 1 + 0.5j, [0.3]), g=uv.laurent(2, 1 + 0.5j, [0.3])),
    CriterionParams(f=uv.joukowski(0.25), g=uv.identity(), h=uv.inverse_square(0.25)),
    CriterionParams(
        f=uv.moebius_of(uv.joukowski(0.4), 1, 0, 0, 1),
        g=uv.moebius_of(uv.joukowski(0.4), 1, 0, 0, 1),
    ),
]


def test_07_soundness_harness():
    with _Budget(7, "soundness harness", 30.0):
        assert len(SOUNDNESS_MATRIX) >= 12
        plan = uv.SamplingPlan()
        passes = 0
        for params in SOUNDNESS_MATRIX:
            verdict = issue_verdict(estimate_sup(params, plan))
            if verdict.outcome == "pass":
                passes += 1
                scan = uv.injectivity_scan(params.f, plan)
                assert scan.collisions == (), (
                    "collision under a pass verdict",
                    params,
                    scan.collisions[:3],
                )
        assert passes >= 4  # the harness is not vacuous

        # the overextended Joukowski map must produce its analytic collision
        plan_c = uv.SamplingPlan(
            r_min=1.05,
            r_max=1.05 * (8 / 7.35) ** 2,
            radial_count=3,
            angular_count=64,
        )
        scan = uv.injectivity_scan(
            uv.joukowski(1.2), plan_c, collision_tolerance=1e-9, separation_floor=0.05
        )
        assert scan.collisions
        best = min(scan.collisions, key=lambda c: abs(c.z1 - 1.05) + abs(c.z2 - 8 / 7))
        assert abs(best.z1 - 1.05) <= 1e-6 and abs(best.z2 - 8 / 7) <= 1e-6
        assert best.image_distance <= 1e-9
        assert best.domain_distance >= 0.05


def test_08_pommerenke_audit():
    with _Budget(8, "pommerenke audit", 10.0):
        trivial = audit_pommerenke(CHAIN_SPECS[0])
        assert trivial.max_abs_w == 0.0
        assert trivial.passed

        spec = ChainSpec(
            f=uv.joukowski(0.6), g=uv.joukowski(0.6), h=uv.constant_one(), alpha=0.5
        )
        rep = audit_pommerenke(spec, t_samples=(0.0, 0.25, LN2))
        assert abs(rep.max_abs_w - 1.0588235294117647) <= 1e-6
        assert abs(rep.witness_w[0] - 1.0) <= 1e-9
        assert abs(rep.witness_w[1] - LN2) <= 1e-12
        assert not rep.passed


def test_09_h_admissibility():
    with _Budget(9, "h admissibility", 2.0):
        plan = uv.SamplingPlan()
        good = uv.validate_h_admissible(uv.inverse_square(0.5), plan)
        assert good.passed and good.min_re_h >= 0.5 - 1e-6
        bad = uv.validate_h_admissible(uv.inverse_square(0.6), plan)
        assert not bad.passed
        for c in (0.25, 0.5, 0.6, 0.3 + 0.2j):
            rep = uv.validate_h_admissible(uv.inverse_square(c), plan, tol=1e-9)
            assert rep.equivalence_ok, c


def test_10_cli_determinism(tmp_path):
    with _Budget(10, "cli determinism", 10.0):
        args = [
            sys.executable,
            "-m",
            "univalence.cli",
            "check",
            "--f",
            "joukowski:0.45",
            "--g",
            "laurent:1;0;0.2",
            "--h",
            "hinvsq:0.25",
            "--alpha",
            "0.3,0.1",
        ]

        def report_of():
            out = subprocess.run(args, capture_output=True, text=True)
            assert out.returncode in (0, 1, 2), out.stderr
            rep = json.loads(out.stdout)
            rep.pop("timing_ms")
            return json.dumps(rep, sort_keys=False)

        assert report_of() == report_of()
