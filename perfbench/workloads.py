"""Seeded workloads: the CLI calls each workload makes, the work each call
does, and the checks its report must pass.

Every workload is a fixed-length list of operations generated from the seed
alone. Operations within one workload have the same size (grid, t-samples,
z-grid), so the median and the tail of their times describe the same kind of
work. The generators only produce inputs on which no call should raise: the
maps keep f', g' and h away from zero on |z| >= 1.

The checks read the report as a user would and compare it with facts the
benchmark derives on its own (analytic laws, an independent collision search,
the boundary bridge of the Loewner chain). They return a list of problems;
an empty list means the operation is correct.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("scan", "chain", "oracle", "cli_default")

CRITERIA = ("theorem1", "alpha_zero", "miazga_wesolowski", "epstein", "becker", "nehari")

# Operations per workload list; the run cycles through it.
OP_COUNT = 48

# Operations traced per pass in a traced run: one full rotation of each
# workload's pattern, so per-operation counts are exact.
TRACE_CYCLE = {"scan": 12, "chain": 4, "oracle": 8, "cli_default": 12}

# Plans. The CLI defaults (64 x 128, refine depth 2, factor 4) are what
# cli_default runs; scan and oracle pass their plan explicitly.
DEFAULT_PLAN = (64, 128, 2, 4)
SCAN_PLAN = (256, 512, 2, 4)
ORACLE_PLAN = (96, 192)
R_MIN, R_MAX = 1.0 + 1e-3, 50.0

# Chain audits sample 3 circles x 64 angles at each default chain time.
CHAIN_Z_SAMPLES = 3 * 64
CHAIN_T_SAMPLES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

ORACLE_EXPLICIT_TOL = 1e-9
BECKER_LAW_REL = 0.02
A1_RESIDUAL_TOL = 1e-6
BRIDGE_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, its work units and what the checks need."""

    argv: tuple
    kind: str  # the CLI command
    units: int
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _complex(rng: random.Random, lo: float, hi: float) -> complex:
    """Complex number with modulus in [lo, hi] and uniform phase, rounded to
    four decimals so the CLI parses exactly the value the checks use."""
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(round(r * math.cos(phi), 4), round(r * math.sin(phi), 4))


def _pair(z: complex) -> str:
    """CLI flag syntax re,im."""
    return f"{z.real!r},{z.imag!r}"


def _literal(z: complex) -> str:
    """Laurent/Moebius coefficient syntax (a python complex literal)."""
    return f"{z.real!r}{z.imag:+}j"


def _sigma(rng: random.Random, laurent: bool, joukowski_max: float = 0.6) -> tuple:
    """(spec, (b, b0, tail)) of a univalent Sigma0 map: z + c/z with
    |c| <= joukowski_max < 1, or z + t1/z + t2/z^2 with |t1| + 2|t2| < 1.

    Callers pick the kind from the operation index, so every seed runs the
    same mix of kinds and only the coefficients change."""
    if not laurent:
        c = _complex(rng, 0.1, joukowski_max)
        return f"joukowski:{_pair(c)}", (1 + 0j, 0j, (c,))
    t1 = _complex(rng, 0.05, 0.3)
    t2 = _complex(rng, 0.0, 0.1)
    return f"laurent:1;0;{_literal(t1)},{_literal(t2)}", (1 + 0j, 0j, (t1, t2))


def _h(rng: random.Random) -> str:
    # h = 1 + c/z^2 with |c| <= 0.45 keeps Re h > 1/2 on |z| > 1
    return f"hinvsq:{_pair(_complex(rng, 0.05, 0.45))}"


def _alpha(rng: random.Random) -> str:
    return _pair(complex(round(rng.uniform(0.1, 0.9), 4), round(rng.uniform(-0.3, 0.3), 4)))


def _check_ops(rng: random.Random, plan: tuple, explicit_plan: bool) -> list:
    radial, angular, depth, factor = plan
    units = radial * angular + depth * (2 * factor + 1) ** 2 + 2 * angular
    ops = []
    for i in range(OP_COUNT):
        criterion = CRITERIA[i % len(CRITERIA)]
        facts = {"criterion": criterion}
        # one call in four takes the generic Moebius path; with this rotation
        # no Becker call is among them
        moebius = i % 4 == 3
        if criterion == "becker" and not moebius:
            c = _complex(rng, 0.15, 0.6)
            f_spec = f"joukowski:{_pair(c)}"
            facts["becker_c"] = c
        else:
            f_spec, _ = _sigma(rng, laurent=(i // 6) % 2 == 1)
        if moebius:
            # c = 0 keeps f free of poles on |z| > 1
            a = round(rng.uniform(0.8, 1.2), 4)
            b = _complex(rng, 0.0, 0.5)
            f_spec = f"moebius:{a!r},{_literal(b)},0,1:{f_spec}"
        g_spec, _ = _sigma(rng, laurent=(i // 3) % 2 == 1)
        argv = [
            "check", "--f", f_spec, "--g", g_spec, "--h", _h(rng),
            "--alpha", _alpha(rng), "--criterion", criterion,
        ]
        if explicit_plan:
            argv += [
                "--radial", str(radial), "--angular", str(angular),
                "--refine", str(depth), "--refine-factor", str(factor),
            ]
        ops.append(Op(tuple(argv), "check", units, facts))
    return ops


def _chain_ops(rng: random.Random) -> list:
    ops = []
    for i in range(OP_COUNT):
        f_spec, _ = _sigma(rng, laurent=i % 2 == 1, joukowski_max=0.5)
        g_spec = f_spec
        while g_spec == f_spec:
            g_spec, _ = _sigma(rng, laurent=(i // 2) % 2 == 1, joukowski_max=0.5)
        h_spec = _h(rng)
        alpha = _alpha(rng)
        argv = ("chain", "--f", f_spec, "--g", g_spec, "--h", h_spec, "--alpha", alpha)
        facts = {"f": f_spec, "g": g_spec, "h": h_spec, "alpha": alpha}
        ops.append(Op(argv, "chain", CHAIN_Z_SAMPLES * len(CHAIN_T_SAMPLES), facts))
    return ops


def oracle_grid() -> np.ndarray:
    """The oracle plan's sample points, radius-major then angle."""
    radial, angular = ORACLE_PLAN
    radii = np.geomspace(R_MIN, R_MAX, radial)
    angles = 2.0 * np.pi * np.arange(angular) / angular
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _oracle_ops(rng: random.Random) -> list:
    radial, angular = ORACLE_PLAN
    q = (R_MAX / R_MIN) ** (1.0 / (radial - 1))
    plan_args = ("--radial", str(radial), "--angular", str(angular))
    ops = []
    for i in range(OP_COUNT):
        slot = i % 4
        extra = ()
        if slot in (0, 2):
            share = "univalent"
            f_spec, coeffs = _sigma(rng, laurent=slot == 2, joukowski_max=0.8)
        else:
            # z + c/z with |c| > 1 is not univalent: z and c/z both lie in
            # |z| > 1 when 1 < |z| < sqrt|c|
            if slot == 1:
                share = "nonunivalent_default"
                c = _complex(rng, 1.2, 2.5)
            else:
                # c = r_i r_j e^{i(theta_k + theta_l)} for grid radii and angles,
                # so the grid holds pairs with z1 z2 = c exactly
                share = "nonunivalent_explicit"
                m = rng.randint(1, 2)
                p = rng.randrange(angular)
                c = R_MIN * R_MIN * q**m * cmath.exp(2j * math.pi * p / angular)
                extra = ("--collision-tol", repr(ORACLE_EXPLICIT_TOL))
            f_spec, coeffs = f"joukowski:{_pair(c)}", (1 + 0j, 0j, (c,))
        argv = ("oracle", "--f", f_spec) + plan_args + extra
        ops.append(Op(argv, "oracle", radial * angular, {"share": share, "coeffs": coeffs}))
    return ops


def build(workload: str, seed: int) -> list:
    """The seeded operation list of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        return _check_ops(rng, SCAN_PLAN, explicit_plan=True)
    if workload == "cli_default":
        return _check_ops(rng, DEFAULT_PLAN, explicit_plan=False)
    if workload == "chain":
        return _chain_ops(rng)
    if workload == "oracle":
        return _oracle_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str) -> dict:
    """Parse a report, refusing NaN and Infinity (not strict JSON)."""
    return json.loads(text, parse_constant=_reject_constant)


EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 2}


def check_check(op: Op, report: dict, code: int, univalence) -> list:
    res, cfg = report["result"], report["config"]
    sup, tol = res["sup"], cfg["tol"]
    if sup > 1.0 + tol:
        expected = "fail"
    else:
        expected = "pass" if res["converged"] else "inconclusive"
    problems = []
    if res["verdict"] != expected:
        problems.append(f"verdict {res['verdict']} but sup {sup} and tol {tol} give {expected}")
    if code != EXIT_CODES.get(res["verdict"]):
        problems.append(f"exit code {code} for verdict {res['verdict']}")
    if abs(res["margin"] - (1.0 - sup)) > 1e-12:
        problems.append(f"margin {res['margin']} is not 1 - sup")
    if cfg["criterion"] != op.facts["criterion"]:
        problems.append(f"criterion {cfg['criterion']} not the one asked for")
    c = op.facts.get("becker_c")
    if c is not None and abs(sup - 2 * abs(c)) > BECKER_LAW_REL * 2 * abs(c):
        problems.append(f"becker sup {sup} breaks the law sup = 2|c| = {2 * abs(c)}")
    return problems


def check_chain(op: Op, report: dict, code: int, univalence) -> list:
    res = report["result"]
    problems = []
    if code != (0 if res["pass"] else 1):
        problems.append(f"exit code {code} for pass = {res['pass']}")
    ts = tuple(report["config"]["t_samples"])
    if ts != CHAIN_T_SAMPLES:
        problems.append(f"t samples {ts} not the defaults")
    if len(res["a1"]) != len(ts):
        problems.append(f"{len(res['a1'])} a1 records for {len(ts)} chain times")
    for rec in res["a1"]:
        et = math.exp(rec["t"])
        residual = abs(complex(rec["re"], rec["im"]) - et) / et
        if residual > A1_RESIDUAL_TOL or abs(residual - rec["residual"]) > 1e-12:
            problems.append(
                f"a1 at t={rec['t']}: residual {residual} (reported {rec['residual']})"
            )
    bridge = _bridge_max(op, ts, univalence)
    witness = res["witness_w"]
    on_boundary = abs(abs(complex(witness["re"], witness["im"])) - 1.0) <= 1e-12
    reported = res["max_abs_w"]
    if reported < bridge - BRIDGE_TOL * max(1.0, bridge) or (
        on_boundary and abs(reported - bridge) > BRIDGE_TOL * max(1.0, bridge)
    ):
        problems.append(f"max |w| {reported} disagrees with the boundary criterion {bridge}")
    return problems


def _bridge_max(op: Op, ts: tuple, univalence) -> float:
    """max |w(z, t)| over |z| = 1 from the criterion side: |w| = LHS(e^t/z)
    for t > 0, and |w(z, 0)| = |(1 - h)/h| at 1/z."""
    facts = op.facts
    f = univalence.make_sigma_function(facts["f"])
    g = univalence.make_sigma_function(facts["g"])
    h = univalence.make_h_function(facts["h"])
    alpha = complex(*map(float, facts["alpha"].split(",")))
    params = univalence.CriterionParams(f=f, g=g, h=h, alpha=alpha)
    angles = 2.0 * np.pi * np.arange(64) / 64
    zs = np.exp(1j * angles)
    best = 0.0
    for t in ts:
        if t > 0:
            vals = univalence.evaluate_lhs(params, np.exp(t) / zs)
        else:
            hv = h.values(1.0 / zs)
            vals = np.abs((1.0 - hv) / hv)
        best = max(best, float(np.max(vals)))
    return best


def check_oracle(op: Op, report: dict, code: int, univalence) -> list:
    from scipy.spatial import cKDTree

    res = report["result"]
    problems = []
    grid = oracle_grid()
    if res["grid_size"] != grid.shape[0]:
        problems.append(f"grid size {res['grid_size']}, expected {grid.shape[0]}")
        return problems
    passed = not res["collisions"]
    if res["pass"] != passed or code != (0 if passed else 1):
        problems.append(f"pass {res['pass']} / exit {code} with {len(res['collisions'])} collisions")

    b, b0, tail = op.facts["coeffs"]
    values = b * grid + b0
    inv = 1.0 / grid
    power = inv.copy()
    for t in tail:
        values = values + t * power
        power = power * inv
    tol, floor = res["collision_tolerance"], res["separation_floor"]
    pairs = cKDTree(np.column_stack((values.real, values.imag))).query_pairs(
        tol, output_type="ndarray"
    )
    if pairs.size:
        keep = np.abs(grid[pairs[:, 0]] - grid[pairs[:, 1]]) >= floor
        pairs = pairs[keep]
    expected = {frozenset(map(int, p)) for p in pairs}

    radial, angular = ORACLE_PLAN
    log_q = math.log(R_MAX / R_MIN) / (radial - 1)
    reported = set()
    for col in res["collisions"]:
        idx = []
        for key in ("z1", "z2"):
            z = complex(col[key]["re"], col[key]["im"])
            i = round(math.log(abs(z) / R_MIN) / log_q)
            k = round(cmath.phase(z) / (2.0 * math.pi / angular)) % angular
            j = i * angular + k
            if not (0 <= i < radial) or abs(grid[j] - z) > 1e-9:
                problems.append(f"collision point {z} is not a grid point")
                return problems
            idx.append(j)
        reported.add(frozenset(idx))
    if reported != expected:
        problems.append(
            f"{len(reported)} collisions reported, independent search finds {len(expected)}"
            f" ({len(expected - reported)} missed, {len(reported - expected)} extra)"
        )
    if op.facts["share"] == "nonunivalent_explicit":
        c = tail[0]
        if not any(
            abs(complex(col["z1"]["re"], col["z1"]["im"]) * complex(col["z2"]["re"], col["z2"]["im"]) - c)
            <= 1e-9 * abs(c)
            for col in res["collisions"]
        ):
            problems.append(f"no reported pair with z1 z2 = c = {c}")
    return problems


CHECKS = {"check": check_check, "chain": check_chain, "oracle": check_oracle}


def check(op: Op, text: str, code: int, univalence) -> list:
    """Problems with one operation's output; empty when it is correct."""
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    try:
        return CHECKS[op.kind](op, report, code, univalence)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report lacks an expected field: {type(exc).__name__}: {exc}"]
