import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import univalence.cli
from univalence.catalog import make_sigma_function
from univalence.cli import _FLAGS, SETTINGS, RunConfig, _build_parser, _json_text, main, run
from univalence.errors import UsageError


def run_quiet(config, **kwargs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, report = run(config, **kwargs)
    return code, report, buf.getvalue()


def strip_timing(report):
    out = dict(report)
    out.pop("timing_ms")
    return out


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "univalence.cli", *args], capture_output=True, text=True
    )


GOLDEN_CHECKS = json.loads(
    (Path(__file__).parent / "golden_check_reports.json").read_text()
)


@pytest.mark.parametrize("case", GOLDEN_CHECKS, ids=[c["name"] for c in GOLDEN_CHECKS])
def test_check_reproduces_golden_report(case, tmp_path):
    # Every criterion on a Laurent f and on Moebius f with c = 0, c != 0 and
    # nested; the report (without timing_ms) and the grid CSV were recorded
    # before the criterion pieces were computed on demand, and must not move.
    path = tmp_path / "grid.csv"
    code, report, _ = run_quiet(
        RunConfig.from_dict(case["report"]["config"]), grid_csv=str(path)
    )
    assert code == case["exit_code"]
    assert json.dumps(strip_timing(report)) == json.dumps(case["report"])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == case["grid_csv_sha256"]


GOLDEN_ORACLE = json.loads(
    (Path(__file__).parent / "golden_oracle_reports.json").read_text()
)


@pytest.mark.parametrize("case", GOLDEN_ORACLE, ids=[c["name"] for c in GOLDEN_ORACLE])
def test_oracle_reproduces_golden_report(case, capsys):
    # The oracle's result and exit code, recorded before the collision search
    # ran one full searchsorted pass instead of three. joukowski_false_pass
    # (z + 1.2/z) and laurent_false_pass (z + 0.9/z^3, f' = 0 at |z| = 1.28)
    # are not univalent on |z| > 1, yet their grids hold no pair within the
    # default tolerance: known false passes, pinned as they are until the
    # oracle can say "not univalent" by other means.
    code = main(case["argv"])
    report = json.loads(capsys.readouterr().out)
    assert code == case["exit_code"]
    assert json.dumps(report["result"]) == json.dumps(case["result"])


GOLDEN_CHAINS = json.loads(
    (Path(__file__).parent / "golden_chain_reports.json").read_text()
)


def golden_stdout(kind, case):
    """The text a golden check, chain or oracle case prints on stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if kind == "check":
            run(RunConfig.from_dict(case["report"]["config"]))
        elif kind == "chain":
            ts = {"t_samples": tuple(case["t_samples"])} if case["t_samples"] else {}
            run(RunConfig("chain", f=case["f"], g=case["g"], h=case["h"],
                          alpha=complex(*case["alpha"]), **ts))
        else:
            main(case["argv"])
    return buf.getvalue()


GOLDEN_RUNS = [
    pytest.param(kind, case, id=f"{kind}-{case['name']}")
    for kind, cases in (("check", GOLDEN_CHECKS), ("chain", GOLDEN_CHAINS),
                        ("oracle", GOLDEN_ORACLE))
    for case in cases
]


@pytest.mark.parametrize("kind,case", GOLDEN_RUNS)
def test_report_text_is_json_dumps_indent_2(kind, case):
    # The golden tests compare report values; this pins the emitted bytes:
    # json.dumps(indent=2) text, floats as repr writes them, one newline.
    out = golden_stdout(kind, case)
    assert out == json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([2**64, -(10**30)]),
    finite | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]),
    finite.map(np.float64),
    st.text() | st.sampled_from(["\x00\x1f\x7f", "é\u2028😀", '"\\/\n\t']),
)
trees = st.recursive(
    leaves,
    lambda kids: st.lists(kids) | st.dictionaries(st.text(), kids),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_report_writer_is_json_dumps_indent_2(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf")]
)
def test_report_writer_rejects_nonfinite_floats_as_json_does(bad):
    tree = {"a": [1, {"b": bad}], "c": 2.0}
    with pytest.raises(ValueError) as want:
        json.dumps(tree, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        _json_text(tree)
    assert str(got.value) == str(want.value)


def test_nonfinite_report_is_evaluation_failure(monkeypatch, capsys):
    monkeypatch.setattr(univalence.cli, "CATALOG_LISTING", {"x": [float("inf")]})
    assert main(["catalog"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: EvaluationFailure: report holds a non-finite number: "
        "Out of range float values are not JSON compliant: inf\n"
    )


@pytest.mark.parametrize(
    "argv,depth",
    [
        (["check", "--f", "{}"], 1000),
        (["check", "--f", "{}", "--criterion", "becker"], 1000),
        (["chain", "--f", "{}", "--g", "{}"], 400),
        (["oracle", "--f", "{}"], 1000),
    ],
    ids=["check", "becker", "chain", "oracle"],
)
def test_deep_identity_nest_reports_its_inner_map(argv, depth, capsys):
    # a nest of identity Moebius levels is the map under it: same result,
    # not a RecursionError
    results = []
    for spec in ("moebius:1,0,0,1:" * depth + "joukowski:0.3", "joukowski:0.3"):
        assert main([arg.format(spec) for arg in argv]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0] == results[1]


class TestExitCodes:
    def test_check_pass(self):
        code, report, _ = run_quiet(
            RunConfig(command="check", f="joukowski:0.4", criterion="becker")
        )
        assert code == 0
        assert report["result"]["verdict"] == "pass"
        assert abs(report["result"]["sup"] - 0.8) < 0.02

    def test_check_fail(self):
        code, report, _ = run_quiet(
            RunConfig(command="check", f="joukowski:0.6", criterion="becker")
        )
        assert code == 1
        assert report["result"]["sup"] >= 1.0588

    def test_oracle_collision(self):
        code, report, _ = run_quiet(
            RunConfig(
                command="oracle",
                f="joukowski:1.2",
                r_min=1.05,
                r_max=1.05 * (8 / 7.35) ** 2,
                radial_count=3,
                angular_count=64,
                collision_tolerance=1e-9,
                separation_floor=0.05,
            )
        )
        assert code == 1
        assert report["result"]["collisions"]

    def test_oracle_clean(self):
        code, report, _ = run_quiet(
            RunConfig(command="oracle", f="joukowski:0.8", r_max=10.0)
        )
        assert code == 0 and report["result"]["pass"]

    def test_chain_exit_codes(self):
        code, _, _ = run_quiet(
            RunConfig(command="chain", f="identity", g="identity", t_samples=(0.0, 0.5))
        )
        assert code == 0
        code, report, _ = run_quiet(
            RunConfig(
                command="chain",
                f="joukowski:0.6",
                g="joukowski:0.6",
                t_samples=(0.0, 0.25, float(np.log(2))),
            )
        )
        assert code == 1
        assert abs(report["result"]["max_abs_w"] - 1.0588235294117647) < 1e-6

    def test_chain_records_critical_point_in_exterior(self):
        # f' = 1 - 1.5/z^2 vanishes at z = +-sqrt(1.5): the precondition
        # names the outermost root, the audit goes on over every t and fails
        code, report, _ = run_quiet(
            RunConfig(command="chain", f="joukowski:1.5", g="identity")
        )
        result = report["result"]
        assert code == 1 and result["pass"] is False
        assert result["errors"] == [
            "precondition: f' vanishes at (1.2247448713915894+0j) in |z| >= 1 (and 1 more there)"
        ]
        assert len(result["a1"]) == 6

    @pytest.mark.parametrize("n", [16, 32, 63])
    def test_chain_fails_critical_point_near_the_circle(self, n, capsys):
        # f = z - (1.5/n) z^-n is not univalent on |z| > 1: f' = 1 + 1.5
        # z^-(n+1) vanishes at |z| = 1.5^(1/(n+1)), 1.024 to 1.006. |w| stays
        # below 1 at the six chain times, so only the precondition fails
        f = "laurent:1;0;" + ",".join(["0"] * (n - 1) + [repr(-1.5 / n)])
        assert main(["chain", "--f", f, "--g", "identity", "--alpha", "0"]) == 1
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["pass"] is False and result["max_abs_w"] < 1.0
        (error,) = result["errors"]
        prefix = "precondition: f' vanishes at "
        assert error.startswith(prefix) and error.endswith(f" in |z| >= 1 (and {n} more there)")
        root = complex(error[len(prefix) :].split(" in ")[0])
        assert abs(abs(root) - 1.5 ** (1 / (n + 1))) < 1e-12
        assert abs(make_sigma_function(f).derivs(np.array([root]), 1)[1, 0]) < 1e-12

    def test_chain_passes_control_without_exterior_roots(self, capsys):
        argv = ["chain", "--f", "laurent:1;0;0.2,0.05", "--g", "identity", "--alpha", "0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["errors"] == []

    def test_chain_root_within_rounding_of_the_circle_fails(self):
        # joukowski:1.0: f' = 1 - 1/z^2 vanishes at +-1, which np.roots
        # places an ulp inside |z| = 1; a root within catalog.ROOT_BAND of the
        # circle counts as in |z| >= 1. The sample at zeta = 1 fails too.
        code, report, _ = run_quiet(
            RunConfig(command="chain", f="joukowski:1.0", g="identity")
        )
        errors = report["result"]["errors"]
        assert code == 1
        assert errors[0].startswith("precondition: f' vanishes at ")
        assert "chain grid at t=0.0: g'/f' zero or pole at (1+0j)" in errors

    @pytest.mark.parametrize(
        "argv",
        [
            ("chain", "--f", "moebius:1e-300+1e-300j,0.5-1j,0,3e-3:moebius:0.713-1.11e-308j,"
             "2.2e-308j,2.2e-308j,3:identity", "--g", "moebius:2.2e-308j,3,3,-0.399j:joukowski:1e-160"),
            ("chain", "--f", "moebius:1e-160,1e-300,1e-300,-1.29-1.19e-07j:laurent:2.22e-16-0.702j;"
             "0.716+2.88j;1e-300+1e-300j", "--g", "joukowski:-0.774", "--alpha", "-1"),
            ("oracle", "--f", "moebius:0.5-1j,3,2.2e-308j,-2.23e-309:identity"),
            ("check", "--f", "laurent:-2.23e-309;-1.72j"),
            ("check", "--g", "moebius:0,1,1e-300,0:joukowski:1"),
            ("check", "--f", "laurent:1e300;0;1", "--rmax", "1e10"),
            ("oracle", "--rmax", "1.7e308"),
        ],
    )
    def test_values_beyond_double_range_exit_cleanly(self, argv):
        # values near 1e308 overflow; they end in a verdict or a typed error
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--radial", "2", "--angular", "4", "--refine", "0"])
        assert code in (0, 1, 2, 3)
        assert code != 3 or out.getvalue() == ""

    def test_refine_zero_is_inconclusive(self, capsys):
        argv = ["check", "--f", "joukowski:0.4", "--criterion", "becker"]
        code = main([*argv, "--refine", "0", "--radial", "2", "--angular", "3"])
        result = json.loads(capsys.readouterr().out)["result"]
        assert code == 2
        assert result["verdict"] == "inconclusive" and result["converged"] is False

    def test_oracle_beyond_double_range_names_the_plan(self, capsys):
        code = main(["oracle", "--rmax", "1.7e308", "--radial", "2", "--angular", "4"])
        out = capsys.readouterr()
        assert code == 3 and out.out == ""
        assert out.err == (
            "error: InvalidPlan: median image grid spacing inf at r_max = 1.7e+308 "
            "puts the default collision_tolerance beyond double range\n"
        )

    @pytest.mark.parametrize("config", [False, True])
    def test_decreasing_chain_times_are_usage_error(self, tmp_path, capsys, config):
        # the audit probes each time's contour inside the next time's, so
        # 1 0.5 0 would read as 32 subordination failures (exit 1)
        argv = ["chain", "--f", "joukowski:0.3", "--g", "joukowski:0.2"]
        if config:
            path = tmp_path / "config.json"
            path.write_text('{"command": "chain", "t_samples": [1.0, 0.5, 0.0]}')
            argv = ["chain", "--config", str(path)]
        else:
            argv += ["--t-samples", "1", "0.5", "0"]
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "usage error: t_samples must not decrease, got [1.0, 0.5, 0.0]\n"
        # equal neighbours are allowed
        assert main(["chain", "--t-samples", "0", "1", "1"]) == 0

    @pytest.mark.parametrize(
        "argv, alphas",
        [
            (("check", "--alpha", "-0.5,0.1"), [(-0.5, 0.1)]),
            (("check", "--alpha", "-.5,-1e-1"), [(-0.5, -0.1)]),
            (
                ("sweep", "--alphas", "-0.5,0.1", "0.2", "-1e-3"),
                [(-0.5, 0.1), (0.2, 0.0), (-1e-3, 0.0)],
            ),
        ],
    )
    def test_negative_complex_flag_values(self, argv, alphas):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--f", "joukowski:0.4", "--radial", "4", "--angular", "8"])
        assert code in (0, 1, 2)
        config = json.loads(out.getvalue())["config"]
        got = config.get("alphas") or [config["alpha"]]
        assert [(a["re"], a["im"]) for a in got] == alphas

    def test_usage_errors_exit_3(self):
        assert main(["check", "--criterion", "wat"]) == 3
        assert main(["check", "--f", "joukowski"]) == 3
        assert main(["frobnicate"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--f", "joukowski:0.9", "--criterion", "becker", "--tol", "nan"),
            ("check", "--tol", "inf"),
            ("check", "--alpha", "nan"),
            ("check", "--alpha", "0.5,inf"),
            ("sweep", "--alphas", "0.25", "nan"),
            ("chain", "--t-samples", "-1"),
            ("chain", "--t-samples", "0", "nan"),
            ("chain", "--t-samples", "inf"),
            ("oracle", "--f", "joukowski:1.2", "--collision-tol", "nan"),
            ("oracle", "--separation-floor", "inf"),
            ("oracle", "--f", "joukowski:1.2", "--radial", "8", "--angular", "16",
             "--collision-tol", "-1"),
            ("oracle", "--separation-floor", "-0.5"),
        ],
    )
    def test_nonfinite_or_negative_time_inputs_exit_3(self, argv):
        out = cli(*argv)
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    def test_whole_grid_is_diagnosed_at_once(self, capsys):
        # f' vanishes at sqrt(c) = 12.759... and h at 1.001 = r_min, in
        # different blocks of the grid; the whole grid is diagnosed at once
        code = main(["check", "--f", "joukowski:162.80245464184108",
                     "--h", "hinvsq:-1.0020009999999997"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: CriticalPointInRegion: f' vanishes at (12.759406516050857+0j)\n"
        )

    @pytest.mark.parametrize("alpha", ["0", "0.3", "0.5"])
    def test_critical_point_of_g_is_diagnosed_at_every_alpha(self, capsys, alpha):
        # g = joukowski(4) has g' = 0 at z = 2, a grid point of this plan. At
        # alpha = 0 every g term has coefficient 0, yet 0 * inf is NaN, so
        # the point is still diagnosed rather than read as a finite LHS.
        code = main(["check", "--f", "joukowski:0.3", "--g", "joukowski:4",
                     "--alpha", alpha, "--rmin", "2", "--rmax", "4",
                     "--radial", "3", "--angular", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: CriticalPointInRegion: g' vanishes at (2+0j)\n"

    @pytest.mark.parametrize("extra", [(), ("--refine", "0")])
    def test_pole_on_the_doubled_tail_circle_exits_3(self, capsys, extra):
        # f = 1/(z - 100) has its pole at 2 r_max = 100, on the tail circle
        # evaluated in the same call as the first refinement round (or, at
        # depth 0, as the base grid); it is still diagnosed last
        code = main(["check", "--f", "moebius:0,1,1,-100:identity",
                     "--criterion", "becker", *extra])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: EvaluationFailure: criterion not evaluable at (100+0j)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--radial", "1000000", "--angular", "1000000"),
            ("check", "--radial", "4", "--angular", "4", "--refine-factor", "10000000"),
            ("sweep", "--radial", "1000000", "--angular", "1000000"),
            ("oracle", "--radial", "1000000", "--angular", "1000000"),
        ],
    )
    def test_plan_too_large_for_memory_exits_3(self, argv):
        resource = pytest.importorskip("resource")

        def cap_address_space():
            # 3 GiB: every plan here fails to allocate instead of swapping
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        out = subprocess.run(
            [sys.executable, "-m", "univalence.cli", *argv, "--f", "joukowski:0.5"],
            capture_output=True, text=True, preexec_fn=cap_address_space,
        )
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr.startswith("error: MemoryError: ")
        assert "Traceback" not in out.stderr

    def test_config_block_inputs_are_checked(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"command": "check", "tol": NaN}')
        assert main(["check", "--config", str(path)]) == 3
        path.write_text('{"command": "chain", "t_samples": [0.0, -0.5]}')
        assert main(["chain", "--config", str(path)]) == 3
        path.write_text('{"command": "chain", "t_samples": []}')
        assert main(["chain", "--config", str(path)]) == 3
        # mistyped values name their field instead of ending in a traceback
        # (exit 1, read as a fail) or running as if well typed
        for command, block, field in [
            ("check", '"plan": {"r_min": "a"}', "r_min"),
            ("check", '"plan": {"radial_count": 2.5}', "radial_count"),
            ("check", '"f": 5', "f"),
            ("check", '"tol": true', "tol"),
            # a complex takes finite real parts: no bool, string or overflow
            ("check", '"alpha": {"re": true, "im": 0}', "alpha"),
            ("check", '"alpha": {"re": 1, "im": "x"}', "alpha"),
            ("check", '"alpha": {"re": 1}', "alpha"),
            ("sweep", '"alphas": [{"re": 1, "im": 0}, {"re": 1e999, "im": 0}]', "alphas"),
            ("sweep", '"alphas": [{"re": 1, "im": %d}]' % 10**400, "alphas"),
        ]:
            path.write_text('{"command": "%s", %s}' % (command, block))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--config", str(path)]) == 3
            assert err.getvalue().startswith(f"usage error: {field} must be ")
        for text in ("not json", "[]", '{"f": "identity"}'):
            path.write_text(text)
            assert main(["chain", "--config", str(path)]) == 3
        assert main(["chain", "--config", str(tmp_path / "missing.json")]) == 3

    def test_catalog_lists_specs(self):
        code, report, _ = run_quiet(RunConfig(command="catalog"))
        assert code == 0
        specs = [f["spec"] for f in report["result"]["functions"]]
        assert "identity" in specs

    @pytest.mark.parametrize(
        "argv",
        [
            ("--f", "nonsense"),
            ("--radial", "5"),
            ("--criterion", "becker"),
            ("--alphas", "0"),
            ("--config", "config.json"),
        ],
    )
    def test_catalog_takes_no_run_setting(self, tmp_path, monkeypatch, capsys, argv):
        # the listing reads no run setting, so a flag would only be echoed
        # into the report's config block
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text('{"command": "catalog"}')
        assert main(["catalog", *argv]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage error: unrecognized arguments")
        assert main(["catalog", "--json", "listing.json"]) == 0
        assert json.loads((tmp_path / "listing.json").read_text())["config"] == (
            RunConfig(command="catalog").to_dict()
        )

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_flags_config_block_and_table_agree(self, command):
        # the parser registers, and the config block records, exactly the
        # settings of the command's row; plan settings nest under "plan"
        parser = _build_parser()._subparsers._group_actions[0].choices[command]
        outputs = {"help", "json_path", "config", "grid_csv"}
        flags = {a.dest for a in parser._actions} - outputs
        block = RunConfig(command=command).to_dict()
        assert block.pop("command") == command
        keys = set(block) - {"plan"} | set(block.get("plan", {}))
        assert flags == keys == set(SETTINGS[command])
        assert len(keys) == {"check": 12, "sweep": 13, "chain": 5, "oracle": 7,
                             "catalog": 0}[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ("chain", "--rmax", "3"),
            ("chain", "--criterion", "becker"),
            ("oracle", "--alpha", "0.3"),
            ("oracle", "--refine", "0"),
            ("check", "--t-samples", "1"),
            ("sweep", "--t-samples", "1"),
            ("check", "--workers", "2"),
        ],
    )
    def test_unread_settings_are_usage_errors(self, capsys, argv):
        # a flag the command does not read would only be echoed into the
        # report's config block
        assert main(list(argv)) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage error: unrecognized arguments")

    @pytest.mark.parametrize(
        "block, named",
        [
            ('{"command": "check", "alphas": [{"re": 1, "im": 0}]}', "alphas"),
            ('{"command": "check", "both_variants": true, "tol": 0.1}', "both_variants"),
            # keys a block of an older schema may hold
            ('{"command": "check", "squared_variant": true}', "squared_variant"),
            ('{"command": "sweep", "both_variants": false}', "both_variants"),
            ('{"command": "chain", "squared_variant": false}', "squared_variant"),
            ('{"command": "chain", "plan": {"r_max": 3.0}}', "r_max"),
            ('{"command": "oracle", "plan": {"refine_depth": 0}}', "refine_depth"),
            # a plan setting outside "plan" is not where the block keeps it
            ('{"command": "check", "r_min": 2.0}', "r_min"),
        ],
    )
    def test_unread_config_keys_are_usage_errors(self, tmp_path, capsys, block, named):
        path = tmp_path / "config.json"
        path.write_text(block)
        command = json.loads(block)["command"]
        assert main([command, "--config", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"usage error: {command} does not read {named}\n"

    def test_unread_python_settings_are_usage_errors(self):
        # a RunConfig built in Python names what its command would drop, as
        # from_dict does; a setting left at its default passes
        with pytest.raises(UsageError, match=r"^chain does not read tol, radial_count$"):
            RunConfig(command="chain", tol=5.0, radial_count=3)
        with pytest.raises(UsageError, match=r"^catalog does not read f$"):
            RunConfig(command="catalog", f="joukowski:0.5")
        with pytest.raises(UsageError, match=r"^oracle does not read refine_depth$"):
            RunConfig(command="oracle", refine_depth=0)
        assert RunConfig(command="catalog").to_dict() == {"command": "catalog"}
        assert RunConfig(command="chain", tol=1e-9, radial_count=64).command == "chain"

    def test_console_entrypoint(self):
        out = cli("check", "--f", "joukowski:0.4", "--criterion", "becker")
        assert out.returncode == 0
        assert json.loads(out.stdout)["result"]["verdict"] == "pass"

    def test_reduction_identity_surfaces_end_to_end(self):
        # the master criterion specialized to (g=identity, h=const, a=1/2)
        # and the Nehari-type criterion must report the same supremum
        _, th, _ = run_quiet(
            RunConfig(command="check", f="joukowski:0.5", criterion="theorem1")
        )
        _, ne, _ = run_quiet(
            RunConfig(command="check", f="joukowski:0.5", criterion="nehari")
        )
        assert abs(th["result"]["sup"] - ne["result"]["sup"]) <= 1e-12


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        cfg = RunConfig(command="check", f="joukowski:0.45", criterion="theorem1")
        _, r1, text1 = run_quiet(cfg)
        _, r2, text2 = run_quiet(cfg)
        assert json.dumps(strip_timing(r1)) == json.dumps(strip_timing(r2))

    def test_config_round_trip(self, tmp_path):
        cfg = RunConfig(
            command="check",
            f="joukowski:0.5",
            h="hinvsq:0.25",
            alpha=0.25 + 0.1j,
            criterion="miazga_wesolowski",
            radial_count=16,
            angular_count=32,
        )
        _, r1, _ = run_quiet(cfg)
        cfg2 = RunConfig.from_dict(r1["config"])
        _, r2, _ = run_quiet(cfg2)
        assert json.dumps(strip_timing(r1)) == json.dumps(strip_timing(r2))

    def test_config_flag_reproduces_report(self, tmp_path):
        report_path = tmp_path / "report.json"
        out1 = cli(
            "check",
            "--f",
            "joukowski:0.4",
            "--criterion",
            "becker",
            "--json",
            str(report_path),
        )
        assert out1.returncode == 0
        out2 = cli("check", "--config", str(report_path))
        a = json.loads(out1.stdout)
        b = json.loads(out2.stdout)
        assert strip_timing(a) == strip_timing(b)

    def test_config_with_run_setting_flag_is_usage_error(self, tmp_path, capsys):
        # the block fixes the run: a flag beside it would be silently ignored
        path = tmp_path / "config.json"
        path.write_text('{"command": "check", "criterion": "becker", "plan": '
                        '{"radial_count": 4, "angular_count": 8}}')
        argv = ["check", "--config", str(path)]
        assert main([*argv, "--criterion", "nehari", "--radial", "16"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "usage error: --config fixes every run setting; drop --criterion, --radial\n"
        )
        assert main([*argv, "--tol", "0.1"]) == 3
        assert "drop --tol" in capsys.readouterr().err
        # outputs do not change the report, so they may join it
        csv = tmp_path / "grid.csv"
        code = main([*argv, "--json", str(tmp_path / "r.json"), "--grid-csv", str(csv)])
        assert code in (0, 1, 2)
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["criterion"] == "becker"
        assert report["config"]["plan"]["radial_count"] == 4
        assert csv.exists()

    def test_config_command_mismatch_is_usage_error(self, tmp_path):
        report_path = tmp_path / "report.json"
        cli("check", "--f", "identity", "--json", str(report_path))
        out = cli("oracle", "--config", str(report_path))
        assert out.returncode == 3


class TestSweep:
    def test_rows_follow_alpha_order(self):
        cfg = RunConfig(
            command="sweep",
            f="joukowski:0.4",
            g="identity",
            alphas=(0.5 + 0j, 0.0 + 0j, 0.25 + 0.1j),
            radial_count=8,
            angular_count=16,
        )
        code, report, _ = run_quiet(cfg)
        alphas = [(r["alpha"]["re"], r["alpha"]["im"]) for r in report["result"]["rows"]]
        assert alphas == [(0.5, 0.0), (0.0, 0.0), (0.25, 0.1)]

    def test_alpha_no_row_reads_is_usage_error(self, tmp_path, capsys):
        # every row takes its own alpha, so the config block would record a
        # value that no row read
        message = "sweep with alphas does not read alpha"
        path = tmp_path / "config.json"
        path.write_text('{"command": "sweep", "alpha": {"re": 0.3, "im": 0}, '
                        '"alphas": [{"re": 0, "im": 0}]}')
        for args in (["--alpha", "0.3", "--alphas", "0", "1"], ["--config", str(path)]):
            assert main(["sweep", *args]) == 3
            out = capsys.readouterr()
            assert out.out == "" and out.err == f"usage error: {message}\n"
        with pytest.raises(UsageError, match=f"^{message}$"):
            RunConfig(command="sweep", alpha=0.3 + 0j, alphas=(0j, 1 + 0j))

    def test_default_alpha_round_trip(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        argv = ["--alphas", "0", "0.25", "--radial", "8", "--angular", "16"]
        assert main(["sweep", *argv, "--json", str(path)]) == 0
        first = strip_timing(json.loads(capsys.readouterr().out))
        assert main(["sweep", "--config", str(path)]) == 0
        assert strip_timing(json.loads(capsys.readouterr().out)) == first

    def test_exit_aggregation(self):
        cfg = RunConfig(
            command="sweep",
            f="joukowski:0.6",
            criterion="becker",
            radial_count=8,
            angular_count=16,
        )
        code, report, _ = run_quiet(cfg)
        assert code == 1
        assert report["result"]["verdict"] == "fail"
        assert report["result"]["passing_rows"] == []

    def test_one_passing_row_passes(self):
        # the theorem concludes univalence from any one row that holds, and
        # the result names the rows that do
        cfg = RunConfig(
            command="sweep",
            f="joukowski:0.45",
            g="joukowski:0.9",
            alphas=(0j, 0.5 + 0j, 1 + 0j),
        )
        code, report, _ = run_quiet(cfg)
        result = report["result"]
        assert [row["verdict"] for row in result["rows"]] == ["pass", "pass", "fail"]
        assert result["verdict"] == "pass"
        assert result["passing_rows"] == [0, 1]
        assert code == 0

    def test_no_pass_but_an_inconclusive_row_is_inconclusive(self):
        # without refinement a sup within the bound reads inconclusive
        cfg = RunConfig(
            command="sweep",
            f="joukowski:0.45",
            g="joukowski:0.9",
            alphas=(0j, 1 + 0j),
            refine_depth=0,
        )
        code, report, _ = run_quiet(cfg)
        verdicts = [row["verdict"] for row in report["result"]["rows"]]
        assert verdicts == ["inconclusive", "fail"]
        assert report["result"]["verdict"] == "inconclusive"
        assert report["result"]["passing_rows"] == []
        assert code == 2


class TestOutputs:
    def test_json_file_matches_stdout(self, tmp_path):
        path = tmp_path / "r.json"
        _, report, text = run_quiet(
            RunConfig(command="check", f="identity"), json_path=str(path)
        )
        assert path.read_text() == text

    def test_grid_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        cfg = RunConfig(command="check", f="joukowski:0.4", criterion="becker",
                        radial_count=8, angular_count=16)
        _, report, _ = run_quiet(cfg, grid_csv=str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "re,im,lhs"
        plan = report["config"]["plan"]
        expected = (
            plan["radial_count"] * plan["angular_count"]
            + plan["refine_depth"] * (2 * plan["refine_factor"] + 1) ** 2
            + 2 * plan["angular_count"]
        )
        assert len(lines) - 1 == expected
        first = lines[1].split(",")
        assert len(first) == 3
        float(first[0]), float(first[1]), float(first[2])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("oracle", "--f", "identity"), "--json"),
            (("check", "--f", "joukowski:0.4"), "--grid-csv"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing/out", "."])
    def test_unwritable_output_path_exits_3(self, tmp_path, argv, flag, target):
        # a missing directory or a directory: a bad input, not a verdict
        path = tmp_path / target
        out = cli(*argv, "--radial", "2", "--angular", "4", flag, str(path))
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == f"usage error: cannot write {flag} {path}: " + (
            "No such file or directory\n" if target != "." else "Is a directory\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "--grid-csv", "g.csv", "--radial", "2", "--angular", "4"),
            ("sweep", "--grid-csv", "g.csv", "--radial", "2", "--angular", "4"),
            ("chain", "--grid-csv", "g.csv"),
        ],
    )
    def test_runtime_flags_only_where_read(self, tmp_path, monkeypatch, capsys, argv):
        # --grid-csv is written by check alone; elsewhere it would be a
        # silent no-op
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage error: unrecognized arguments")
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_is_no_verdict(self, unbuffered):
        # a reader gone before the report is written (say `| head -c 0`):
        # one error line and exit 3, never a traceback read as a fail, with
        # a buffered stdout as with an unbuffered one
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "univalence.cli", "check", "--f", "joukowski:0.3",
                 "--radial", "8", "--angular", "16"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write)
        assert out.returncode == 3
        assert out.stderr == "error: BrokenPipeError: stdout closed\n"

    def test_chain_report_is_strict_json(self):
        # h = 1 - 1/z^2 vanishes at w = 1, so the t = 0 w grid yields no value
        out = cli("chain", "--h", "hinvsq:-1", "--t-samples", "0")

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads(out.stdout, parse_constant=reject)
        assert out.returncode == 1
        assert report["result"]["max_abs_w"] is None
        assert report["result"]["errors"]

    def test_chain_overflowing_time_names_w_grid(self):
        # e^800 overflows, so every w sample of that slice is NaN
        out = cli("chain", "--t-samples", "800")
        errors = json.loads(out.stdout)["result"]["errors"]
        assert out.returncode == 1
        assert any(e.startswith("w grid at t=800.0: non-finite w") for e in errors)

    def test_schema_fields(self):
        _, report, _ = run_quiet(RunConfig(command="check", f="identity"))
        assert report["schema"] == 5
        assert "seed" not in report["config"]
        assert set(report["result"]) == {
            "sup",
            "argmax",
            "tail",
            "converged",
            "verdict",
            "margin",
        }
        assert set(report["result"]["argmax"]) == {"re", "im"}


def test_import_leaves_out_thread_pool_modules():
    # the scan runs its blocks serially; a thread pool's import costs the
    # startup of every call
    code = "import sys, univalence.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.split())
    assert "univalence.cli" in loaded
    assert not {"concurrent.futures", "logging"} & loaded


# Inputs for the fuzz test: well-formed specs and numbers, with at most one
# argument replaced by a malformed, non-finite or degenerate one.
_reals = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "1.5", "-2", "1e-3"]),
    st.floats(-3.0, 3.0).map(lambda x: f"{x:.3g}"),
)
_pairs = st.one_of(_reals, st.builds("{},{}".format, _reals, _reals))
_coeffs = st.one_of(
    st.complex_numbers(max_magnitude=3.0).map(lambda c: f"{c.real:.3g}{c.imag:+.3g}j"),
    st.sampled_from(["1e-300", "-2.23e-309", "2.2e-308j", "1e-160", "1e300", "-1e250"]),
)
_functions = st.recursive(
    st.one_of(
        st.just("identity"),
        st.builds("joukowski:{}".format, _pairs),
        st.builds(
            "laurent:{};{};{}".format,
            _coeffs,
            _coeffs,
            st.lists(_coeffs, max_size=3).map(",".join),
        ),
    ),
    lambda inner: st.builds(
        "moebius:{},{},{},{}:{}".format, _coeffs, _coeffs, _coeffs, _coeffs, inner
    ),
    max_leaves=3,
)
_bad = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x", "1,2,3", "-1"]),
    st.sampled_from(["joukowski:nan", "laurent:1;0;inf", "laurent:0;1", "hinvsq:nan"]),
    st.sampled_from(["moebius:1,2,2,4:identity", "moebius:1,0,1,-2:identity"]),
    st.text(max_size=6),
)


def _flags(command, values):
    """argv of the settings in ``values`` (field: list of strings) that
    ``command`` reads."""
    read = SETTINGS[command]
    return [x for name, v in values.items() if name in read for x in (_FLAGS[name][0], *v)]


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["check", "sweep", "chain", "oracle"]))
    times = st.floats(0.0, 3.0).map("{:.3g}".format)
    values = {
        "f": [draw(_functions)],
        "g": [draw(_functions)],
        "h": [draw(st.just("hconst") | st.builds("hinvsq:{}".format, _pairs))],
        "alpha": [draw(_pairs)],
        "tol": [draw(st.sampled_from(["0", "1e-9", "0.1", "2"]))],
        "t_samples": sorted(draw(st.lists(times, min_size=1, max_size=3)), key=float),
        "radial_count": ["2"],
        "angular_count": ["4"],
        "refine_depth": ["0"],
    }
    corruptible = ["f", "g", "h", "alpha", "tol", "t_samples"]
    corrupt = draw(st.sampled_from([None, *(n for n in corruptible if n in SETTINGS[command])]))
    if corrupt:
        values[corrupt][0] = draw(_bad)
    return [command, *_flags(command, values)]


def _assert_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert out.getvalue() == ""


@settings(max_examples=150, deadline=None)
@given(argv=_cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    _assert_exits_cleanly(argv)


# Plan flags for the fuzz: radii from just above 1 to the edge of double
# range, where grid spacings, images and the 2 r_max tail circle overflow.
_radii = st.one_of(
    st.sampled_from(["1.0000000000000002", "1.001", "2", "1e154", "1e300", "1.7e308"]),
    st.floats(1.0, 1.7e308, exclude_min=True).map(repr),
)


@st.composite
def _plan_argv(draw):
    argv = draw(_cli_argv().filter(lambda a: a[0] != "chain"))
    radii = sorted([draw(_radii), draw(_radii)], key=float)
    if draw(st.integers(0, 7)) == 0:
        radii.reverse()  # now and then a plan with r_min > r_max
    # later flags override the fixed plan of _cli_argv
    return argv + _flags(argv[0], {
        "r_min": [radii[0]],
        "r_max": [radii[1]],
        "radial_count": [str(draw(st.integers(1, 4)))],
        "angular_count": [str(draw(st.integers(1, 4)))],
        "refine_depth": [str(draw(st.integers(0, 2)))],
    })


@settings(max_examples=150, deadline=None)
@given(argv=_plan_argv())
def test_cli_fuzz_plan_flags_exit_cleanly(argv):
    _assert_exits_cleanly(argv)
