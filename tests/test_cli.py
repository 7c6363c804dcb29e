import contextlib
import io
import json
import subprocess
import sys

import pytest

from univalence.cli import RunConfig, main, run


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
        import numpy as np

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

    def test_config_block_inputs_are_checked(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"command": "check", "tol": NaN}')
        assert main(["check", "--config", str(path)]) == 3
        path.write_text('{"command": "chain", "t_samples": [0.0, -0.5]}')
        assert main(["chain", "--config", str(path)]) == 3
        path.write_text('{"command": "chain", "t_samples": []}')
        assert main(["chain", "--config", str(path)]) == 3
        for text in ("not json", "[]", '{"f": "identity"}'):
            path.write_text(text)
            assert main(["chain", "--config", str(path)]) == 3
        assert main(["chain", "--config", str(tmp_path / "missing.json")]) == 3

    def test_catalog_lists_specs(self):
        code, report, _ = run_quiet(RunConfig(command="catalog"))
        assert code == 0
        specs = [f["spec"] for f in report["result"]["functions"]]
        assert "identity" in specs

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

    def test_worker_counts_byte_identical(self):
        cfg = RunConfig(
            command="check", f="joukowski:0.45", g="laurent:1;0;0.2", alpha=0.3 + 0.1j
        )
        _, r1, _ = run_quiet(cfg, workers=1)
        _, r4, _ = run_quiet(cfg, workers=4)
        assert json.dumps(strip_timing(r1)) == json.dumps(strip_timing(r4))

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

    def test_both_variants_doubles_rows(self):
        cfg = RunConfig(
            command="sweep",
            f="joukowski:0.4",
            alphas=(0.3 + 0j,),
            both_variants=True,
            radial_count=8,
            angular_count=16,
        )
        _, report, _ = run_quiet(cfg)
        rows = report["result"]["rows"]
        assert [r["squared_variant"] for r in rows] == [True, False]

    def test_exit_aggregation(self):
        cfg = RunConfig(
            command="sweep",
            f="joukowski:0.6",
            criterion="becker",
            radial_count=8,
            angular_count=16,
        )
        code, _, _ = run_quiet(cfg)
        assert code == 1


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
        assert report["schema"] == 2
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
