"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. A seconds-long run of every workload, untraced and traced, prints every
   metric BENCHMARK.json names, by name and with its unit, and no other.
2. Each correctness check rejects a deliberately corrupted answer.
3. The same seed gives the same inputs, and two seeds different ones.

Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import univalence  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "3", "--seconds", "1", "--trace", str(trace),
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert out.returncode == 0, (workload, trace, out.stderr)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, lines[:5])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == wanted[trace], (workload, trace, units)
            for name, unit in units.items():
                assert any(ln.startswith(f"# {name} ") and ln.endswith(f" {unit}") for ln in lines), name
            assert any(ln.startswith("# error_rate ") for ln in lines)


def _report(op):
    call = worker.execute(op)
    assert call.error is None, call.error
    assert workloads.check(op, call.text, call.code, univalence) == [], (op.argv, call.text[:300])
    return call.code, json.loads(call.text)


def _rejects(op, code, report, corrupt, what):
    bad = copy.deepcopy(report)
    new_code = corrupt(bad)
    text = json.dumps(bad)
    found = workloads.check(op, text, code if new_code is None else new_code, univalence)
    assert found, f"check accepted a corrupted answer: {what}"


def _first(ops, **facts):
    return next(op for op in ops if all(op.facts.get(k) == v for k, v in facts.items()))


def test_checks_reject_corruption():
    ops = workloads.build("cli_default", 5)
    op = _first(ops, criterion="theorem1")
    code, rep = _report(op)

    def sup_up(r):
        r["result"]["sup"] += 0.5
    _rejects(op, code, rep, sup_up, "perturbed sup")

    def flip(r):
        r["result"]["verdict"] = "fail" if r["result"]["verdict"] != "fail" else "pass"
    _rejects(op, code, rep, flip, "flipped verdict")
    _rejects(op, code, rep, lambda r: 3, "wrong exit code")

    becker = next(op for op in ops if "becker_c" in op.facts)
    code, rep = _report(becker)

    def law(r):
        r["result"]["sup"] *= 1.05
        r["result"]["margin"] = 1.0 - r["result"]["sup"]
    _rejects(becker, code, rep, law, "becker sup off the 2|c| law")

    text = json.dumps(rep).replace(json.dumps(rep["result"]["tail"]), "NaN", 1)
    assert workloads.check(becker, text, code, univalence), "accepted NaN in a report"

    chain = workloads.build("chain", 5)[0]
    code, rep = _report(chain)

    def a1(r):
        r["result"]["a1"][2]["re"] += 1e-3
    _rejects(chain, code, rep, a1, "perturbed a1")

    def max_w(r):
        r["result"]["max_abs_w"] *= 0.999
    _rejects(chain, code, rep, max_w, "max |w| off the boundary bridge")

    def chain_code(r):
        return 1 - (0 if r["result"]["pass"] else 1)
    _rejects(chain, code, rep, chain_code, "exit code against the audit verdict")

    ops = workloads.build("oracle", 5)
    explicit = _first(ops, share="nonunivalent_explicit")
    code, rep = _report(explicit)
    assert rep["result"]["collisions"], "explicit-tolerance map found no collision"
    pair = rep["result"]["collisions"][0]

    def drop(r):
        del r["result"]["collisions"][len(r["result"]["collisions"]) // 2]
    _rejects(explicit, code, rep, drop, "dropped collision pair")

    univalent = _first(ops, share="univalent")
    code, rep = _report(univalent)

    def add(r):
        r["result"]["collisions"].append(pair)
        r["result"]["pass"] = False
        return 1
    _rejects(univalent, code, rep, add, "invented collision pair")


def test_seeds():
    for workload in workloads.WORKLOADS:
        a = [op.argv for op in workloads.build(workload, 1)]
        assert a == [op.argv for op in workloads.build(workload, 1)], workload
        assert a != [op.argv for op in workloads.build(workload, 2)], workload


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
