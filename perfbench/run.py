"""Benchmark of the univalence command-line toolkit.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Workloads (see BENCHMARK.json for why each exists):

- ``scan``: ``check`` at a 256 x 512 plan, all six criteria in rotation,
  one call in four with a Moebius f;
- ``chain``: ``chain`` audits with f != g and non-constant h at the default
  t-samples and z-grid;
- ``oracle``: ``oracle`` at 96 x 192: univalent maps, non-univalent
  ``z + c/z`` at the default tolerance, and at an explicit ``--collision-tol``;
- ``cli_default``: ``check`` at the default 64 x 128 plan.

With ``--trace 0`` the run starts ``SETUP_STARTS`` fresh interpreters; each
imports the program, builds the inputs from the seed and runs one warm-up
call, and ``setup_s`` is the median of their times to ready. The last one
then measures a closed loop with one client for ``--seconds`` (and for at
least 110 calls, so that ten lie beyond the 90th percentile, unless that
takes three times as long) and prints the end-to-end metrics. With
``--trace 1`` a single process runs traced and untraced passes and prints
the per-layer metrics (see ``layers.py``); their times are not scaled.

Times are scaled to a nominal machine speed: before and after every timed
call the worker times a fixed reference workload (``reference.py``) and
multiplies the call's wall time by ``NOMINAL_S`` over the mean of the two
reference times; ``setup_s`` is scaled by ``NOMINAL_S`` over the run's median
reference time. On a shared machine whose speed drifts by tens of percent
this keeps runs comparable; a change of the program is not scaled away,
since the reference runs no program code. The unscaled figures and the
machine's speed are printed too.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, starting with
``#``, repeat every metric by name with its unit, the error rate and the
environment. The benchmark's own tests are in ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "chain", "oracle", "cli_default")  # as workloads.WORKLOADS; the launcher imports no numpy
SETUP_STARTS = 7
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _start(args, seconds: float, deadline: float):
    """Launch a worker; (process, seconds from launch to its ready line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not become ready (exit {proc.poll()})")
    except BaseException:
        _stop(proc)
        raise
    return proc, elapsed


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _collect(proc, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker ran past the time limit") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _collect_setup_only(proc, deadline: float):
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up worker did not exit") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited with {proc.returncode}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(result: dict, setup: list) -> dict:
    op_s = result["scaled_op_s"]
    return {
        "setup_s": _metric(statistics.median(setup) * result["speed"], "s"),
        "op_ms_p50": _metric(1e3 * statistics.median(op_s), "ms"),
        "op_ms_p90": _metric(1e3 * _p90(op_s), "ms"),
        "points_per_s": _metric(result["units"] / sum(op_s), "1/s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "univalence" / "cli.py").is_file():
        print(f"benchmark: no program at {ROOT / 'src' / 'univalence'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []  # seconds from launch to ready
    try:
        if not args.trace:
            for _ in range(SETUP_STARTS - 1):
                proc, elapsed = _start(args, 0.0, deadline)
                setup.append(elapsed)
                _collect_setup_only(proc, deadline)
        proc, elapsed = _start(args, args.seconds, deadline)
        setup.append(elapsed)
        result = _collect(proc, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted = result["attempted"]
    failed = len(result["failures"])
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, setup)

    for failure in result["failures"][:5]:
        print(f"# FAILED {' '.join(failure['argv'])}: {failure['problems']}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['op_s'])} timed operations")
    if not args.trace:
        raw = result["op_s"]
        print(f"# machine speed {result['speed']:.4g} x nominal; unscaled: setup_s "
              f"{statistics.median(setup):.4g} s of {[round(s, 3) for s in setup]}, op_ms_p50 "
              f"{1e3 * statistics.median(raw):.4g} ms, op_ms_p90 {1e3 * _p90(raw):.4g} ms")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(f"# error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
