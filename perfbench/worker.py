"""One benchmark process: a fresh interpreter that imports the program from
the checkout's ``src``, builds the workload's operations from the seed, runs
one warm-up operation and prints ``ready``. The time from launching it to
that line is one set-up sample.

With ``--seconds 0`` it stops there. Otherwise it runs a closed loop with one
client for the given wall time: each operation is one in-process
``univalence.cli.main(argv)`` call with stdout captured and the default
single worker. Only the call is timed; the reference workload of
``reference.py`` runs before it, so that its time can be scaled. Reports
are kept and checked after the loop, so the checks (and the scipy import
they need) neither take loop time nor change the collector's work during
calls. The last line is a JSON object with the figures for ``run.py``.

With ``--trace 1`` the loop runs passes over the first
``workloads.TRACE_CYCLE`` operations, each once untraced and once traced, so
per-operation counts are exact and the tracing overhead is measured on the
same inputs. The spans are written to ``perfbench/out`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import univalence  # noqa: E402
from univalence import cli  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 110  # so that at least ten samples lie beyond the 90th percentile
MAX_STRETCH = 3.0  # ... unless that takes this many times --seconds


class Call(NamedTuple):
    """One finished operation."""

    op: workloads.Op
    seconds: float  # wall time of the call
    reference_s: float  # reference time measured right before it
    code: "int | None"
    text: str  # captured stdout
    error: "str | None"  # traceback if the call raised


def execute(op) -> Call:
    ref = reference.reference_s()
    gc.collect()  # every call starts from the same collector state
    buf = io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
    except Exception:  # a crash is a failed operation, not a failed run
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return Call(op, elapsed, ref, code, buf.getvalue(), error)


def problems_of(call: Call) -> list:
    if call.error is not None:
        return [f"raised: {call.error}"]
    if call.code not in (0, 1, 2):
        return [f"exit code {call.code}"]
    return workloads.check(call.op, call.text, call.code, univalence)


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    kernels = sys.modules.get("univalence._kernels")
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "use_numba": getattr(kernels, "USE_NUMBA", None),
    }


def check_all(calls) -> tuple:
    """Check finished operations; (failures, problems of each operation)."""
    failures, verdicts = [], []
    for call in calls:
        found = problems_of(call)
        verdicts.append(found)
        if found:
            failures.append({"argv": list(call.op.argv), "problems": found[:3]})
    return failures, verdicts


def measure(ops, seconds: float) -> dict:
    """Closed loop over the operation list; reports are kept and checked
    once the clock has stopped, so checking does not disturb the timing."""
    done = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(done) >= MIN_OPS or elapsed >= MAX_STRETCH * seconds):
            break
        done.append(execute(ops[len(done) % len(ops)]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each call's reference: the mean of the ones measured before and after it
    refs = [c.reference_s for c in done] + [reference.reference_s()]
    refs = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    failures, _ = check_all(done)
    return {
        "op_s": [c.seconds for c in done],
        "scaled_op_s": [c.seconds * reference.NOMINAL_S / r for c, r in zip(done, refs)],
        "speed": reference.NOMINAL_S / statistics.median(refs),
        "units": sum(c.op.units for c in done),
        "attempted": len(done),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }


def measure_traced(ops, seconds: float, workload: str, seed: int) -> dict:
    cycle = ops[: workloads.TRACE_CYCLE[workload]]
    tracer = layers.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for op in cycle:
            untraced.append(execute(op))
            tracer.op = len(traced)
            tracer.install()
            try:
                traced.append(execute(op))
            finally:
                tracer.uninstall()
    failures, verdicts = check_all(untraced + traced)
    passed_default = sum(
        json.loads(call.text)["result"]["pass"]
        for call, found in zip(traced[: len(cycle)], verdicts[len(untraced):])
        if not found and call.op.facts.get("share") == "nonunivalent_default"
    )
    metrics = layers.layer_metrics(
        tracer.spans, {i: c.seconds for i, c in enumerate(traced)}, [c.seconds for c in untraced]
    )
    metrics["oracle.nonunivalent_passed"] = passed_default
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "passes": len(traced) // len(cycle),
                "operations": [list(op.argv) for op in cycle],
                "targets": tracer.targets,
                "fields": ["op", "parent", "name", "start", "end", "points", "order", "out"],
                "spans": tracer.spans,
                "metrics": metrics,
            },
            fh,
        )
    return {
        "op_s": [c.seconds for c in untraced],
        "attempted": len(untraced) + len(traced),
        "failures": failures,
        "layers": {k: {"value": v, "unit": layers.UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    # The warm-up is not checked here (the checks' own imports would count as
    # set-up); the measured loop checks every operation, this one included.
    warm = execute(ops[0])
    if warm.error is not None or warm.code not in (0, 1, 2):
        print(f"warm-up operation ended with {warm.error or warm.code}", file=sys.stderr)
    print("ready", flush=True)
    if args.seconds <= 0:
        return 0

    if args.trace:
        result = measure_traced(ops, args.seconds, args.workload, args.seed)
    else:
        result = measure(ops, args.seconds)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
