"""Per-layer tracing from outside the program.

The tracer replaces, for the length of a traced operation, every public
function of the program's layer modules (and the ray tracer
``catalog._tracked_log_values``) at each name a caller looks it up by: the
module attribute (``catalog.stack_div``), each import binding in another
module (``region.evaluate_lhs``, ``cli.estimate_sup``) and public methods of
the module's public classes (``MeromorphicFn.derivs``). A span records the
operation id, its parent span, the layer-qualified name of the function
that ran, start and end, and three counts read from the call: points (the
last axis of the first array argument), the requested derivative ``order``
and the length of the result. Spans stay in memory until the run ends.

A target a later version removes is simply absent: it records nothing and
its metrics read 0.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import statistics
import time

import numpy as np

LAYER_MODULES = (
    "cli", "region", "sampling", "criteria", "_kernels", "catalog", "jet", "loewner", "oracle",
)
PRIVATE_TARGETS = {("catalog", "_tracked_log_values")}

# span tuple fields
OP, PARENT, NAME, START, END, POINTS, ORDER, OUT = range(8)


def _points(args, kwargs) -> int:
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray):
            return int(value.shape[-1]) if value.ndim else 1
    return 0


def _out_len(result) -> int:
    if isinstance(result, np.ndarray):
        return int(result.shape[0]) if result.ndim else 1
    if isinstance(result, (tuple, list)):
        return len(result)
    return 0


def _order_param(fn):
    """(positional index, default) of an ``order`` parameter, or None."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return None
    for i, p in enumerate(params):
        if p.name == "order":
            return i, (None if p.default is p.empty else p.default)
    return None


class Tracer:
    """Installs span-recording wrappers around the program's layers."""

    def __init__(self, package: str = "univalence"):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = self._discover(package)

    def _discover(self, package):
        modules = {}
        for short in LAYER_MODULES:
            try:
                modules[short] = importlib.import_module(f"{package}.{short}")
            except ImportError:
                continue
        layer_of = {m.__name__: short for short, m in modules.items()}
        patches = []
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if isinstance(value, type):
                    if value.__module__ == module.__name__ and not attr.startswith("_"):
                        for meth, fn in list(vars(value).items()):
                            if inspect.isfunction(fn) and not meth.startswith("_"):
                                patches.append((value, meth, fn, self._wrap(fn, short)))
                elif (
                    callable(value)
                    and getattr(value, "__module__", None) in layer_of
                    and (not attr.startswith("_") or (short, attr) in PRIVATE_TARGETS)
                ):
                    layer = layer_of[value.__module__]
                    patches.append((module, attr, value, self._wrap(value, layer)))
        return patches

    def _wrap(self, fn, layer):
        name = f"{layer}.{getattr(fn, '__qualname__', getattr(fn, '__name__', '?'))}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        order_param = _order_param(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            points = _points(args, kwargs)
            order = None
            if order_param is not None:
                at, default = order_param
                order = kwargs.get("order", args[at] if len(args) > at else default)
            spans.append(None)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (tracer.op, parent, name, start, end, points, order, _out_len(result))

        return traced

    @property
    def targets(self) -> int:
        return len(self._patches)

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> (unit, span-name patterns, statistic). Statistics are per
# traced operation: calls (span count), points (sum of points), ms (time of
# the outermost matching spans), self_ms (span time minus child spans).
GROUP_METRICS = {
    "region.calls": ("count", ["region.*"], "calls"),
    "region.self_ms": ("ms", ["region.*"], "self_ms"),
    "sampling.ms": ("ms", ["sampling.*"], "ms"),
    "criteria.calls": ("count", ["criteria.*"], "calls"),
    "criteria.points": ("count", ["criteria.*"], "points"),
    "criteria.self_ms": ("ms", ["criteria.*"], "self_ms"),
    "kernels.laurent_derivs.calls": ("count", ["_kernels.laurent_derivs*"], "calls"),
    "kernels.laurent_derivs.points": ("count", ["_kernels.laurent_derivs*"], "points"),
    "kernels.laurent_derivs.ms": ("ms", ["_kernels.laurent_derivs*"], "ms"),
    "kernels.criterion_lhs.calls": ("count", ["_kernels.criterion_lhs*"], "calls"),
    "kernels.criterion_lhs.ms": ("ms", ["_kernels.criterion_lhs*"], "ms"),
    "kernels.winding_sum.calls": ("count", ["_kernels.winding_sum*"], "calls"),
    "kernels.winding_sum.ms": ("ms", ["_kernels.winding_sum*"], "ms"),
    "oracle.winding.calls": ("count", ["oracle.winding_number"], "calls"),
    "oracle.winding.self_ms": ("ms", ["oracle.winding_number"], "self_ms"),
    "catalog.derivs.calls": ("count", ["catalog.*.derivs"], "calls"),
    "catalog.derivs.points": ("count", ["catalog.*.derivs"], "points"),
    "catalog.derivs.self_ms": ("ms", ["catalog.*.derivs"], "self_ms"),
    "catalog.ray.calls": ("count", ["catalog._tracked_log_values"], "calls"),
    "catalog.ray.points": ("count", ["catalog._tracked_log_values"], "points"),
    "catalog.ray.ms": ("ms", ["catalog._tracked_log_values"], "ms"),
    "catalog.power_branch.self_ms": ("ms", ["catalog.power_branch*"], "self_ms"),
    "jet.stack.calls": ("count", ["jet.stack_*"], "calls"),
    "jet.stack.ms": ("ms", ["jet.stack_*"], "ms"),
    "loewner.chain_values.calls": ("count", ["loewner.chain_values"], "calls"),
    "loewner.chain_values.self_ms": ("ms", ["loewner.chain_values"], "self_ms"),
    "loewner.chain_w.calls": ("count", ["loewner.chain_w*"], "calls"),
    "loewner.chain_w.self_ms": ("ms", ["loewner.chain_w*"], "self_ms"),
    "loewner.a1.calls": ("count", ["loewner.extract_a1"], "calls"),
    "loewner.a1.self_ms": ("ms", ["loewner.extract_a1"], "self_ms"),
    "loewner.subordination.self_ms": ("ms", ["loewner.subordination_check"], "self_ms"),
    "loewner.audit.self_ms": ("ms", ["loewner.audit_pommerenke"], "self_ms"),
    "oracle.scan.self_ms": ("ms", ["oracle.injectivity_scan"], "self_ms"),
    "oracle.collision_pairs.points": ("count", ["oracle.collision_pairs"], "points"),
    "oracle.collision_pairs.ms": ("ms", ["oracle.collision_pairs"], "ms"),
    "oracle.collisions": ("count", ["oracle.collision_pairs"], "out"),
}

# Metrics computed below from span relations or from the harness.
OTHER_METRICS = {
    "cli.parse_ms": "ms",
    "cli.emit_ms": "ms",
    "region.points": "count",
    "catalog.rows_used_ratio": "ratio",
    "oracle.nonunivalent_passed": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

UNITS = {**{k: v[0] for k, v in GROUP_METRICS.items()}, **OTHER_METRICS}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans, op_walls_s, untraced_walls_s) -> dict:
    """Per-operation layer figures from the spans of the traced operations.

    ``op_walls_s`` maps each traced operation id to its harness-measured wall
    time; ``untraced_walls_s`` are the same operations' untraced times.
    """
    ops = len(op_walls_s)
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    child_other_layer = [0.0] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += dur[i]
            if _layer(spans[p][NAME]) != _layer(s[NAME]):
                child_other_layer[p] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    names = sorted({s[NAME] for s in spans})
    matches = {}

    def members(patterns):
        key = tuple(patterns)
        if key not in matches:
            chosen = {nm for nm in names if any(fnmatch.fnmatchcase(nm, p) for p in patterns)}
            matches[key] = chosen
        return matches[key]

    out = {}
    for metric, (_, patterns, stat) in GROUP_METRICS.items():
        chosen = members(patterns)
        idx = [i for i, s in enumerate(spans) if s[NAME] in chosen]
        if stat == "calls":
            value = len(idx)
        elif stat == "points":
            value = sum(spans[i][POINTS] for i in idx)
        elif stat == "out":
            value = sum(spans[i][OUT] for i in idx)
        elif stat == "self_ms":
            value = 1e3 * sum(self_s[i] for i in idx)
        else:  # ms of the outermost matching spans
            outer = [i for i in idx if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] not in chosen]
            value = 1e3 * sum(dur[i] for i in outer)
        out[metric] = value / ops

    parse = emit = region_points = 0.0
    requested = computed = 0
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[NAME] == "cli.main":
            parse += dur[i]
        elif s[NAME] == "cli.run":
            emit += dur[i] - child_other_layer[i]
            if p >= 0 and spans[p][NAME] == "cli.main":
                parse -= dur[i]
        if p >= 0 and _layer(spans[p][NAME]) == "region" and _layer(s[NAME]) != "region":
            region_points += s[POINTS]
        if s[NAME].startswith("_kernels.laurent_derivs") and p >= 0:
            parent = spans[p]
            if fnmatch.fnmatchcase(parent[NAME], "catalog.*.derivs") and parent[ORDER] is not None:
                requested += parent[ORDER] + 1
                computed += s[OUT]
    out["cli.parse_ms"] = 1e3 * parse / ops
    out["cli.emit_ms"] = 1e3 * emit / ops
    out["region.points"] = region_points / ops
    out["catalog.rows_used_ratio"] = requested / computed if computed else 0.0

    attributed = {}
    for i, s in enumerate(spans):
        attributed[s[OP]] = attributed.get(s[OP], 0.0) + self_s[i]
    out["trace.unattributed_ms"] = 1e3 * sum(
        wall - attributed.get(op, 0.0) for op, wall in op_walls_s.items()
    ) / ops
    out["trace.overhead_ratio"] = (
        statistics.median(op_walls_s.values()) / statistics.median(untraced_walls_s) - 1.0
    )
    return out
