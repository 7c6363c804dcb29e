"""Command-line front end: criterion checks, alpha sweeps, chain audits,
injectivity oracle runs, and the built-in catalog listing.

Every run emits one JSON report on stdout (and optionally to --json); grids
go to separate CSV files. Each command takes, and its report's config block
records, only the run settings it reads (``SETTINGS``). Reports are
deterministic for a fixed config; only the trailing timing field varies
between runs. Exit codes: 0 pass/true, 1 fail/collision, 2 inconclusive,
3 usage or evaluation error. The criterion is sufficient, not necessary:
check exit 1 means it failed on the grid, never that f is not univalent.
One passing row is enough, so sweep exits 0 when some row passes, 2 when
none passes but some row is inconclusive, and 1 only when every row fails.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, fields

from .catalog import make_sigma_function, parse_complex
from .criteria import CRITERIA, CriterionParams
from .errors import EvaluationFailure, UnivalenceError, UsageError
from .loewner import DEFAULT_T_SAMPLES, ChainSpec, audit_pommerenke
from .oracle import injectivity_scan
from .region import SamplingPlan, estimate_sup, issue_verdict

SCHEMA_VERSION = 3
REPORT_NOTE = (
    "sample-based scan: a pass verdict asserts the criterion held on the "
    "evaluated samples only (univalence then follows by sufficiency); a fail "
    "implies nothing about univalence"
)


# The SamplingPlan fields, which a config block nests under "plan".
_PLAN_FIELDS = tuple(field.name for field in fields(SamplingPlan))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; the config block of every report.

    Each field declares one run setting once: its default, the type that
    flags and config blocks alike are checked against, and its config key.
    """

    command: str
    f: str = "identity"
    g: str = "identity"
    h: str = "hconst"
    alpha: complex = 0.5 + 0j
    criterion: str = "theorem1"
    squared_variant: bool = True
    r_min: float = SamplingPlan.r_min
    r_max: float = SamplingPlan.r_max
    radial_count: int = SamplingPlan.radial_count
    angular_count: int = SamplingPlan.angular_count
    refine_depth: int = SamplingPlan.refine_depth
    refine_factor: int = SamplingPlan.refine_factor
    tol: float = 1e-9
    t_samples: tuple[float, ...] = DEFAULT_T_SAMPLES
    alphas: tuple[complex, ...] = ()
    both_variants: bool = False
    collision_tolerance: float | None = None
    separation_floor: float | None = None

    def __post_init__(self):
        for name, kind in _KINDS.items():
            value = getattr(self, name)
            if not _is(kind, value):
                raise UsageError(f"{name} must be {kind}, got {value!r}")
            for item in value if isinstance(value, tuple) else (value,):
                # Non-finite numbers would turn every comparison false (a NaN
                # tol passes any sup) and could not be written as strict JSON.
                if isinstance(item, (float, complex)) and not cmath.isfinite(item):
                    raise UsageError(f"{name} must be finite, got {item!r}")
                if name in _NONNEGATIVE and item is not None and item < 0:
                    raise UsageError(f"{name} must be nonnegative, got {item!r}")
        if not self.t_samples:
            raise UsageError("t_samples must hold at least one time")
        # The audit probes each time's contour inside the next one's.
        if any(b < a for a, b in zip(self.t_samples, self.t_samples[1:])):
            raise UsageError(f"t_samples must not decrease, got {list(self.t_samples)}")
        if self.command not in SETTINGS:
            raise UsageError(f"unknown command {self.command!r}")
        # A setting the command does not read would be dropped without a
        # word; named as from_dict names them, plan settings last.
        read = SETTINGS[self.command]
        unread = [
            name
            for name, default in _DEFAULTS.items()
            if name not in read and getattr(self, name) != default
        ]
        if unread:
            unread.sort(key=lambda name: name in _PLAN_FIELDS)
            raise UsageError(f"{self.command} does not read {', '.join(unread)}")
        # Each sweep row reads its own alpha and variant.
        for name, given in (("alpha", "alphas"), ("squared_variant", "both_variants")):
            if getattr(self, given) and getattr(self, name) != _DEFAULTS[name]:
                raise UsageError(f"sweep with {given} does not read {name}")

    def plan(self) -> SamplingPlan:
        """Plan settings the command does not read keep the SamplingPlan defaults."""
        read = (name for name in SETTINGS[self.command] if name in _PLAN_FIELDS)
        return SamplingPlan(**{name: getattr(self, name) for name in read})

    def to_dict(self) -> dict:
        out = {}
        for name in ("command", *SETTINGS[self.command]):
            block = out.setdefault("plan", {}) if name in _PLAN_FIELDS else out
            block[name] = _to_json(_KINDS[name], getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        command = d.get("command")
        if command not in SETTINGS:
            raise UsageError(f"unknown command {command!r}")
        read = SETTINGS[command]
        given = {k: v for k, v in d.items() if k not in ("command", "plan")}
        plan = d.get("plan", {})
        # Each key must be a setting the command reads, where to_dict puts it.
        unread = [k for k in given if k not in read or k in _PLAN_FIELDS]
        unread += [k for k in plan if k not in read or k not in _PLAN_FIELDS]
        if unread:
            raise UsageError(f"{command} does not read {', '.join(unread)}")
        given.update(plan)
        return cls(command, **{k: _from_json(k, _KINDS[k], v) for k, v in given.items()})


# The RunConfig fields each command reads. Its parser registers, its config
# block records and --config accepts these alone.
_SCAN = ("f", "g", "h", "alpha", "criterion", "squared_variant", *_PLAN_FIELDS, "tol")
SETTINGS = {
    "check": _SCAN,
    "sweep": (*_SCAN, "alphas", "both_variants"),
    "chain": ("f", "g", "h", "alpha", "squared_variant", "t_samples"),
    "oracle": ("f", "r_min", "r_max", "radial_count", "angular_count",
               "collision_tolerance", "separation_floor"),
    "catalog": (),
}

# The annotation of each field, and the default of each run setting.
_KINDS = {field.name: field.type for field in fields(RunConfig)}
_DEFAULTS = {field.name: field.default for field in fields(RunConfig)[1:]}


# The types RunConfig annotations name; a bool counts as no number.
_TYPES = dict(
    str=str, bool=bool, int=int, float=(int, float), complex=(int, float, complex)
)
# A negative tolerance or floor admits no pair and would pass vacuously; a
# chain starts at t = 0.
_NONNEGATIVE = {"t_samples", "collision_tolerance", "separation_floor"}


def _is(kind: str, value) -> bool:
    """Whether ``value`` is of the annotated ``kind``: a name in _TYPES,
    ``tuple[T, ...]`` or ``T | None``."""
    if kind.endswith(" | None"):
        return value is None or _is(kind[: -len(" | None")], value)
    if kind.startswith("tuple["):
        return isinstance(value, tuple) and all(_is(kind[6:-6], v) for v in value)
    types = _TYPES[kind]
    return isinstance(value, types) and isinstance(value, bool) == (types is bool)


def _to_json(kind: str, value):
    if kind.startswith("tuple["):
        return [_to_json(kind[6:-6], v) for v in value]
    return _c2d(value) if kind == "complex" else value


def _from_json(name: str, kind: str, value):
    if kind.startswith("tuple["):
        return tuple(_from_json(name, kind[6:-6], v) for v in value)
    if kind != "complex":
        return value
    # A complex is {"re": x, "im": y}; a bool is no number, and an int past
    # double range no finite one.
    if isinstance(value, dict) and all(_is("float", value.get(k)) for k in ("re", "im")):
        with contextlib.suppress(OverflowError):
            z = complex(value["re"], value["im"])
            if cmath.isfinite(z):
                return z
    raise UsageError(f"{name} must be {{re, im}} of finite real numbers, got {value!r}")


def _c2d(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _params(config: RunConfig, alpha=None, squared=None) -> CriterionParams:
    alpha = config.alpha if alpha is None else alpha
    squared = config.squared_variant if squared is None else squared
    return CriterionParams(config.f, config.g, config.h, alpha, config.criterion, squared)


def _sup_result(report, verdict) -> dict:
    return {
        "sup": report.sup_estimate,
        "argmax": _c2d(report.argmax),
        "tail": report.tail_estimate,
        "converged": report.refinement_converged,
        "verdict": verdict.outcome,
        "margin": verdict.margin,
    }


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_text(value) -> str:
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes
    it, for the types a report holds: dicts with str keys, lists, str, bool,
    None, int and float (a subclass such as np.float64 too). A non-finite
    float raises json's ValueError. (json's C encoder ignores ``indent``, so
    json.dumps would run its pure-Python encoder, at about twice the time.)"""
    out = []
    _append_json(value, out, "\n")
    return "".join(out)


def _append_json(value, out: list, newline: str) -> None:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(f"{sep}{_ESCAPE(key)}: ")
            _append_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _append_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_ESCAPE(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_file(path: str, flag: str, text: str) -> None:
    # An unwritable path is a bad input: exit 3, not a verdict's exit 1.
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {flag} {path}: {exc.strerror or exc}") from exc


def _write_grid_csv(path: str, segments) -> None:
    lines = ["re,im,lhs"]
    for points, values in segments:
        for z, v in zip(points, values):
            lines.append(f"{float(z.real)!r},{float(z.imag)!r},{float(v)!r}")
    _write_file(path, "--grid-csv", "\n".join(lines) + "\n")


CATALOG_LISTING = {
    "functions": [
        {"spec": "identity", "description": "f(z) = z"},
        {"spec": "joukowski:<re>[,<im>]", "description": "f(z) = z + c/z"},
        {
            "spec": "laurent:<b>;<b0>;<b1>,<b2>,...",
            "description": "f(z) = b z + b0 + b1/z + b2/z^2 + ... (b != 0)",
        },
        {
            "spec": "moebius:<a>,<b>,<c>,<d>:<inner>",
            "description": "f = (a g + b)/(c g + d) for an inner catalog g, ad - bc != 0",
        },
    ],
    "h_functions": [
        {"spec": "hconst", "description": "h(z) = 1"},
        {"spec": "hinvsq:<c>", "description": "h(z) = 1 + c/z^2"},
    ],
}


def run(config: RunConfig, json_path: "str | None" = None, grid_csv: "str | None" = None):
    """Execute one command; returns (exit_code, report_dict)."""
    started = time.perf_counter()
    result: dict
    if config.command == "check":
        sink = [] if grid_csv else None
        report = estimate_sup(_params(config), config.plan(), sink)
        verdict = issue_verdict(report, config.tol)
        result = _sup_result(report, verdict)
        if grid_csv:
            _write_grid_csv(grid_csv, sink)
        code = {"pass": 0, "fail": 1, "inconclusive": 2}[verdict.outcome]
    elif config.command == "sweep":
        alphas = config.alphas or (config.alpha,)
        variants = (True, False) if config.both_variants else (config.squared_variant,)
        rows = []
        outcomes = []
        for alpha in alphas:
            for squared in variants:
                report = estimate_sup(
                    _params(config, alpha=alpha, squared=squared), config.plan()
                )
                verdict = issue_verdict(report, config.tol)
                row = {"alpha": _c2d(alpha), "squared_variant": squared}
                row.update(_sup_result(report, verdict))
                rows.append(row)
                outcomes.append(verdict.outcome)
        result = {"rows": rows}
        if "pass" in outcomes:
            code = 0
        elif "inconclusive" in outcomes:
            code = 2
        else:
            code = 1
    elif config.command == "chain":
        spec = ChainSpec(config.f, config.g, config.h, config.alpha, config.squared_variant)
        audit = audit_pommerenke(spec, t_samples=config.t_samples)
        result = audit.to_json_dict()
        code = 0 if audit.passed else 1
    elif config.command == "oracle":
        scan = injectivity_scan(
            make_sigma_function(config.f),
            config.plan(),
            collision_tolerance=config.collision_tolerance,
            separation_floor=config.separation_floor,
        )
        result = scan.to_json_dict()
        result["pass"] = not scan.collisions
        code = 0 if not scan.collisions else 1
    else:  # catalog
        result = CATALOG_LISTING
        code = 0

    report_dict = {
        "schema": SCHEMA_VERSION,
        "note": REPORT_NOTE,
        "config": config.to_dict(),
        "result": result,
        "timing_ms": (time.perf_counter() - started) * 1e3,
    }
    try:
        text = _json_text(report_dict) + "\n"
    except ValueError as exc:
        raise EvaluationFailure(f"report holds a non-finite number: {exc}") from exc
    if json_path:
        _write_file(json_path, "--json", text)
    sys.stdout.write(text)
    sys.stdout.flush()
    return code, report_dict


# An unsigned real as float() reads it.
_UNSIGNED = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value such as -0.5,0.1 (a complex re,im) or -1e-3 is an argument,
        # not an option; argparse's own matcher knows only the -1 and -.5 forms.
        self._negative_number_matcher = re.compile(
            rf"^-{_UNSIGNED}(,[-+]?{_UNSIGNED})?$"
        )

    def error(self, message):
        raise UsageError(message)


# The flag of each run setting and its add_argument keywords. A flag stores
# into the RunConfig field of the same name; an absent flag sets nothing, so
# the field default applies.
_FLAGS = {
    "f": ("--f", dict(help="function spec for f")),
    "g": ("--g", dict(help="function spec for g")),
    "h": ("--h", dict(help="h-function spec")),
    "alpha": ("--alpha", dict(type=parse_complex, help="complex parameter: re[,im]")),
    "criterion": ("--criterion", dict(choices=CRITERIA)),
    "squared_variant": (
        "--unsquared", dict(action="store_false", help="unsquared (f''/f' - g''/g') factor")
    ),
    "r_min": ("--rmin", dict(type=float)),
    "r_max": ("--rmax", dict(type=float)),
    "radial_count": ("--radial", dict(type=int)),
    "angular_count": ("--angular", dict(type=int)),
    "refine_depth": ("--refine", dict(type=int, help="refinement depth")),
    "refine_factor": ("--refine-factor", dict(type=int)),
    "tol": ("--tol", dict(type=float)),
    "t_samples": ("--t-samples", dict(nargs="+", type=float, help="chain times")),
    "alphas": (
        "--alphas", dict(nargs="+", type=parse_complex, metavar="RE[,IM]", help="one row each")
    ),
    "both_variants": ("--both-variants", dict(action="store_true", help="scan both variants")),
    "collision_tolerance": ("--collision-tol", dict(type=float)),
    "separation_floor": ("--separation-floor", dict(type=float)),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="univalence", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, settings in SETTINGS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument(
            "--json", dest="json_path", metavar="PATH", help="also write the report here"
        )
        for dest in settings:
            flag, kwargs = _FLAGS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
        if settings:
            p.add_argument(
                "--config", metavar="PATH", help="a config block in place of run-setting flags"
            )
        if name == "check":
            p.add_argument("--grid-csv", metavar="PATH", help="dump evaluated grid")
    return parser


def _config_from_args(given: dict) -> RunConfig:
    """The run settings of the parsed flags ``given`` (only the flags actually
    given are in it) over the field defaults, or else a --config block."""
    command = given.pop("command")
    path = given.pop("config", None)
    if path is None:
        # nargs="+" flags parse into lists; the fields hold tuples.
        given = {k: tuple(v) if isinstance(v, list) else v for k, v in given.items()}
        return RunConfig(command=command, **given)
    if given:
        # A saved config block fully defines the run, so that a report's
        # config reproduces the report verbatim.
        flags = ", ".join(_FLAGS[dest][0] for dest in given)
        raise UsageError(f"--config fixes every run setting; drop {flags}")
    try:
        with open(path) as fh:
            loaded = json.load(fh)
        cfg = RunConfig.from_dict(loaded.get("config", loaded))
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        raise UsageError(f"no config block in {path}: {exc!r}") from exc
    if cfg.command != command:
        raise UsageError(f"--config holds command {cfg.command!r}, invoked as {command!r}")
    return cfg


def main(argv=None) -> int:
    try:
        given = vars(_build_parser().parse_args(argv))
        # --json and --grid-csv change no report byte; every other flag is a run setting.
        outputs = {dest: given.pop(dest) for dest in given.keys() & {"json_path", "grid_csv"}}
        code, _ = run(_config_from_args(given), **outputs)
        return code
    except BrokenPipeError:
        # A reader that closed stdout is no verdict. Point stdout at devnull
        # so the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: BrokenPipeError: stdout closed", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except UnivalenceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # A plan too large for memory is a bad input, not a failed verdict.
        print(f"error: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
