"""Command-line front end: criterion checks, alpha sweeps, chain audits,
injectivity oracle runs, and the built-in catalog listing.

Every run emits one JSON report on stdout (and optionally to --json); grids
go to separate CSV files. Reports are deterministic for a fixed config and
worker count never affects their bytes; only the trailing timing field varies
between runs. Exit codes: 0 pass/true, 1 fail/collision, 2 inconclusive,
3 usage or evaluation error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import re
import sys
import time
from dataclasses import dataclass

from .catalog import (
    make_h_function,
    make_sigma_function,
    parse_complex,
)
from .criteria import CRITERIA, CriterionParams
from .errors import EvaluationFailure, UnivalenceError, UsageError
from .loewner import DEFAULT_T_SAMPLES, ChainSpec, audit_pommerenke
from .oracle import injectivity_scan
from .region import SamplingPlan, estimate_sup, issue_verdict

SCHEMA_VERSION = 2
REPORT_NOTE = (
    "sample-based scan: a pass verdict asserts the criterion held on the "
    "evaluated samples only (univalence then follows by sufficiency); a fail "
    "implies nothing about univalence"
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; the config block of every report."""

    command: str
    f: str = "identity"
    g: str = "identity"
    h: str = "hconst"
    alpha: complex = 0.5 + 0j
    criterion: str = "theorem1"
    squared_variant: bool = True
    r_min: float = 1.0 + 1e-3
    r_max: float = 50.0
    radial_count: int = 64
    angular_count: int = 128
    refine_depth: int = 2
    refine_factor: int = 4
    tol: float = 1e-9
    t_samples: tuple = DEFAULT_T_SAMPLES
    alphas: tuple = ()
    both_variants: bool = False
    collision_tolerance: "float | None" = None
    separation_floor: "float | None" = None

    def __post_init__(self):
        # Non-finite numbers would turn every comparison false (a NaN tol
        # passes any sup) and could not be written as strict JSON.
        numbers = [("tol", self.tol), ("alpha", self.alpha)]
        numbers += [("alphas", a) for a in self.alphas]
        numbers += [("t_samples", t) for t in self.t_samples]
        for name in ("collision_tolerance", "separation_floor"):
            if getattr(self, name) is not None:
                numbers.append((name, getattr(self, name)))
        for name, value in numbers:
            try:
                finite = cmath.isfinite(value)
            except TypeError:
                finite = False
            if not finite:
                raise UsageError(f"{name} must be finite, got {value!r}")
        # A negative tolerance or floor admits no pair and would pass vacuously.
        for name in ("collision_tolerance", "separation_floor"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise UsageError(f"{name} must be nonnegative, got {value!r}")
        if not self.t_samples or any(t < 0 for t in self.t_samples):
            raise UsageError(
                f"t_samples must be nonnegative times, at least one, got "
                f"{list(self.t_samples)}"
            )

    def plan(self) -> SamplingPlan:
        return SamplingPlan(
            r_min=self.r_min,
            r_max=self.r_max,
            radial_count=self.radial_count,
            angular_count=self.angular_count,
            refine_depth=self.refine_depth,
            refine_factor=self.refine_factor,
        )

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "f": self.f,
            "g": self.g,
            "h": self.h,
            "alpha": _c2d(self.alpha),
            "criterion": self.criterion,
            "squared_variant": self.squared_variant,
            "plan": {
                "r_min": self.r_min,
                "r_max": self.r_max,
                "radial_count": self.radial_count,
                "angular_count": self.angular_count,
                "refine_depth": self.refine_depth,
                "refine_factor": self.refine_factor,
            },
            "tol": self.tol,
            "t_samples": list(self.t_samples),
            "alphas": [_c2d(a) for a in self.alphas],
            "both_variants": self.both_variants,
            "collision_tolerance": self.collision_tolerance,
            "separation_floor": self.separation_floor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        plan = d.get("plan", {})
        return cls(
            command=d["command"],
            f=d.get("f", "identity"),
            g=d.get("g", "identity"),
            h=d.get("h", "hconst"),
            alpha=_d2c(d.get("alpha", {"re": 0.5, "im": 0.0})),
            criterion=d.get("criterion", "theorem1"),
            squared_variant=d.get("squared_variant", True),
            r_min=plan.get("r_min", 1.0 + 1e-3),
            r_max=plan.get("r_max", 50.0),
            radial_count=plan.get("radial_count", 64),
            angular_count=plan.get("angular_count", 128),
            refine_depth=plan.get("refine_depth", 2),
            refine_factor=plan.get("refine_factor", 4),
            tol=d.get("tol", 1e-9),
            t_samples=tuple(d.get("t_samples", DEFAULT_T_SAMPLES)),
            alphas=tuple(_d2c(a) for a in d.get("alphas", [])),
            both_variants=d.get("both_variants", False),
            collision_tolerance=d.get("collision_tolerance"),
            separation_floor=d.get("separation_floor"),
        )


def _c2d(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _d2c(d: dict) -> complex:
    return complex(d["re"], d["im"])


def _params(config: RunConfig, alpha=None, squared=None) -> CriterionParams:
    return CriterionParams(
        f=make_sigma_function(config.f),
        g=make_sigma_function(config.g),
        h=make_h_function(config.h),
        alpha=config.alpha if alpha is None else alpha,
        criterion=config.criterion,
        squared_variant=config.squared_variant if squared is None else squared,
    )


def _sup_result(report, verdict) -> dict:
    return {
        "sup": report.sup_estimate,
        "argmax": _c2d(report.argmax),
        "tail": report.tail_estimate,
        "converged": report.refinement_converged,
        "verdict": verdict.outcome,
        "margin": verdict.margin,
    }


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


def run(
    config: RunConfig,
    workers: int = 1,
    json_path: "str | None" = None,
    grid_csv: "str | None" = None,
):
    """Execute one command; returns (exit_code, report_dict)."""
    started = time.perf_counter()
    result: dict
    if config.command == "check":
        sink = [] if grid_csv else None
        report = estimate_sup(_params(config), config.plan(), workers, sink)
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
                    _params(config, alpha=alpha, squared=squared),
                    config.plan(),
                    workers,
                )
                verdict = issue_verdict(report, config.tol)
                row = {"alpha": _c2d(alpha), "squared_variant": squared}
                row.update(_sup_result(report, verdict))
                rows.append(row)
                outcomes.append(verdict.outcome)
        result = {"rows": rows}
        if "fail" in outcomes:
            code = 1
        elif "inconclusive" in outcomes:
            code = 2
        else:
            code = 0
    elif config.command == "chain":
        spec = ChainSpec(
            f=make_sigma_function(config.f),
            g=make_sigma_function(config.g),
            h=make_h_function(config.h),
            alpha=config.alpha,
            squared_variant=config.squared_variant,
        )
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
    elif config.command == "catalog":
        result = CATALOG_LISTING
        code = 0
    else:
        raise UsageError(f"unknown command {config.command!r}")

    report_dict = {
        "schema": SCHEMA_VERSION,
        "note": REPORT_NOTE,
        "config": config.to_dict(),
        "result": result,
        "timing_ms": (time.perf_counter() - started) * 1e3,
    }
    try:
        text = json.dumps(report_dict, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EvaluationFailure(f"report holds a non-finite number: {exc}") from exc
    if json_path:
        _write_file(json_path, "--json", text)
    sys.stdout.write(text)
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


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(prog="univalence", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--f", default="identity", help="function spec for f")
        p.add_argument("--g", default="identity", help="function spec for g")
        p.add_argument("--h", default="hconst", help="h-function spec")
        p.add_argument("--alpha", default="0.5", help="complex parameter: re[,im]")
        p.add_argument("--criterion", default="theorem1", choices=CRITERIA)
        p.add_argument(
            "--unsquared",
            action="store_true",
            help="use the unsquared variant of the (f''/f' - g''/g') factor",
        )
        p.add_argument("--rmin", type=float, default=1.0 + 1e-3)
        p.add_argument("--rmax", type=float, default=50.0)
        p.add_argument("--radial", type=int, default=64)
        p.add_argument("--angular", type=int, default=128)
        p.add_argument("--refine", type=int, default=2, help="refinement depth")
        p.add_argument("--refine-factor", type=int, default=4)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--json", metavar="PATH", help="also write the report here")
        p.add_argument("--grid-csv", metavar="PATH", help="dump evaluated grid")
        p.add_argument(
            "--t-samples",
            nargs="+",
            type=float,
            default=DEFAULT_T_SAMPLES,
            help="chain times for audits",
        )
        p.add_argument("--workers", type=int, default=1)
        p.add_argument(
            "--config",
            metavar="PATH",
            help="load a resolved config block (flags still override)",
        )

    for name in ("check", "sweep", "chain", "oracle", "catalog"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "sweep":
            p.add_argument(
                "--alphas",
                nargs="+",
                default=None,
                help="alpha values (re[,im] each), one report row per value",
            )
            p.add_argument(
                "--both-variants",
                action="store_true",
                help="scan squared and unsquared variants",
            )
        if name == "oracle":
            p.add_argument("--collision-tol", type=float, default=None)
            p.add_argument("--separation-floor", type=float, default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    if args.config:
        # A saved config block fully defines the run; other scientific flags
        # are ignored so a report's config reproduces the report verbatim.
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
            cfg = RunConfig.from_dict(loaded.get("config", loaded))
        except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
            raise UsageError(f"no config block in {args.config}: {exc!r}") from exc
        if cfg.command != args.command:
            raise UsageError(
                f"--config holds command {cfg.command!r}, invoked as {args.command!r}"
            )
        return cfg
    return RunConfig(
        command=args.command,
        f=args.f,
        g=args.g,
        h=args.h,
        alpha=parse_complex(args.alpha),
        criterion=args.criterion,
        squared_variant=not args.unsquared,
        r_min=args.rmin,
        r_max=args.rmax,
        radial_count=args.radial,
        angular_count=args.angular,
        refine_depth=args.refine,
        refine_factor=args.refine_factor,
        tol=args.tol,
        t_samples=tuple(args.t_samples),
        alphas=tuple(parse_complex(a) for a in (getattr(args, "alphas", None) or ())),
        both_variants=getattr(args, "both_variants", False),
        collision_tolerance=getattr(args, "collision_tol", None),
        separation_floor=getattr(args, "separation_floor", None),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        code, _ = run(
            config,
            workers=max(1, args.workers),
            json_path=args.json,
            grid_csv=args.grid_csv,
        )
        return code
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
