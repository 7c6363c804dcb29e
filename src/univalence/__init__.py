"""Numerical toolkit for exterior-disk univalence criteria.

Evaluates a general univalence criterion for meromorphic functions on
{|zeta| > 1} together with its five classical specializations, audits the
underlying Loewner-chain construction through one entry point,
``audit_pommerenke``, and cross-checks verdicts against an independent
injectivity oracle. Every evaluation is vectorized: derivative stacks over
whole sets of points feed the criterion pieces, the criterion LHS and the
chain values alike.
"""

from .catalog import (
    MeromorphicFn,
    constant_one,
    identity,
    inverse_square,
    joukowski,
    laurent,
    laurent_even,
    make_h_function,
    make_sigma_function,
    moebius_of,
    parse_function_spec,
    parse_h_spec,
    validate_h_admissible,
    validate_sigma_normalization,
)
from .criteria import CRITERIA, CriterionParams, evaluate_lhs
from .loewner import AuditReport, ChainSpec, audit_pommerenke
from .oracle import Collision, CollisionReport, injectivity_scan
from .region import SupReport, Verdict, estimate_sup, issue_verdict
from .sampling import SamplingPlan, sample_exterior

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CRITERIA",
    "ChainSpec",
    "Collision",
    "CollisionReport",
    "CriterionParams",
    "MeromorphicFn",
    "SamplingPlan",
    "SupReport",
    "Verdict",
    "audit_pommerenke",
    "constant_one",
    "estimate_sup",
    "evaluate_lhs",
    "identity",
    "injectivity_scan",
    "inverse_square",
    "issue_verdict",
    "joukowski",
    "laurent",
    "laurent_even",
    "make_h_function",
    "make_sigma_function",
    "moebius_of",
    "parse_function_spec",
    "parse_h_spec",
    "sample_exterior",
    "validate_h_admissible",
    "validate_sigma_normalization",
]
