"""Numerical toolkit for exterior-disk univalence criteria.

Evaluates a general univalence criterion for meromorphic functions on
{|zeta| > 1} together with its five classical specializations, audits the
underlying Loewner-chain construction, and cross-checks verdicts against an
independent injectivity oracle. Every evaluation is vectorized: derivative
stacks over whole sets of points feed the criterion pieces, the criterion
LHS and the chain values alike.
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
from .loewner import (
    AuditReport,
    ChainSpec,
    audit_pommerenke,
    chain_values,
    chain_w_values,
    extract_a1,
    subordination_check,
)
from .oracle import Collision, CollisionReport, injectivity_scan, winding_numbers
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
    "chain_values",
    "chain_w_values",
    "constant_one",
    "estimate_sup",
    "evaluate_lhs",
    "extract_a1",
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
    "subordination_check",
    "validate_h_admissible",
    "validate_sigma_normalization",
    "winding_numbers",
]
