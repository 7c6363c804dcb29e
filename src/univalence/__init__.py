"""Numerical toolkit for exterior-disk univalence criteria.

Evaluates a general univalence criterion for meromorphic functions on
{|zeta| > 1} together with its five classical specializations, audits the
underlying Loewner-chain construction, and cross-checks verdicts against an
independent injectivity oracle.
"""

from .catalog import (
    HFunction,
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
    power_branch,
    validate_h_admissible,
    validate_sigma_normalization,
)
from .criteria import CRITERIA, CriterionParams, corollary_lhs, evaluate_lhs, theorem1_lhs
from .jet import ComplexJet, derivatives_of, jet_combine, pre_schwarzian, schwarzian
from .loewner import (
    AuditReport,
    ChainSpec,
    audit_pommerenke,
    chain_eval,
    chain_p,
    chain_w,
    extract_a1,
    subordination_check,
)
from .oracle import (
    Collision,
    CollisionReport,
    fd_derivatives,
    injectivity_scan,
    winding_number,
)
from .region import SupReport, Verdict, estimate_sup, issue_verdict
from .sampling import SamplingPlan, sample_exterior

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CRITERIA",
    "ChainSpec",
    "Collision",
    "CollisionReport",
    "ComplexJet",
    "CriterionParams",
    "HFunction",
    "MeromorphicFn",
    "SamplingPlan",
    "SupReport",
    "Verdict",
    "audit_pommerenke",
    "chain_eval",
    "chain_p",
    "chain_w",
    "constant_one",
    "corollary_lhs",
    "derivatives_of",
    "estimate_sup",
    "evaluate_lhs",
    "extract_a1",
    "fd_derivatives",
    "identity",
    "injectivity_scan",
    "inverse_square",
    "issue_verdict",
    "jet_combine",
    "joukowski",
    "laurent",
    "laurent_even",
    "make_h_function",
    "make_sigma_function",
    "moebius_of",
    "parse_function_spec",
    "parse_h_spec",
    "power_branch",
    "pre_schwarzian",
    "sample_exterior",
    "schwarzian",
    "subordination_check",
    "theorem1_lhs",
    "validate_h_admissible",
    "validate_sigma_normalization",
    "winding_number",
]
