"""Exact value-semigroup machinery for unibranch curve singularities.

The package computes numerical-semigroup invariants, canonical-ideal value
sets, blowup stabilization, and covering certificates at a singular point,
and checks Max Noether surjectivity on explicit rational curve models with
an independent exact linear-algebra oracle.
"""

from .blowup import BlowupAnalysis, analyze
from .curves import (
    Branch,
    NoetherCheck,
    RationalCurveModel,
    ResolutionCheck,
    check_hyperelliptic_resolution,
    check_resolution_quotient,
    global_sections,
    is_certified_hyperelliptic,
    max_noether_holds,
    products_span,
    resolve,
    section_valuations,
)
from .linalg import Subspace, nullspace, rref
from .local import (
    BasisCertificate,
    CertEntry,
    Columns,
    GridRow,
    LocalContext,
    QDecomposition,
    SurjectivityCheck,
    build_certificates,
    case_epsilon,
    epsilon_case,
    q_decomposition,
    verify_local_surjectivity,
)
from .reports import VerificationReport, write_jsonl
from .semigroup import NumericalSemigroup, enumerate_semigroups
from .suites import SuiteParams, iter_suite, run_suite
from .valueset import (
    ValueSet,
    canonical_ideal,
    dualizing_values,
    n_fold,
    quotient_dim,
    ring_closure,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "BasisCertificate",
    "BlowupAnalysis",
    "Branch",
    "CertEntry",
    "Columns",
    "GridRow",
    "LocalContext",
    "NoetherCheck",
    "NumericalSemigroup",
    "QDecomposition",
    "RationalCurveModel",
    "ResolutionCheck",
    "Subspace",
    "SuiteParams",
    "SurjectivityCheck",
    "ValueSet",
    "VerificationReport",
    "analyze",
    "build_certificates",
    "canonical_ideal",
    "case_epsilon",
    "check_hyperelliptic_resolution",
    "check_resolution_quotient",
    "dualizing_values",
    "enumerate_semigroups",
    "epsilon_case",
    "global_sections",
    "is_certified_hyperelliptic",
    "iter_suite",
    "max_noether_holds",
    "n_fold",
    "nullspace",
    "products_span",
    "q_decomposition",
    "quotient_dim",
    "resolve",
    "rref",
    "ring_closure",
    "run_suite",
    "section_valuations",
    "sumset",
    "verify_local_surjectivity",
    "write_jsonl",
]
