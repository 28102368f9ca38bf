"""Equiangular line sets over exact rational Gram arithmetic.

Submodules: linalg (exact matrices), lineset (Gram-based line sets,
validation, bounds), constructions (named families, graph ingestion),
saturation (candidate enumeration and the d + omega bound), spansearch
(seeded randomized rank reduction), maxclique (exact clique solver),
graph6 (decoder), cli (command-line front end).
"""

import importlib

from .errors import (
    ConstructionMismatch,
    EqlinesError,
    HypothesisViolated,
    InvalidLineSet,
    MalformedGraph6,
    NotABasis,
    NotPSD,
    NotSymmetric,
    OutOfRange,
    OverLimit,
    RankDeficient,
    SingularMatrix,
)
from .linalg import RatMatrix, format_rational, parse_rational
from .lineset import (
    BoundsEntry,
    CheckResult,
    LineSet,
    SignMatrix,
    ValidationReport,
    from_sign_matrix,
    known_bounds,
    relative_bound,
    relative_bound_floor,
    validate,
)
# The other modules load on first use of one of their names (PEP 562):
# `import eqlines` loads neither numpy nor the construction tables, and
# each CLI subcommand loads only the modules it runs.
_LAZY = {
    "OctadDesign": "constructions",
    "TremainColumn": "constructions",
    "asche_72": "constructions",
    "from_adjacency": "constructions",
    "g_vector": "constructions",
    "generate_octads": "constructions",
    "srg_check": "constructions",
    "taylor_90": "constructions",
    "tremain_28": "constructions",
    "CliqueResult": "maxclique",
    "SimpleGraph": "maxclique",
    "max_clique": "maxclique",
    "CandidateSet": "saturation",
    "SaturationReport": "saturation",
    "build_compatibility_graph": "saturation",
    "check_saturated": "saturation",
    "enumerate_candidates": "saturation",
    "select_basis": "saturation",
    "SearchRun": "spansearch",
    "SearchSummary": "spansearch",
    "SplitMix64": "spansearch",
    "extract_sublineset": "spansearch",
    "orthogonal_complement": "spansearch",
    "random_search": "spansearch",
    "span_closure": "spansearch",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "BoundsEntry",
    "CandidateSet",
    "CheckResult",
    "CliqueResult",
    "ConstructionMismatch",
    "EqlinesError",
    "HypothesisViolated",
    "InvalidLineSet",
    "LineSet",
    "MalformedGraph6",
    "NotABasis",
    "NotPSD",
    "NotSymmetric",
    "OctadDesign",
    "OutOfRange",
    "OverLimit",
    "RankDeficient",
    "RatMatrix",
    "SaturationReport",
    "SearchRun",
    "SearchSummary",
    "SignMatrix",
    "SimpleGraph",
    "SingularMatrix",
    "SplitMix64",
    "TremainColumn",
    "ValidationReport",
    "asche_72",
    "build_compatibility_graph",
    "check_saturated",
    "enumerate_candidates",
    "extract_sublineset",
    "format_rational",
    "from_adjacency",
    "from_sign_matrix",
    "g_vector",
    "generate_octads",
    "known_bounds",
    "max_clique",
    "orthogonal_complement",
    "parse_rational",
    "random_search",
    "relative_bound",
    "relative_bound_floor",
    "select_basis",
    "span_closure",
    "srg_check",
    "taylor_90",
    "tremain_28",
    "validate",
]
