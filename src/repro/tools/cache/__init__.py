"""Case study II: cache-analysis tools built on nanoBench."""

from .addresses import AddressBuilder, disable_prefetchers
from .age_graph import AgeGraph, compute_age_graph, render_age_graph
from .cacheseq import (
    Access,
    AccessSequence,
    CacheSeq,
    CacheSeqResult,
    parse_sequence,
)
from .permutation_infer import (
    AgeMeasurement,
    PermutationInference,
    match_known_policy,
)
from .policy_id import (
    IdentificationResult,
    PolicyIdentifier,
    find_distinguishing_sequence,
    policies_equivalent,
    random_access_sequence,
)
from .set_dueling import SetClassification, SetDuelingScanner
from .survey import CpuSurvey, LevelSurvey, survey_cpu, survey_cpus

__all__ = [
    "Access",
    "AccessSequence",
    "AddressBuilder",
    "AgeGraph",
    "AgeMeasurement",
    "CacheSeq",
    "CacheSeqResult",
    "CpuSurvey",
    "LevelSurvey",
    "IdentificationResult",
    "PermutationInference",
    "PolicyIdentifier",
    "SetClassification",
    "SetDuelingScanner",
    "compute_age_graph",
    "disable_prefetchers",
    "find_distinguishing_sequence",
    "match_known_policy",
    "parse_sequence",
    "policies_equivalent",
    "random_access_sequence",
    "render_age_graph",
    "survey_cpu",
    "survey_cpus",
]
