"""Exact cluster statistics for pattern-avoiding and separable permutations.

The package answers, with exact integer and rational arithmetic, how
likely a uniformly random permutation from S_n, from a pattern-avoidance
class, or from the separable class is to carry a block of l consecutive
values in l consecutive positions -- and how those probabilities behave
as n grows.
"""

from .enumeration import (
    CountCache,
    EventTable,
    avoider_rows,
    count_avoiders,
    count_event,
    count_union_event,
    enumerate_avoiders,
    event_count_table,
    exact_probability,
    ratio_sequence,
)
from .formulas import (
    BoundReport,
    ClusterLimitReport,
    LimitSpec,
    SeparableClusterLimit,
    Sqrt2Number,
    SWConstant,
    catalan,
    cluster_free_probability,
    cluster_limit_report,
    cluster_probability_bounds,
    monotone_cluster_limit,
    monotone_cluster_probability,
    sep_count,
    separable_cluster_limit,
    separable_cluster_probability,
    stanley_wilf_limit,
    uniform_probability,
    union_asymptotic_ratio,
)
from .perms import (
    EMPTY_PATTERNS,
    SEP,
    ApplicabilityError,
    ClusterEvent,
    ConditionReport,
    DomainError,
    ParseError,
    PatternSet,
    Permutation,
    UndefinedProbabilityError,
    avoids_all,
    check_conditions,
    complement,
    contains_pattern,
    identity,
    in_any_cluster_event,
    in_cluster_event,
    is_cluster_free,
    is_separable,
    parse_permutation,
    reverse,
    tight_contains,
)
from .transform import (
    cluster_anchors,
    contract,
    contract_rows,
    contraction_word,
    expand,
    expand_rows,
    flatten,
    inflate,
)

__version__ = "0.1.0"
