"""Exact cluster statistics for pattern-avoiding and separable permutations.

The package answers, with exact integer and rational arithmetic, how
likely a uniformly random permutation from S_n, from a pattern-avoidance
class, or from the separable class is to carry a block of l consecutive
values in l consecutive positions -- and how those probabilities behave
as n grows.

The public names below, and the four submodules that hold them, are
resolved on first use (PEP 562): importing the package, or a submodule
such as `permcluster.cli`, loads no submodule that the caller does not use.
"""

import importlib

_HOMES = {
    "enumeration": (
        "CountCache", "EventTable", "avoider_rows", "count_avoiders", "count_event", "count_union_event",
        "enumerate_avoiders", "event_count_table", "exact_probability", "ratio_sequence",
    ),
    "formulas": (
        "BoundReport", "ClusterLimitReport", "LimitSpec", "SeparableClusterLimit", "Sqrt2Number", "SWConstant",
        "catalan", "cluster_free_probability", "cluster_limit_report", "cluster_probability_bounds",
        "monotone_cluster_limit", "monotone_cluster_probability", "sep_count", "separable_cluster_limit",
        "separable_cluster_probability", "stanley_wilf_limit", "uniform_probability", "union_asymptotic_ratio",
    ),
    "perms": (
        "EMPTY_PATTERNS", "SEP", "ApplicabilityError", "ClusterEvent", "ConditionReport", "DomainError",
        "ParseError", "PatternSet", "Permutation", "UndefinedProbabilityError", "avoids_all", "check_conditions",
        "complement", "contains_pattern", "identity", "in_any_cluster_event", "in_cluster_event",
        "is_cluster_free", "is_separable", "parse_permutation", "reverse", "tight_contains",
    ),
    "transform": (
        "cluster_anchors", "contract", "contract_rows", "contraction_word", "expand", "expand_rows", "flatten",
        "inflate",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, *_HOMES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
