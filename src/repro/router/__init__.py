"""Tiered fidelity routing: the ``auto`` measurement backend.

:class:`RoutedBench` is what ``NanoBench.create(backend="auto")``
returns, so ``BenchmarkSpec(backend="auto")`` and the CLI's ``-backend
auto`` all route through the cascade.
"""

from .fidelity import (
    ClassBound,
    DEFAULT_TABLE_PATH,
    EVENT_CLASSES,
    FidelityTable,
    classify_event,
    classify_query,
    fidelity_from_comparison,
    load_fidelity_table,
    program_classes,
)
from .router import (
    RoutedBench,
    RouterPolicy,
    RouterStats,
    TIER_ORDER,
    audit_selected,
)

__all__ = [
    "ClassBound",
    "DEFAULT_TABLE_PATH",
    "EVENT_CLASSES",
    "FidelityTable",
    "RoutedBench",
    "RouterPolicy",
    "RouterStats",
    "TIER_ORDER",
    "audit_selected",
    "classify_event",
    "classify_query",
    "fidelity_from_comparison",
    "load_fidelity_table",
    "program_classes",
]
