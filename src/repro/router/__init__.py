"""Tiered fidelity routing: the ``auto`` measurement backend.

:class:`RoutedBench` is what ``NanoBench.create(backend="auto")``
returns, so ``BenchmarkSpec(backend="auto")`` and the CLI's ``-backend
auto`` all serve each query from the analytic tier when the fidelity
gate trusts it, and from the simulator otherwise.
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
from .router import RoutedBench, RouterStats, audit_selected

__all__ = [
    "ClassBound",
    "DEFAULT_TABLE_PATH",
    "EVENT_CLASSES",
    "FidelityTable",
    "RoutedBench",
    "RouterStats",
    "audit_selected",
    "classify_event",
    "classify_query",
    "fidelity_from_comparison",
    "load_fidelity_table",
    "program_classes",
]
