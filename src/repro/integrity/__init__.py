"""Measurement-integrity layer: refuse bad inputs, bound runaway
benchmarks, and flag statistically unstable results.

Three pillars, wired through ``core``, ``batch``, ``uarch``,
``perfctr`` and the CLI:

* :mod:`~repro.integrity.preflight` — benchmark code is decoded and
  checked **before** any simulation (structured
  :class:`~repro.errors.ValidationError` with offsets and mnemonics),
  event-config files get file:line-precise diagnostics, and
  measurement options get cross-field conflict detection.
* :mod:`~repro.integrity.watchdog` — cycle/µop progress budgets in the
  uarch scheduler and step budgets in the cache/TLB simulators, so a
  runaway benchmark raises a structured
  :class:`~repro.errors.RunawayBenchmarkError` with a partial-progress
  report instead of hanging the worker.
* :mod:`~repro.integrity.stability` — dispersion checks (MAD/IQR) of
  the raw per-run series; with the ``max_n_measurements`` option set,
  ``n_measurements`` is escalated up to that cap and the result is
  stamped with a machine-readable quality verdict.

Defaults keep all existing results byte-identical: the layer only
changes behaviour when it detects a problem.
"""

from ..errors import RunawayBenchmarkError, ValidationError
from .preflight import (
    ValidationIssue,
    assert_valid,
    ensure_program_valid,
    validate_code_bytes,
    validate_program,
)
from .stability import (
    VERDICT_ESCALATED,
    VERDICT_QUARANTINED,
    VERDICT_STABLE,
    DispersionStats,
    QualityVerdict,
    compute_dispersion,
)
from .watchdog import (
    DEFAULT_STEP_BUDGET,
    memory_step_budget,
    scheduler_budgets,
    tlb_step_budget,
)

__all__ = [
    "DEFAULT_STEP_BUDGET",
    "DispersionStats",
    "QualityVerdict",
    "RunawayBenchmarkError",
    "ValidationError",
    "ValidationIssue",
    "VERDICT_ESCALATED",
    "VERDICT_QUARANTINED",
    "VERDICT_STABLE",
    "assert_valid",
    "compute_dispersion",
    "ensure_program_valid",
    "memory_step_budget",
    "scheduler_budgets",
    "tlb_step_budget",
    "validate_code_bytes",
    "validate_program",
]
