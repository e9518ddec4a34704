"""Runaway-benchmark watchdogs (integrity pillar 2).

The budgets themselves live where the work happens — the scheduler
counts cycles and issued µops, the cache and TLB hierarchies count
simulated access steps — and raise
:class:`~repro.errors.RunawayBenchmarkError` with a partial-progress
report when exceeded.  This module provides the context managers the
tools use to install and cleanly restore those budgets around a sweep.

All budgets default to *off* (``None``): the watchdogs only change
behaviour when a limit is configured, keeping default results
byte-identical.  They complement the batch plane's process-level
timeouts with in-process, serial-path protection.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional


#: Default step budget the cache/TLB tools install around large sweeps.
#: Generous enough that no legitimate workload in the repository comes
#: near it; a pathological multi-million-step ``cacheseq`` trips it in
#: bounded time instead of grinding for hours.
DEFAULT_STEP_BUDGET = 50_000_000


@contextmanager
def memory_step_budget(hierarchy, limit: Optional[int]):
    """Bound the number of cache-hierarchy accesses inside the block."""
    if limit is None:
        yield hierarchy
        return
    previous_budget = hierarchy.step_budget
    previous_steps = hierarchy.steps_taken
    hierarchy.step_budget = limit
    hierarchy.steps_taken = 0
    try:
        yield hierarchy
    finally:
        hierarchy.step_budget = previous_budget
        hierarchy.steps_taken = previous_steps


@contextmanager
def tlb_step_budget(tlb_hierarchy, limit: Optional[int]):
    """Bound the number of TLB lookups inside the block."""
    if limit is None:
        yield tlb_hierarchy
        return
    previous_budget = tlb_hierarchy.step_budget
    previous_steps = tlb_hierarchy.steps_taken
    tlb_hierarchy.step_budget = limit
    tlb_hierarchy.steps_taken = 0
    try:
        yield tlb_hierarchy
    finally:
        tlb_hierarchy.step_budget = previous_budget
        tlb_hierarchy.steps_taken = previous_steps


@contextmanager
def scheduler_budgets(scheduler, *, cycles: Optional[int] = None,
                      uops: Optional[int] = None):
    """Install cycle/µop budgets on a scheduler inside the block."""
    previous = (scheduler.cycle_budget, scheduler.uop_budget)
    if cycles is not None:
        scheduler.cycle_budget = cycles
    if uops is not None:
        scheduler.uop_budget = uops
    try:
        yield scheduler
    finally:
        scheduler.cycle_budget, scheduler.uop_budget = previous
