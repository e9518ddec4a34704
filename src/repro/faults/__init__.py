"""Deterministic, seedable fault injection (the chaos plane).

A :class:`FaultPlan` names fault classes and per-site rates; every
decision is a pure function of ``(seed, site, key)``, so chaos runs are
reproducible and — because every fault class has a recovery path in the
measurement stack — byte-identical to fault-free runs once retries,
requeues and checkpoint resume have done their work.

::

    from repro.faults import FaultPlan

    with FaultPlan.chaos(seed=7):
        nb = NanoBench.kernel("Skylake")
        nb.run(asm="mov R14, [R14]")   # survives injected faults

or, for an existing test suite::

    REPRO_FAULTS=chaos REPRO_FAULTS_SEED=7 python -m pytest -q
"""

from .plan import (
    DEFAULT_RATES,
    ENV_FAULTS,
    ENV_SEED,
    FAULT_SITES,
    RUN_FAULT_SITES,
    FaultPlan,
    activate,
    active_plan,
    deactivate,
    fault_fires,
    reset_env_cache,
)

__all__ = [
    "DEFAULT_RATES",
    "ENV_FAULTS",
    "ENV_SEED",
    "FAULT_SITES",
    "RUN_FAULT_SITES",
    "FaultPlan",
    "activate",
    "active_plan",
    "deactivate",
    "fault_fires",
    "reset_env_cache",
]
