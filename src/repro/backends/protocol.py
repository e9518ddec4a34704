"""The measurement-backend contract: three names and their capabilities.

:class:`~repro.core.nanobench.NanoBench` measures on one of a closed
set of backends.  ``sim`` runs the generated code on the cycle-accurate
:class:`~repro.uarch.core.SimulatedCore`; ``analytic`` answers from the
timing tables instead of per-cycle scheduling; ``auto`` routes each
query to the cheapest of the two whose answer can be trusted.  This
mirrors gem5's swappable CPU models (AtomicSimpleCPU vs O3CPU):
different fidelity, one measurement protocol.

Each backend advertises a :class:`Capabilities` descriptor so tools can
*negotiate* instead of crashing: a capability-gated feature that is
absent either degrades gracefully (events are skipped with a warning
through the existing :class:`~repro.errors.UnschedulableEventError`
path) or fails up front with a structured
:class:`~repro.errors.CapabilityError` naming the missing capability.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Tuple

from ..errors import CapabilityError

#: Human-readable blurb per capability field (the ``nanobench
#: backends`` listing and the README table are generated from this).
CAPABILITY_DESCRIPTIONS: Dict[str, str] = {
    "cycle_accurate": "per-cycle out-of-order execution (exact counters)",
    "uncore": "uncore/C-Box MSR counters (L3 lookup/miss/victim)",
    "aperf_mperf": "APERF/MPERF frequency-ratio MSRs",
    "cache_events": "memory-hierarchy and TLB events (hit/miss levels)",
    "magic_bytes": "pause/resume counting via magic byte sequences",
}


@dataclass(frozen=True)
class Capabilities:
    """What one measurement backend can actually do.

    Field semantics follow the paper's feature matrix: kernel-only
    features (uncore counters, APERF/MPERF) are still subject to the
    kernel/user mode of the :class:`NanoBench` instance even when the
    backend supports them — the capability says the *backend* has the
    machinery, not that every mode may use it.
    """

    cycle_accurate: bool = True
    uncore: bool = True
    aperf_mperf: bool = True
    cache_events: bool = True
    magic_bytes: bool = True

    def require(self, capability: str, *, backend: str = "",
                context: str = "") -> None:
        """Raise a structured :class:`CapabilityError` unless supported."""
        if getattr(self, capability):
            return
        message = "backend %r lacks the %r capability (%s)" % (
            backend or "<unknown>", capability,
            CAPABILITY_DESCRIPTIONS[capability])
        if context:
            message = "%s: %s" % (context, message)
        raise CapabilityError(message, capability=capability,
                              backend=backend)

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """All capability field names, in declaration order."""
        return tuple(f.name for f in fields(cls))


#: Name of the default backend (the cycle-accurate simulated core).
DEFAULT_BACKEND = "sim"

#: The measurement backends, ``name -> (description, capabilities)``,
#: in listing order.  :meth:`NanoBench.create` builds each by name.
BACKENDS: Dict[str, Tuple[str, Capabilities]] = {
    "sim": ("cycle-accurate simulated core: out-of-order scheduling, "
            "cache hierarchy, TLBs, uncore counters", Capabilities()),
    "analytic": ("OSACA-style analytic estimator: latency, throughput "
                 "and port pressure from the timing tables, orders of "
                 "magnitude faster than cycle-accurate simulation",
                 Capabilities(cycle_accurate=False, uncore=False,
                              aperf_mperf=False, cache_events=False,
                              magic_bytes=False)),
    # The router serves anything: a query needing a capability the
    # analytic tier lacks is routed to the simulator, never refused.
    "auto": ("tiered fidelity router: analytic -> sim, cheapest "
             "trustworthy tier per query", Capabilities()),
}
