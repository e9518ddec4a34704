"""The measurement backends: ``sim``, ``analytic`` and ``auto``.

The facade, the batch engine and the case-study tools measure on one of
three backends of different fidelity (the gem5 AtomicSimpleCPU-vs-O3CPU
idea), one measurement protocol:

* ``sim`` — the default cycle-accurate out-of-order
  :class:`~repro.uarch.core.SimulatedCore`;
* ``analytic`` — :class:`AnalyticTarget`, an OSACA-style estimator
  answering latency/throughput/port questions straight from the timing
  tables.  It cannot answer uncore events, APERF/MPERF, cache/TLB
  events or pause/resume counting;
* ``auto`` — :class:`~repro.router.RoutedBench`, the router serving
  each query from the analytic tier when it can be trusted and from the
  simulator otherwise.

Select one with ``NanoBench.create(backend="analytic")``, a
``BenchmarkSpec(backend=...)``, or the CLI's ``-backend`` flag;
``nanobench backends`` lists the three.
"""

from typing import Dict

from .analytic import AnalyticTarget, BlockEstimate, estimate_program

#: Name of the default backend (the cycle-accurate simulated core).
DEFAULT_BACKEND = "sim"

#: The measurement backends, ``name -> description``, in listing order.
#: :meth:`~repro.core.nanobench.NanoBench.create` builds each by name.
BACKENDS: Dict[str, str] = {
    "sim": "cycle-accurate simulated core: out-of-order scheduling, "
           "cache hierarchy, TLBs, uncore counters",
    "analytic": "OSACA-style analytic estimator: latency, throughput "
                "and port pressure from the timing tables, orders of "
                "magnitude faster than cycle-accurate simulation; it "
                "cannot answer uncore events, APERF/MPERF, cache/TLB "
                "events or pause/resume counting",
    "auto": "tiered fidelity router: analytic -> sim, cheapest "
            "trustworthy tier per query",
}

__all__ = [
    "AnalyticTarget",
    "BACKENDS",
    "BlockEstimate",
    "DEFAULT_BACKEND",
    "estimate_program",
]
