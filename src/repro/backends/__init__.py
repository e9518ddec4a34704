"""The measurement backends: ``sim``, ``analytic`` and ``auto``.

The facade, the batch engine and the case-study tools measure on one of
three backends of different fidelity (the gem5 AtomicSimpleCPU-vs-O3CPU
idea), each with a :class:`Capabilities` descriptor in
:data:`BACKENDS`:

* ``sim`` — the default cycle-accurate out-of-order
  :class:`~repro.uarch.core.SimulatedCore`;
* ``analytic`` — :class:`AnalyticTarget`, an OSACA-style estimator
  answering latency/throughput/port questions straight from the timing
  tables, with a reduced capability set;
* ``auto`` — :class:`~repro.router.RoutedBench`, the router serving
  each query from the cheapest trustworthy of the two.

Select one with ``NanoBench.create(backend="analytic")``, a
``BenchmarkSpec(backend=...)``, or the CLI's ``-backend`` flag;
``nanobench backends`` lists the three and their capabilities.
"""

from .analytic import AnalyticTarget, BlockEstimate, estimate_program
from .protocol import (
    BACKENDS,
    CAPABILITY_DESCRIPTIONS,
    Capabilities,
    DEFAULT_BACKEND,
)

__all__ = [
    "AnalyticTarget",
    "BACKENDS",
    "BlockEstimate",
    "CAPABILITY_DESCRIPTIONS",
    "Capabilities",
    "DEFAULT_BACKEND",
    "estimate_program",
]
