"""repro — a reproduction of nanoBench (Abel & Reineke, ISPASS 2020).

The package implements nanoBench — a low-overhead tool for running
microbenchmarks with hardware performance counters — on top of a
simulated x86 system: an out-of-order timing model, a multi-level cache
hierarchy with the paper's full catalogue of replacement policies, a
performance-monitoring unit, and a user/kernel privilege model.

Quickstart (the paper's Section III-A example)::

    from repro import NanoBench

    nb = NanoBench.kernel(uarch="Skylake")
    result = nb.run(asm="mov R14, [R14]", asm_init="mov [R14], R14")
    print(result["Core cycles"])            # 4.0 — the L1 load latency

Measurements run on one of three backends: the default ``sim`` is the
cycle-accurate simulated core, ``NanoBench.create(backend="analytic")``
swaps in a fast port-model estimator, and ``backend="auto"`` routes each
query to the cheapest trustworthy of the two (see :mod:`repro.backends`).
"""

__version__ = "1.0.0"

from .backends import BACKENDS  # noqa: E402
from .core.nanobench import NanoBench, NanoBenchOptions  # noqa: E402
from .core.runner import AggregateFunction  # noqa: E402
from .fuzz import (  # noqa: E402
    DifferentialFuzzer,
    DivergenceRecord,
    GeneratedKernel,
    KernelGenerator,
)
from .router import (  # noqa: E402
    FidelityTable,
    RoutedBench,
    RouterStats,
)
from .store import (  # noqa: E402
    ResultStore,
    StoreStats,
    open_store,
)

__all__ = [
    "AggregateFunction",
    "BACKENDS",
    "DifferentialFuzzer",
    "DivergenceRecord",
    "FidelityTable",
    "GeneratedKernel",
    "KernelGenerator",
    "NanoBench",
    "NanoBenchOptions",
    "ResultStore",
    "RoutedBench",
    "RouterStats",
    "StoreStats",
    "__version__",
    "open_store",
]
