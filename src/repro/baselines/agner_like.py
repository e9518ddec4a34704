"""An Agner-Fog-style measurement framework baseline (Section VII).

Agner Fog's test programs insert the benchmark code into a fixed harness
template.  The counter-read overhead is small (no function calls or
branches), but the framework "uses the CPUID instruction for
serialization, which can be problematic for short microbenchmarks"
(Section IV-A1), it restricts which registers the benchmark may use, and
it "only supports performance counters that can be read with the RDPMC
instruction" — no uncore counters, no APERF/MPERF.

:class:`AgnerLikeFramework` reproduces those choices on top of the same
simulated machine, which makes the serialization comparison (E4) an
apples-to-apples experiment.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..errors import NanoBenchError, UnschedulableEventError
from ..core.nanobench import NanoBench
from ..core.options import NanoBenchOptions
from ..perfctr.events import event_catalog
from ..uarch.core import SimulatedCore
from ..x86.assembler import assemble
from ..x86.instructions import Program

#: Registers the harness template reserves for itself; benchmark code
#: must not touch them (a documented limitation of the original).
RESERVED_REGISTERS = frozenset({"R13", "R14", "R15", "RDI", "RSI", "RBP"})


class AgnerLikeFramework:
    """Fixed-template, CPUID-serialized microbenchmark harness."""

    def __init__(self, core: SimulatedCore, *, repetitions: int = 100,
                 n_measurements: int = 10) -> None:
        options = NanoBenchOptions(
            unroll_count=repetitions,
            n_measurements=n_measurements,
            serializer="cpuid",      # the defining difference
            basic_mode=True,         # single-version template, overhead
            aggregate="med",         # subtracted as a fixed constant
        )
        self._nb = NanoBench(core, kernel_mode=False, options=options)
        self.repetitions = repetitions

    def _check_registers(self, program: Program) -> None:
        for instr in program.instructions:
            for operand in instr.operands:
                base = getattr(operand, "base", None)
                name = getattr(base, "name", None) or getattr(
                    operand, "name", None
                )
                if name in RESERVED_REGISTERS:
                    raise NanoBenchError(
                        "the harness reserves register %s; benchmark code "
                        "must not use it" % (name,)
                    )

    def measure(self, asm: str = "", *, code: Optional[Program] = None,
                events: Sequence[str] = ()) -> Dict[str, float]:
        """Measure a benchmark in the fixed CPUID-serialized template."""
        program = code if code is not None else assemble(asm)
        self._check_registers(program)
        spec = self._nb.core.spec
        catalog = event_catalog(spec.family, spec.n_cboxes)
        for name in events:
            event = catalog.get(name)
            if (event is not None and event.uncore) or (
                    event is None and "CBOX" in name.upper()):
                raise UnschedulableEventError(
                    "uncore event %r is not RDPMC-readable: the framework "
                    "only supports core counters (the 'uncore' capability "
                    "is out of reach from user space)" % (name,)
                )
        return self._nb.run(code=program, init=Program(), events=events)
