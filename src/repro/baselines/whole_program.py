"""A perf-style whole-program measurement baseline.

Section I: "Just running a C program with an empty main function,
compiled with a recent version of gcc, leads to the execution of more
than 500,000 instructions and about 100,000 branches.  Moreover, this
number varies significantly from one run to another."

:class:`WholeProgramProfiler` measures a *process*: the runtime startup
(dynamic loader, libc init — modelled as a large, run-to-run-variable
instruction burst with cache pollution) plus the user code.  This is the
first-category baseline nanoBench is contrasted with: it cannot measure
only parts of the code, and its numbers are dominated by startup noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..uarch.core import SimulatedCore
from ..x86.assembler import assemble
from ..x86.instructions import Program


@dataclass
class StartupModel:
    """Parameters of the simulated process startup."""

    mean_instructions: int = 520_000
    instructions_stddev: int = 25_000
    branch_fraction: float = 0.19
    uops_per_instruction: float = 1.15
    cycles_per_instruction: float = 0.9
    cache_lines_touched: int = 4096


class WholeProgramProfiler:
    """perf-stat-like measurement of an entire process."""

    def __init__(self, core: SimulatedCore,
                 startup: Optional[StartupModel] = None,
                 seed: int = 0) -> None:
        self.core = core
        self.startup = startup if startup is not None else StartupModel()
        self.rng = random.Random(seed)

    def _simulate_startup(self) -> None:
        model = self.startup
        instructions = max(
            1,
            int(self.rng.gauss(model.mean_instructions,
                               model.instructions_stddev)),
        )
        metrics = self.core.metrics
        metrics.add("instructions_retired", instructions)
        metrics.add("uops_issued",
                    int(instructions * model.uops_per_instruction))
        metrics.add("branches", int(instructions * model.branch_fraction))
        metrics.add("branch_mispredicts",
                    int(instructions * model.branch_fraction * 0.02))
        self.core.scheduler.external_delay(
            int(instructions * model.cycles_per_instruction)
        )
        for _ in range(model.cache_lines_touched):
            physical = self.rng.randrange(0, 1 << 26) & ~0x3F
            self.core.hierarchy.access(physical, is_prefetch=True)

    # ------------------------------------------------------------------
    def run(self, asm: str = "", *, code: Optional[Program] = None
            ) -> Dict[str, float]:
        """Measure one process execution: startup + the given code.

        Returns whole-process counter totals, like ``perf stat ./a.out``.
        An empty ``asm`` measures an empty ``main()``.
        """
        core = self.core
        before = {
            "Instructions retired": core.metrics.get("instructions_retired"),
            "Core cycles": core.current_cycle,
            "Branches": core.metrics.get("branches"),
        }
        self._simulate_startup()
        program = code if code is not None else assemble(asm)
        if len(program):
            core.run_program(program, kernel_mode=False)
        core.reset_timing()
        after_cycles = core.current_cycle
        return {
            "Instructions retired":
                core.metrics.get("instructions_retired")
                - before["Instructions retired"],
            "Core cycles": float(after_cycles - before["Core cycles"]),
            "Branches": core.metrics.get("branches") - before["Branches"],
        }
