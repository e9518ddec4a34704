"""Interference model: interrupts and their counter noise.

The paper's motivation for the kernel-space variant: "It can allow for
more accurate measurement results as it disables interrupts and
preemptions during measurements" (Section III-D), and measurements "may
need to be repeated multiple times [because of] interference due to
interrupts, preemptions or contention" (Section I).

The model fires timer-style interrupts as a Poisson process over core
cycles.  Each interrupt executes a burst of kernel instructions on the
measured core: it inflates the counters (instructions, µops, branches,
cycles) and pollutes the caches.  Kernel-space nanoBench masks
interrupts (CLI), so runs are exact; user-space runs occasionally catch
one, which the aggregate functions (minimum / median) then reject.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class InterruptEvent:
    """Counter and cache side effects of one interrupt."""

    cycles: int
    instructions: int
    uops: int
    branches: int
    cache_lines_touched: int


@dataclass
class InterferenceConfig:
    """Tuning knobs for the noise process."""

    #: Mean core cycles between interrupts (Poisson).
    mean_interval_cycles: float = 150_000.0
    #: Interrupt handler cost ranges.
    min_cycles: int = 2_000
    max_cycles: int = 30_000
    min_instructions: int = 1_000
    max_instructions: int = 20_000
    branch_fraction: float = 0.2
    uops_per_instruction: float = 1.1
    cache_lines: int = 64


class InterferenceModel:
    """Poisson interrupt generator for one simulated core."""

    def __init__(self, config: Optional[InterferenceConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.config = config if config is not None else InterferenceConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self.enabled = True
        self._next_interrupt: Optional[float] = None

    # ------------------------------------------------------------------
    def disable(self) -> None:
        """CLI: mask interrupts (kernel-space measurement mode)."""
        self.enabled = False

    def enable(self) -> None:
        """STI: unmask interrupts."""
        self.enabled = True
        self._next_interrupt = None

    def _schedule_next(self, now: float) -> None:
        interval = self.rng.expovariate(1.0 / self.config.mean_interval_cycles)
        self._next_interrupt = now + interval

    # ------------------------------------------------------------------
    def poll(self, now: float) -> List[InterruptEvent]:
        """Interrupts that fire by cycle *now* (empty when masked).

        The process is armed at the cycle of the first poll (or of
        re-enabling), not at cycle 0: a core that starts polling deep
        into the simulation — e.g. after a long interrupt-masked kernel
        run — must not receive the whole backlog of the elapsed window
        in one burst.
        """
        if not self.enabled:
            return []
        if self._next_interrupt is None:
            self._schedule_next(now)
        events: List[InterruptEvent] = []
        config = self.config
        while self._next_interrupt is not None and self._next_interrupt <= now:
            instructions = self.rng.randint(
                config.min_instructions, config.max_instructions
            )
            events.append(InterruptEvent(
                cycles=self.rng.randint(config.min_cycles, config.max_cycles),
                instructions=instructions,
                uops=int(instructions * config.uops_per_instruction),
                branches=int(instructions * config.branch_fraction),
                cache_lines_touched=config.cache_lines,
            ))
            self._schedule_next(self._next_interrupt)
        return events
