"""Out-of-order dispatch/timing engine.

Models the parts of a modern x86 core that determine what nanoBench's
counters read: a width-limited front end, per-port pipelined execution
units, a register/flag dependency scoreboard, store-to-load ordering,
fences with LFENCE's "all prior complete / no later begins" contract
(Section IV-A1), microcoded instructions with variable µop counts
(CPUID), move elimination, and a small branch predictor with a
mispredict penalty.

The scheduler does not simulate every pipeline stage cycle-by-cycle;
it computes, per µop, the earliest dispatch cycle consistent with its
dependencies and port availability — sufficient for latency, throughput
and port-usage measurements, which are the paper's observables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import RunawayBenchmarkError
from .ports import PortLayout
from .timing import ComputeUop, InstructionTiming

#: The µop a microcoded instruction issues per drawn µop.
_MICROCODE_UOP = ComputeUop("MICROCODE", 1)


@dataclass(frozen=True)
class MemoryAccessPlan:
    """A resolved memory access handed to the scheduler by the core."""

    line_address: int
    latency: int
    address_registers: Tuple[str, ...]
    is_store: bool = False


@dataclass
class ScheduledInstruction:
    """Timing outcome of one dynamic instruction."""

    issue_cycle: int
    complete_cycle: int
    issued_uops: int
    dispatched: Dict[str, int] = field(default_factory=dict)
    mispredicted: bool = False


class BranchPredictor:
    """Per-site two-bit saturating counters (taken-biased on first use)."""

    def __init__(self) -> None:
        self._counters: Dict[object, int] = {}

    def predict(self, site: object) -> bool:
        return self._counters.get(site, 2) >= 2

    def update(self, site: object, taken: bool) -> None:
        counter = self._counters.get(site, 2)
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        self._counters[site] = counter

    def reset(self) -> None:
        self._counters.clear()


class Scheduler:
    """Dependency- and port-aware µop timing engine for one core."""

    MISPREDICT_PENALTY = 15

    def __init__(self, layout: PortLayout,
                 rng: Optional[random.Random] = None) -> None:
        self.layout = layout
        self.rng = rng if rng is not None else random.Random(0)
        self.predictor = BranchPredictor()
        #: Index-based hot-path views, built once per scheduler from the
        #: layout's precomputed resolve tables.
        self._port_names: Tuple[str, ...] = layout.ports
        self._n_ports = len(layout.ports)
        self._class_indices = layout.class_indices
        self._load_ports = layout.resolve_indices("LOAD")
        self._sta_ports = layout.resolve_indices("STORE_ADDR")
        self._std_ports = layout.resolve_indices("STORE_DATA")
        #: Watchdog budgets (per timing epoch, i.e. per program run).
        #: ``None`` (the default) disables the check entirely; when set,
        #: exceeding them raises :class:`RunawayBenchmarkError` with a
        #: partial-progress report instead of letting a runaway
        #: benchmark (e.g. an unsatisfiable dependency stall spinning in
        #: a loop) grind on unboundedly.
        self.cycle_budget: Optional[int] = None
        self.uop_budget: Optional[int] = None
        #: When a list, every ``rng.randint`` range drawn is appended to
        #: it (the core's run log; see ``SimulatedCore.begin_run_log``).
        self.draws: Optional[List[Tuple[int, int]]] = None
        self.reset()

    def reset(self) -> None:
        """Reset all timing state (a new benchmark process).

        The watchdog budgets are configuration, not state: they persist
        across resets, but their progress counters restart — budgets
        bound one timing epoch (one program run).
        """
        self._resource_ready: Dict[str, int] = {}
        self._store_ready: Dict[int, int] = {}
        # Flat, index-based scoreboards (one slot per port, in layout
        # order) — the per-µop dispatch loop only does list indexing.
        self._port_free: List[int] = [0] * self._n_ports
        self._port_load: List[int] = [0] * self._n_ports
        self._frontend_cycle = 0
        self._frontend_slots = 0
        self._fence_until = 0
        self._max_complete = 0
        self._issued_uops = 0
        self.predictor.reset()

    def _randint(self, low: int, high: int) -> int:
        if self.draws is not None:
            self.draws.append((low, high))
        return self.rng.randint(low, high)

    def fingerprint(self) -> tuple:
        """Everything :meth:`schedule` reads except the RNG and the
        budgets: constant after :meth:`reset`, which clears the branch
        predictor too."""
        return (
            tuple(sorted(self._resource_ready.items())),
            tuple(sorted(self._store_ready.items())),
            tuple(self._port_free), tuple(self._port_load),
            self._frontend_cycle, self._frontend_slots, self._fence_until,
            self._max_complete, self._issued_uops,
            tuple(sorted(self.predictor._counters.items())),
        )

    # ------------------------------------------------------------------
    @property
    def issued_uops(self) -> int:
        """µops issued (front-end slots allocated) since the last reset."""
        return self._issued_uops

    def _progress(self) -> Dict[str, int]:
        return {
            "cycles": self._max_complete,
            "uops_issued": self._issued_uops,
            "uops_dispatched": sum(self._port_load),
            "frontend_cycle": self._frontend_cycle,
        }

    def _check_budgets(self) -> None:
        if self.cycle_budget is not None and self._max_complete > self.cycle_budget:
            raise RunawayBenchmarkError(
                "cycle budget exceeded: %d simulated cycles (budget %d)"
                % (self._max_complete, self.cycle_budget),
                budget="cycles", limit=self.cycle_budget,
                progress=self._progress(),
            )
        if self.uop_budget is not None and self._issued_uops > self.uop_budget:
            raise RunawayBenchmarkError(
                "uop budget exceeded: %d issued uops (budget %d)"
                % (self._issued_uops, self.uop_budget),
                budget="uops", limit=self.uop_budget,
                progress=self._progress(),
            )

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Monotone clock: the latest completion seen so far."""
        return self._max_complete

    def resource_ready_time(self, resource: str) -> int:
        return self._resource_ready.get(resource, 0)

    # ------------------------------------------------------------------
    # The per-µop steps (front-end slot, port choice) are written out in
    # place rather than called: they run once per dynamic µop, and a
    # method call cost more than the step.  The scoreboard's scalars are
    # held in locals and stored back once per instruction.  A µop takes
    # the next front-end slot (``frontend_width`` per cycle) and
    # dispatches to the candidate port that can start it earliest; ties
    # go to the port with the lower cumulative load.
    def schedule(
        self,
        timing: InstructionTiming,
        *,
        sources: Sequence[str] = (),
        destinations: Sequence[str] = (),
        loads: Sequence[MemoryAccessPlan] = (),
        stores: Sequence[MemoryAccessPlan] = (),
        breaks_dependency: bool = False,
        branch_site: Optional[object] = None,
        branch_taken: Optional[bool] = None,
    ) -> ScheduledInstruction:
        """Schedule one dynamic instruction; returns its timing."""
        if timing.is_fence:
            return self._schedule_fence(timing)

        frontier = first_issue = self._frontend_cycle
        slots = self._frontend_slots
        width = self.layout.frontend_width
        fence_until = self._fence_until
        max_complete = self._max_complete
        resource_ready = self._resource_ready
        ready_get = resource_ready.get
        ignore_sources = breaks_dependency or timing.breaks_dependency

        # ---- eliminated instructions (NOP, reg moves, zeroing idioms)
        if timing.eliminated:
            slots += 1
            if slots >= width:
                self._frontend_cycle = frontier + 1
                slots = 0
            self._frontend_slots = slots
            self._issued_uops += 1
            ready = frontier if frontier > fence_until else fence_until
            if not ignore_sources:
                for resource in sources:
                    value = ready_get(resource, 0)
                    if value > ready:
                        ready = value
            for destination in destinations:
                resource_ready[destination] = ready
            if ready > max_complete:
                self._max_complete = ready
            if self.cycle_budget is not None or self.uop_budget is not None:
                self._check_budgets()
            return ScheduledInstruction(frontier, ready, 1, {})

        port_free = self._port_free
        port_load = self._port_load
        port_names = self._port_names
        dispatched: Dict[str, int] = {}
        source_ready = 0
        if not ignore_sources:
            for resource in sources:
                value = ready_get(resource, 0)
                if value > source_ready:
                    source_ready = value

        # ---- load µops
        loads_complete = 0
        if loads:
            store_ready = self._store_ready
            candidates = self._load_ports
            for plan in loads:
                earliest = frontier if frontier > fence_until else fence_until
                slots += 1
                if slots >= width:
                    frontier += 1
                    slots = 0
                for resource in plan.address_registers:
                    value = ready_get(resource, 0)
                    if value > earliest:
                        earliest = value
                value = store_ready.get(plan.line_address, 0)
                if value > earliest:
                    earliest = value
                best = -1
                for i in candidates:
                    free = port_free[i]
                    start = earliest if earliest > free else free
                    if (best < 0 or start < best_start
                            or (start == best_start
                                and port_load[i] < port_load[best])):
                        best = i
                        best_start = start
                port_free[best] = best_start + 1
                port_load[best] += 1
                name = port_names[best]
                dispatched[name] = dispatched.get(name, 0) + 1
                completion = best_start + plan.latency
                if completion > max_complete:
                    max_complete = completion
                if completion > loads_complete:
                    loads_complete = completion

        # ---- compute µops
        uops = timing.compute_uops
        extra_latency = timing.base_latency
        if timing.latency_jitter:
            extra_latency += self._randint(0, timing.latency_jitter)
        if timing.microcoded:
            uops = uops + (_MICROCODE_UOP,) * self._randint(
                *timing.microcode_uops
            )

        compute_complete = loads_complete
        if uops:
            earliest_base = max(fence_until, source_ready, loads_complete)
            class_indices = self._class_indices
            for uop in uops:
                earliest = (frontier if frontier > earliest_base
                            else earliest_base)
                slots += 1
                if slots >= width:
                    frontier += 1
                    slots = 0
                candidates = class_indices.get(uop.port_class)
                if candidates is None:
                    # Raises the layout's descriptive KeyError.
                    candidates = self.layout.resolve_indices(uop.port_class)
                best = -1
                for i in candidates:
                    free = port_free[i]
                    start = earliest if earliest > free else free
                    if (best < 0 or start < best_start
                            or (start == best_start
                                and port_load[i] < port_load[best])):
                        best = i
                        best_start = start
                port_free[best] = best_start + 1
                port_load[best] += 1
                name = port_names[best]
                dispatched[name] = dispatched.get(name, 0) + 1
                completion = best_start + uop.latency
                if completion > max_complete:
                    max_complete = completion
                if completion > compute_complete:
                    compute_complete = completion
        elif not loads:
            # Pure-store or microcode-free special cases.
            compute_complete = max(fence_until, source_ready, frontier)
        if extra_latency:
            compute_complete += extra_latency
            if compute_complete > max_complete:
                max_complete = compute_complete

        result_ready = complete = compute_complete

        # ---- store µops: a store-address and a store-data µop, each
        # with its own front-end slot (both issue before either
        # dispatches).
        if stores:
            store_ready = self._store_ready
            sta_ports = self._sta_ports
            std_ports = self._std_ports
            std_base = max(fence_until, result_ready, source_ready)
            for plan in stores:
                sta_earliest = (frontier if frontier > fence_until
                                else fence_until)
                slots += 1
                if slots >= width:
                    frontier += 1
                    slots = 0
                std_earliest = frontier if frontier > std_base else std_base
                slots += 1
                if slots >= width:
                    frontier += 1
                    slots = 0
                for resource in plan.address_registers:
                    value = ready_get(resource, 0)
                    if value > sta_earliest:
                        sta_earliest = value
                line_ready = 0
                for candidates, earliest in ((sta_ports, sta_earliest),
                                             (std_ports, std_earliest)):
                    best = -1
                    for i in candidates:
                        free = port_free[i]
                        start = earliest if earliest > free else free
                        if (best < 0 or start < best_start
                                or (start == best_start
                                    and port_load[i] < port_load[best])):
                            best = i
                            best_start = start
                    port_free[best] = best_start + 1
                    port_load[best] += 1
                    name = port_names[best]
                    dispatched[name] = dispatched.get(name, 0) + 1
                    completion = best_start + 1
                    if completion > max_complete:
                        max_complete = completion
                    if completion > line_ready:
                        line_ready = completion
                store_ready[plan.line_address] = line_ready
            for plan in stores:
                value = store_ready[plan.line_address]
                if value > complete:
                    complete = value

        # ---- destinations and serialization effects
        for destination in destinations:
            resource_ready[destination] = result_ready

        mispredicted = False
        if branch_site is not None and branch_taken is not None:
            predicted = self.predictor.predict(branch_site)
            self.predictor.update(branch_site, branch_taken)
            if predicted != branch_taken:
                mispredicted = True
                resume = complete + self.MISPREDICT_PENALTY
                if resume > frontier:
                    frontier = resume
                slots = 0
                if resume > max_complete:
                    max_complete = resume

        if complete > max_complete:
            max_complete = complete
        issued = len(loads) + len(uops) + 2 * len(stores)
        self._frontend_cycle = frontier
        self._frontend_slots = slots
        self._max_complete = max_complete
        self._issued_uops += issued
        if self.cycle_budget is not None or self.uop_budget is not None:
            self._check_budgets()
        return ScheduledInstruction(
            first_issue, complete, issued, dispatched, mispredicted
        )

    # ------------------------------------------------------------------
    def _schedule_fence(self, timing: InstructionTiming) -> ScheduledInstruction:
        """LFENCE-style: wait for all prior work, block later dispatch."""
        issue = self._frontend_cycle
        self._issued_uops += 1
        frontier = issue
        if self._frontend_slots + 1 >= self.layout.frontend_width:
            frontier += 1
        start = max(issue, self._max_complete, self._fence_until)
        completion = start + timing.fence_latency
        self._fence_until = completion
        self._max_complete = max(self._max_complete, completion)
        # The front end also resumes no earlier than fence completion.
        self._frontend_cycle = max(frontier, completion)
        self._frontend_slots = 0
        if self.cycle_budget is not None or self.uop_budget is not None:
            self._check_budgets()
        return ScheduledInstruction(issue, completion, 1, {})

    # ------------------------------------------------------------------
    def external_delay(self, cycles: int) -> None:
        """Advance time by an external event (interrupt, preemption)."""
        resume = self._max_complete + cycles
        self._fence_until = max(self._fence_until, resume)
        self._frontend_cycle = max(self._frontend_cycle, resume)
        self._frontend_slots = 0
        self._max_complete = resume
        if self.cycle_budget is not None:
            self._check_budgets()

    def serialize_after_microcode(self, completion: int) -> None:
        """CPUID/WRMSR-style drain: later instructions start afterwards.

        Weaker than LFENCE (the paper notes CPUID does not order itself
        w.r.t. preceding µops), so only the forward edge is enforced.
        """
        self._fence_until = max(self._fence_until, completion)
        self._frontend_cycle = max(self._frontend_cycle, completion)
        self._frontend_slots = 0

    def port_pressure(self) -> Dict[str, int]:
        """Total µops dispatched per port since the last reset."""
        return dict(zip(self._port_names, self._port_load))
