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

#: Steady-state signature horizon: a time value whose distance above
#: the front-end frontier is at most this is "low" (paced by the front
#: end, recorded exactly); anything further ahead is "high" (paced by
#: the back-end critical path, recorded relative to the high-group
#: minimum).  See :meth:`Scheduler.steady_state` for the soundness
#: argument.
STEADY_LOW_HORIZON = 32


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
        #: Connected components of the "co-candidate" relation: two
        #: ports are related when some port class lists both, i.e. when
        #: a dispatch tie-break can ever compare their loads.  Loads
        #: only matter *within* a component, so the steady-state
        #: signature normalizes them per component (a global minimum
        #: would pin to a never-used port and make busy-port loads grow
        #: without bound, defeating periodicity detection).
        parent = list(range(self._n_ports))

        def _find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for candidates in layout.class_indices.values():
            first = candidates[0]
            for other in candidates[1:]:
                parent[_find(other)] = _find(first)
        components: Dict[int, List[int]] = {}
        for index in range(self._n_ports):
            components.setdefault(_find(index), []).append(index)
        self._port_groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(members) for members in components.values()
        )
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
        # Running sum of every latency handed to the dispatch/fence
        # paths — an upper bound on how far above the frontier any
        # frontier-paced computation can climb within a window, used by
        # the steady-state separation margin.
        self._latency_accum = 0
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
            self._max_complete, self._issued_uops, self._latency_accum,
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
    def _issue_slot(self) -> int:
        """Allocate one front-end slot; returns the issue cycle."""
        cycle = self._frontend_cycle
        self._issued_uops += 1
        self._frontend_slots += 1
        if self._frontend_slots >= self.layout.frontend_width:
            self._frontend_cycle += 1
            self._frontend_slots = 0
        return cycle

    def _dispatch(self, candidates: Sequence[int], earliest: int,
                  latency: int, dispatched: Dict[str, int]) -> int:
        """Dispatch one µop to the best candidate port; returns completion.

        ``candidates`` are *port indices* (see
        :attr:`PortLayout.class_indices`); ties on start cycle break to
        the port with the lower cumulative load, exactly as before.
        """
        port_free = self._port_free
        port_load = self._port_load
        best_index = -1
        best_start = -1
        for i in candidates:
            free = port_free[i]
            start = earliest if earliest > free else free
            if (
                best_index < 0
                or start < best_start
                or (start == best_start
                    and port_load[i] < port_load[best_index])
            ):
                best_index, best_start = i, start
        port_free[best_index] = best_start + 1
        port_load[best_index] += 1
        self._latency_accum += latency
        name = self._port_names[best_index]
        dispatched[name] = dispatched.get(name, 0) + 1
        completion = best_start + latency
        if completion > self._max_complete:
            self._max_complete = completion
        return completion

    def _sources_ready(self, sources) -> int:
        ready = 0
        for resource in sources:
            ready = max(ready, self._resource_ready.get(resource, 0))
        return ready

    # ------------------------------------------------------------------
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
        dispatched: Dict[str, int] = {}
        issued = 0
        first_issue = self._frontend_cycle

        if timing.is_fence:
            return self._schedule_fence(timing)

        ignore_sources = breaks_dependency or timing.breaks_dependency

        # ---- eliminated instructions (NOP, reg moves, zeroing idioms)
        if timing.eliminated:
            issue = self._issue_slot()
            issued = 1
            ready = max(issue, self._fence_until)
            if not ignore_sources:
                ready = max(ready, self._sources_ready(sources))
            for destination in destinations:
                self._resource_ready[destination] = ready
            self._max_complete = max(self._max_complete, ready)
            if self.cycle_budget is not None or self.uop_budget is not None:
                self._check_budgets()
            return ScheduledInstruction(issue, ready, issued, dispatched)

        # ---- load µops
        source_ready = 0 if ignore_sources else self._sources_ready(sources)
        loads_complete = 0
        for plan in loads:
            issue = self._issue_slot()
            issued += 1
            earliest = max(
                issue,
                self._fence_until,
                self._sources_ready(plan.address_registers),
                self._store_ready.get(plan.line_address, 0),
            )
            completion = self._dispatch(
                self._load_ports, earliest, plan.latency, dispatched
            )
            loads_complete = max(loads_complete, completion)

        # ---- compute µops
        compute_uops: List[ComputeUop] = list(timing.compute_uops)
        extra_latency = timing.base_latency
        if timing.latency_jitter:
            extra_latency += self._randint(0, timing.latency_jitter)
        if timing.microcoded:
            count = self._randint(*timing.microcode_uops)
            compute_uops.extend(ComputeUop("MICROCODE", 1) for _ in range(count))

        compute_complete = loads_complete
        earliest_base = max(self._fence_until, source_ready, loads_complete)
        class_indices = self._class_indices
        for uop in compute_uops:
            issue = self._issue_slot()
            issued += 1
            earliest = max(issue, earliest_base)
            candidates = class_indices.get(uop.port_class)
            if candidates is None:
                # Raises the layout's descriptive KeyError.
                candidates = self.layout.resolve_indices(uop.port_class)
            completion = self._dispatch(
                candidates, earliest, uop.latency, dispatched,
            )
            compute_complete = max(compute_complete, completion)
        if not compute_uops and not loads:
            # Pure-store or microcode-free special cases.
            compute_complete = max(self._fence_until, source_ready,
                                   self._frontend_cycle)
        if extra_latency:
            compute_complete += extra_latency
            self._latency_accum += extra_latency
            self._max_complete = max(self._max_complete, compute_complete)

        result_ready = compute_complete

        # ---- store µops (address + data).  STA and STD are distinct
        # µops, so each consumes its own front-end slot: issuing one
        # slot while reporting ``issued += 2`` (the old behaviour) made
        # the uop-budget watchdog and front-end width pressure disagree
        # with ``ScheduledInstruction.issued_uops``.
        for plan in stores:
            sta_issue = self._issue_slot()
            std_issue = self._issue_slot()
            issued += 2
            sta_earliest = max(
                sta_issue,
                self._fence_until,
                self._sources_ready(plan.address_registers),
            )
            sta_complete = self._dispatch(
                self._sta_ports, sta_earliest, 1, dispatched
            )
            std_earliest = max(std_issue, self._fence_until, result_ready,
                               source_ready)
            std_complete = self._dispatch(
                self._std_ports, std_earliest, 1, dispatched
            )
            self._store_ready[plan.line_address] = max(
                sta_complete, std_complete
            )

        complete = max(result_ready,
                       max((self._store_ready.get(p.line_address, 0)
                            for p in stores), default=0))

        # ---- destinations and serialization effects
        for destination in destinations:
            self._resource_ready[destination] = result_ready

        mispredicted = False
        if branch_site is not None and branch_taken is not None:
            predicted = self.predictor.predict(branch_site)
            self.predictor.update(branch_site, branch_taken)
            if predicted != branch_taken:
                mispredicted = True
                self._latency_accum += self.MISPREDICT_PENALTY
                resume = complete + self.MISPREDICT_PENALTY
                self._frontend_cycle = max(self._frontend_cycle, resume)
                self._frontend_slots = 0
                self._max_complete = max(self._max_complete, resume)

        self._max_complete = max(self._max_complete, complete)
        if self.cycle_budget is not None or self.uop_budget is not None:
            self._check_budgets()
        return ScheduledInstruction(
            first_issue, complete, issued, dispatched, mispredicted
        )

    # ------------------------------------------------------------------
    def _schedule_fence(self, timing: InstructionTiming) -> ScheduledInstruction:
        """LFENCE-style: wait for all prior work, block later dispatch."""
        issue = self._issue_slot()
        start = max(issue, self._max_complete, self._fence_until)
        completion = start + timing.fence_latency
        self._latency_accum += timing.fence_latency
        self._fence_until = completion
        self._max_complete = max(self._max_complete, completion)
        # The front end also resumes no earlier than fence completion.
        self._frontend_cycle = max(self._frontend_cycle, completion)
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

    # ------------------------------------------------------------------
    # Steady-state fast path support.
    #
    # An unrolled benchmark body repeats the same instruction sequence
    # many times.  Once the scheduler reaches a *periodic* state, the
    # next p iterations are forced to replay exactly the deltas of the
    # previous p, so the core can apply those deltas in bulk instead of
    # re-running the per-µop dispatch loop.
    #
    # "Periodic" cannot mean "every time value repeats relative to the
    # front-end frontier": the model has no reorder-buffer limit, so in
    # a back-end-bound body (a dependency chain, or one saturated port)
    # completion times advance faster than the frontier and the gap
    # grows without bound.  The state is instead periodic up to *two*
    # uniform shifts, which is what the signature captures:
    #
    # * Inert entries (at or below the frontier): every µop's issue
    #   cycle is >= the frontier, so these can never win a ``max()``
    #   race again.  They are omitted from the signature and left
    #   untouched by replay, exactly as clean exact iterations leave
    #   them.
    # * Low entries (within ``STEADY_LOW_HORIZON`` above the
    #   frontier): paced by the front end; recorded exactly and shifted
    #   with the frontier on replay.
    # * High entries (further out): paced by the back-end critical
    #   path; recorded relative to the high-group minimum and shifted
    #   by the observed high-group advance on replay.
    #
    # Soundness: matching signatures at boundaries j < k mean the state
    # at k is the state at j with the frontier and every low entry
    # shifted by a = F_k - F_j and every high entry shifted by one
    # common b = high_k - high_j.  All scheduling decisions are
    # outcomes of ``max()`` races plus load tie-breaks, and each race
    # from k resolves exactly as its image from j did:
    #
    # * low/low and high/high races: both sides shift uniformly.
    # * high/low races the high side won at j: the gap only grows
    #   (replay requires b >= a).
    # * high/low races the *low* side won at j are the one case the
    #   shift differential could flip.  They are excluded by a
    #   separation margin: replay requires the smallest high entry to
    #   exceed the largest value any frontier-paced computation can
    #   reach during one period — bounded by the horizon plus the
    #   frontier advance plus the period's total dispatched latency
    #   (tracked by ``_latency_accum``).
    #
    # Port loads only matter relative to each other (tie-breaking), and
    # only among ports a candidate set can ever compare, so they are
    # normalized by subtracting each co-candidate component's minimum
    # (see ``_port_groups``).  ``max_complete``
    # is the externally visible clock, so it is always recorded (even
    # when inert for scheduling) and replay always advances it by its
    # own observed per-period delta.

    def steady_state(self) -> Tuple[tuple, tuple]:
        """(signature, snapshot) of the current scheduling state.

        The signature is comparable across iteration boundaries of an
        unrolled body; the snapshot holds the absolute counters needed
        to derive per-period replay deltas once two signatures match.
        """
        base = self._frontend_cycle
        horizon = STEADY_LOW_HORIZON
        entries: List[Tuple[str, object, int]] = []
        min_high: Optional[int] = None
        for name, value in self._resource_ready.items():
            rel = value - base
            if rel > 0:
                entries.append(("r", name, rel))
                if rel > horizon and (min_high is None or rel < min_high):
                    min_high = rel
        for line, value in self._store_ready.items():
            rel = value - base
            if rel > 0:
                entries.append(("s", line, rel))
                if rel > horizon and (min_high is None or rel < min_high):
                    min_high = rel
        for index in range(self._n_ports):
            rel = self._port_free[index] - base
            if rel > 0:
                entries.append(("p", index, rel))
                if rel > horizon and (min_high is None or rel < min_high):
                    min_high = rel
        rel = self._fence_until - base
        if rel > 0:
            entries.append(("f", 0, rel))
            if rel > horizon and (min_high is None or rel < min_high):
                min_high = rel
        rel = self._max_complete - base
        entries.append(("c", 0, rel))
        if rel > horizon and (min_high is None or rel < min_high):
            min_high = rel
        # High entries are encoded as ~(rel - min_high): a negative
        # int, disjoint from every low/inert exact rel, so one sorted
        # tuple of homogeneous triples stays orderable and hashable.
        signature_items = tuple(sorted(
            (tag, key, value if value <= horizon else ~(value - min_high))
            for tag, key, value in entries
        ))
        # Port loads, normalized per co-candidate component, get the
        # same two-band treatment: a port far above its component's
        # minimum (e.g. the single MUL port under an IMUL chain) grows
        # without bound relative to its idle siblings, but tie-breaks
        # prefer the *lower* load, so such a port keeps losing them —
        # only the pairwise differences among the heavy ports matter.
        # ``load_margin`` (smallest heavy-band lead over the light
        # band) bounds how many extra in-window dispatches a light port
        # could take before a tie-break could flip; the tracker rejects
        # replay unless the per-period µop count stays below it.
        loads = self._port_load
        norm_loads = [0] * self._n_ports
        load_margin: Optional[int] = None
        for group in self._port_groups:
            group_min = min(loads[index] for index in group)
            high_floor: Optional[int] = None
            low_ceiling = 0
            for index in group:
                norm = loads[index] - group_min
                norm_loads[index] = norm
                if norm > horizon:
                    if high_floor is None or norm < high_floor:
                        high_floor = norm
                elif norm > low_ceiling:
                    low_ceiling = norm
            if high_floor is not None:
                for index in group:
                    norm = norm_loads[index]
                    if norm > horizon:
                        norm_loads[index] = ~(norm - high_floor)
                margin = high_floor - low_ceiling
                if load_margin is None or margin < load_margin:
                    load_margin = margin
        signature = (
            self._frontend_slots,
            tuple(norm_loads),
            signature_items,
        )
        snapshot = (
            base,
            self._max_complete,
            self._issued_uops,
            tuple(self._port_load),
            (min_high + base) if min_high is not None else None,
            self._latency_accum,
            load_margin,
        )
        return signature, snapshot

    def apply_steady_delta(self, periods: int, frontier_delta: int,
                           high_delta: int, max_delta: int, uop_delta: int,
                           port_load_delta: Sequence[int]) -> None:
        """Replay ``periods`` steady-state periods in bulk.

        The deltas are per-period advances measured between two
        matching boundaries: ``frontier_delta`` shifts the frontier and
        every low entry, ``high_delta`` every high entry, ``max_delta``
        the clock.  Inert entries stay put, exactly as clean exact
        iterations would leave them.
        """
        if periods <= 0:
            return
        base = self._frontend_cycle
        horizon = STEADY_LOW_HORIZON
        low_shift = periods * frontier_delta
        high_shift = periods * high_delta
        self._frontend_cycle = base + low_shift
        self._max_complete += periods * max_delta
        self._issued_uops += periods * uop_delta
        port_free = self._port_free
        for i in range(self._n_ports):
            rel = port_free[i] - base
            if rel > horizon:
                port_free[i] += high_shift
            elif rel > 0:
                port_free[i] += low_shift
        port_load = self._port_load
        for i, delta in enumerate(port_load_delta):
            if delta:
                port_load[i] += periods * delta
        for name, value in self._resource_ready.items():
            rel = value - base
            if rel > horizon:
                self._resource_ready[name] = value + high_shift
            elif rel > 0:
                self._resource_ready[name] = value + low_shift
        for line, value in self._store_ready.items():
            rel = value - base
            if rel > horizon:
                self._store_ready[line] = value + high_shift
            elif rel > 0:
                self._store_ready[line] = value + low_shift
        rel = self._fence_until - base
        if rel > horizon:
            self._fence_until += high_shift
        elif rel > 0:
            self._fence_until += low_shift
        if self.cycle_budget is not None or self.uop_budget is not None:
            self._check_budgets()
