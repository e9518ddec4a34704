"""The analytic backend: OSACA-style table-driven estimation.

Laukemann et al.'s OSACA (and llvm-mca) show that most corpus-triage
questions — what is this instruction's latency, reciprocal throughput
and port footprint — can be answered straight from the µop tables
without simulating a single cycle.  This backend does exactly that on
top of the same :mod:`repro.uarch.timing` tables the cycle-accurate
core uses:

* **throughput bound** — the optimal fractional min–max assignment of
  the block's µops to their candidate ports (computed exactly via the
  polymatroid bound: ``max over port subsets S of demand(S) / |S|``);
* **front-end bound** — issued µops divided by the family's rename
  width;
* **dependency bound** — the steady-state growth rate of the block's
  loop-carried dependency chains (registers and flags, with load µops
  contributing the L1 latency), obtained by symbolically iterating the
  block until the per-iteration growth stabilises.

The estimated ``Core cycles`` per iteration is the maximum of the
three — the standard analytic model.  The backend cannot answer
cache/TLB/uncore events (there is no memory hierarchy to produce them),
APERF/MPERF or magic-byte pause/resume.  Requesting an unsupported
event raises :class:`~repro.errors.UnschedulableEventError` with the
missing capability named, which flows through the existing
graceful-degradation path (skip + structured warning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from ..errors import UnschedulableEventError
from ..perfctr.events import PerfEvent
from ..uarch.core import SimStats
from ..uarch.dataflow import analyze
from ..uarch.ports import PORT_LAYOUTS, PortLayout
from ..uarch.specs import MicroarchSpec, get_spec
from ..uarch.timing import TimingTable
from ..x86.instructions import Program

#: Iterations of the symbolic recurrence; the growth rate is read off
#: the second half, by which point every chain has reached steady state.
_RECURRENCE_ITERATIONS = 12


# ----------------------------------------------------------------------
# Per-instruction and per-block estimates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstructionEstimate:
    """Analytic view of one static instruction."""

    mnemonic: str
    #: Front-end issue slots (loads + compute + 2 per store; microcoded
    #: instructions use the mean of their µop range).
    issued_uops: float
    #: ``(port_class, µop_count)`` demands for the port-pressure model.
    port_demands: Tuple[Tuple[str, float], ...]
    #: Register/flag resources read and written (loop-carried chains).
    sources: FrozenSet[str]
    destinations: FrozenSet[str]
    #: Registers feeding the load µops' address generation.
    address_sources: FrozenSet[str]
    #: L1 latency charged before the compute µops when loads exist.
    load_latency: float
    #: Latency from ready inputs to the written destinations.
    compute_latency: float
    eliminated: bool = False
    breaks_dependency: bool = False
    is_fence: bool = False
    fence_latency: float = 0.0
    #: Microcoded instructions drain the pipeline behind them (the
    #: scheduler's ``serialize_after_microcode``): back-to-back copies
    #: run at ``serial_latency`` per instance, not at port throughput.
    serializes: bool = False
    serial_latency: float = 0.0
    n_loads: int = 0
    n_stores: int = 0
    is_branch: bool = False


@dataclass
class BlockEstimate:
    """Analytic result for one benchmark block (one unrolled body)."""

    instructions: int = 0
    #: Estimated steady-state cycles per iteration (the max of the
    #: three bounds below).
    cycles: float = 0.0
    dependency_cycles: float = 0.0
    port_cycles: float = 0.0
    frontend_cycles: float = 0.0
    #: Which bound dominated: ``dependencies`` / ``ports`` / ``frontend``.
    bound: str = "frontend"
    issued_uops: float = 0.0
    #: Estimated µops dispatched per port per iteration.
    port_pressure: Dict[str, float] = field(default_factory=dict)
    loads: int = 0
    stores: int = 0
    branches: int = 0


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------
def _estimate_instruction(instr, timing_table: TimingTable,
                          layout: PortLayout,
                          spec: MicroarchSpec) -> InstructionEstimate:
    timing = timing_table.lookup(instr)
    flow = analyze(instr)
    mnemonic = instr.mnemonic

    if timing.is_fence:
        return InstructionEstimate(
            mnemonic=mnemonic, issued_uops=1.0, port_demands=(),
            sources=flow.sources, destinations=flow.destinations,
            address_sources=frozenset(), load_latency=0.0,
            compute_latency=0.0, is_fence=True,
            fence_latency=float(timing.fence_latency),
        )
    if timing.eliminated:
        return InstructionEstimate(
            mnemonic=mnemonic, issued_uops=1.0, port_demands=(),
            sources=flow.sources, destinations=flow.destinations,
            address_sources=frozenset(), load_latency=0.0,
            compute_latency=0.0, eliminated=True,
            breaks_dependency=timing.breaks_dependency,
        )

    demands: Dict[str, float] = {}
    issued = 0.0
    for load in flow.loads:
        demands["LOAD"] = demands.get("LOAD", 0.0) + 1.0
        issued += 1.0
    for uop in timing.compute_uops:
        demands[uop.port_class] = demands.get(uop.port_class, 0.0) + 1.0
        issued += 1.0
    if timing.microcoded:
        low, high = timing.microcode_uops
        mean = (low + high) / 2.0
        demands["MICROCODE"] = demands.get("MICROCODE", 0.0) + mean
        issued += mean
    for store in flow.stores:
        demands["STORE_ADDR"] = demands.get("STORE_ADDR", 0.0) + 1.0
        demands["STORE_DATA"] = demands.get("STORE_DATA", 0.0) + 1.0
        issued += 2.0

    address_sources = frozenset(
        reg for load in flow.loads for reg in load.registers_read
    )
    load_latency = float(spec.l1.latency) if flow.loads else 0.0
    compute_latency = float(
        max((uop.latency for uop in timing.compute_uops), default=0)
    )
    compute_latency += timing.base_latency
    # The cycle model draws jitter uniformly from [0, jitter]; the
    # deterministic estimate uses the expectation.
    compute_latency += timing.latency_jitter / 2.0

    serial_latency = 0.0
    if timing.microcoded:
        # The microcode sequence dispatches over its candidate ports,
        # then the scheduler drains the pipeline at its completion; the
        # per-instance cost is dispatch time plus the table latencies.
        low, high = timing.microcode_uops
        n_ports = len(layout.resolve_indices("MICROCODE"))
        serial_latency = (math.ceil((low + high) / 2.0 / n_ports)
                          + compute_latency)

    return InstructionEstimate(
        mnemonic=mnemonic,
        issued_uops=issued,
        port_demands=tuple(sorted(demands.items())),
        sources=flow.sources,
        destinations=flow.destinations,
        address_sources=address_sources,
        load_latency=load_latency,
        compute_latency=compute_latency,
        breaks_dependency=timing.breaks_dependency,
        serializes=timing.microcoded,
        serial_latency=serial_latency,
        n_loads=len(flow.loads),
        n_stores=len(flow.stores),
        is_branch=mnemonic.startswith("J"),
    )


def _port_bound(demands: Dict[Tuple[int, ...], float],
                n_ports: int) -> float:
    """Exact min–max fractional load: the polymatroid bound
    ``max over subsets S of demand(S) / |S|`` (demand(S) sums groups
    whose candidate ports all lie inside S)."""
    if not demands:
        return 0.0
    relevant: List[int] = sorted({p for cands in demands for p in cands})
    best = 0.0
    for mask in range(1, 1 << len(relevant)):
        subset = {relevant[i] for i in range(len(relevant))
                  if mask & (1 << i)}
        total = sum(count for cands, count in demands.items()
                    if subset.issuperset(cands))
        if total:
            best = max(best, total / len(subset))
    return best


def _water_fill(base: Dict[int, float], demand: float) -> Dict[int, float]:
    """Distribute *demand* over the ports in *base* so the resulting
    loads are as equal as possible (fill the lowest first)."""
    ports = sorted(base, key=lambda p: base[p])
    filled = {p: 0.0 for p in ports}
    remaining = demand
    for i, port in enumerate(ports):
        if remaining <= 0:
            break
        # Raise ports[0..i] up to the level of ports[i+1] (or spend the
        # rest evenly if this is the last level).
        level = base[ports[i + 1]] if i + 1 < len(ports) else None
        active = ports[:i + 1]
        if level is None:
            extra = remaining / len(active)
            for p in active:
                filled[p] += extra
            remaining = 0.0
            break
        need = sum(max(0.0, level - (base[p] + filled[p])) for p in active)
        if need >= remaining:
            # Spread what is left evenly-by-level among the active ports.
            extra = remaining / len(active)
            for p in active:
                filled[p] += extra
            remaining = 0.0
            break
        for p in active:
            filled[p] += max(0.0, level - (base[p] + filled[p]))
        remaining -= need
    return filled


def _port_pressure(demands: Dict[Tuple[int, ...], float],
                   layout: PortLayout) -> Dict[str, float]:
    """Per-port µop loads of the min–max assignment (coordinate descent
    with exact per-group water-filling; converges on these tiny convex
    instances in a handful of sweeps)."""
    share: Dict[Tuple[int, ...], Dict[int, float]] = {}
    for cands, count in demands.items():
        share[cands] = {p: count / len(cands) for p in cands}
    for _ in range(16):
        for cands, count in demands.items():
            if len(cands) == 1:
                continue
            loads = [0.0] * len(layout.ports)
            for other, dist in share.items():
                if other is cands:
                    continue
                for p, v in dist.items():
                    loads[p] += v
            share[cands] = _water_fill(
                {p: loads[p] for p in cands}, count
            )
    pressure: Dict[str, float] = {}
    for dist in share.values():
        for p, v in dist.items():
            if v > 1e-9:
                name = layout.ports[p]
                pressure[name] = pressure.get(name, 0.0) + v
    return {name: round(v, 6) for name, v in sorted(pressure.items())}


def _dependency_cycles(estimates: List[InstructionEstimate]) -> float:
    """Steady-state growth per iteration of the loop-carried chains."""
    times: Dict[str, float] = {}
    fence_time = 0.0
    overall = 0.0
    maxima: List[float] = []
    for _ in range(_RECURRENCE_ITERATIONS):
        for e in estimates:
            if e.is_fence:
                start = max(overall, fence_time)
                fence_time = start + e.fence_latency
                overall = fence_time
                continue
            if e.serializes:
                start = max(overall, fence_time)
                complete = start + e.serial_latency
                fence_time = complete
                overall = complete
                for dest in e.destinations:
                    times[dest] = complete
                continue
            ready = fence_time
            if not e.breaks_dependency:
                for source in e.sources:
                    t = times.get(source)
                    if t is not None and t > ready:
                        ready = t
            if e.load_latency:
                load_ready = fence_time
                for source in e.address_sources:
                    t = times.get(source)
                    if t is not None and t > load_ready:
                        load_ready = t
                ready = max(ready, load_ready + e.load_latency)
            complete = ready + e.compute_latency
            for dest in e.destinations:
                times[dest] = complete
            if complete > overall:
                overall = complete
        maxima.append(overall)
    half = _RECURRENCE_ITERATIONS // 2
    span = _RECURRENCE_ITERATIONS - half
    return max(0.0, (maxima[-1] - maxima[half - 1]) / span)


def _statically_executed(program: Program) -> List:
    """The instructions on the static control-flow path of one block.

    An unconditional forward ``jmp`` to a program label always skips
    the instructions in between — they never issue, so charging their
    µops, port demand and latency overstates the block (a divergence
    class the differential fuzzer pins).  The walk follows those jumps;
    conditional and backward control flow keeps the conservative
    straight-line behavior (a static model cannot resolve flags).
    """
    executed = []
    index = 0
    count = len(program.instructions)
    while index < count:
        instr = program.instructions[index]
        executed.append(instr)
        if instr.mnemonic.lower() == "jmp" and instr.target is not None:
            target = program.labels.get(instr.target)
            if target is not None and target > index:
                index = target
                continue
        index += 1
    return executed


def estimate_program(program: Program, timing_table: TimingTable,
                     layout: PortLayout,
                     spec: MicroarchSpec) -> BlockEstimate:
    """Estimate one benchmark block executed back-to-back forever."""
    estimates = [
        _estimate_instruction(instr, timing_table, layout, spec)
        for instr in _statically_executed(program)
    ]
    estimate = BlockEstimate(instructions=len(estimates))
    if not estimates:
        return estimate

    demands: Dict[Tuple[int, ...], float] = {}
    serial = 0.0
    for e in estimates:
        estimate.issued_uops += e.issued_uops
        estimate.loads += e.n_loads
        estimate.stores += e.n_stores
        estimate.branches += 1 if e.is_branch else 0
        if e.is_fence:
            serial += e.fence_latency
        for port_class, count in e.port_demands:
            cands = layout.resolve_indices(port_class)
            demands[cands] = demands.get(cands, 0.0) + count

    estimate.port_cycles = _port_bound(demands, len(layout.ports))
    estimate.frontend_cycles = estimate.issued_uops / layout.frontend_width
    estimate.dependency_cycles = _dependency_cycles(estimates)
    estimate.port_pressure = _port_pressure(demands, layout)

    bounds = (
        ("dependencies", estimate.dependency_cycles),
        ("ports", estimate.port_cycles),
        ("frontend", estimate.frontend_cycles),
    )
    estimate.bound, estimate.cycles = max(bounds, key=lambda b: b[1])
    # Fences serialize the whole window; the recurrence already folds
    # their latency into the dependency bound, so no extra term here.
    return estimate


# ----------------------------------------------------------------------
# Event mapping
# ----------------------------------------------------------------------
def event_value(estimate: BlockEstimate, event: PerfEvent,
                *, backend_name: str = "analytic") -> float:
    """Per-iteration value of *event*, or raise
    :class:`UnschedulableEventError` naming the missing capability."""
    metric = event.metric
    if event.uncore:
        raise UnschedulableEventError(
            "uncore event %r requires the 'uncore' capability, which "
            "backend %r does not provide (no simulated L3 slices)"
            % (event.name, backend_name)
        )
    if metric == "uops_issued":
        return estimate.issued_uops
    if metric == "branches":
        return float(estimate.branches)
    if metric == "branch_mispredicts":
        # A steady-state unrolled loop is perfectly predicted.
        return 0.0
    if metric == "mem_loads":
        return float(estimate.loads)
    if metric == "mem_stores":
        return float(estimate.stores)
    if metric.startswith("uops_port_"):
        port = metric[len("uops_port_"):]
        return estimate.port_pressure.get(port, 0.0)
    raise UnschedulableEventError(
        "event %r requires the 'cache_events' capability, which backend "
        "%r does not provide (no per-cycle memory hierarchy)"
        % (event.name, backend_name)
    )


# ----------------------------------------------------------------------
# The target
# ----------------------------------------------------------------------
class _StubAddressSpace:
    """Accepts the facade's scratch-area mappings (physical == virtual)."""

    def map_user(self, base: int, size: int) -> None:
        pass

    def map_kernel_contiguous(self, base: int, size: int) -> int:
        return base

    def unmap(self, base: int, size: int) -> None:
        pass


class _StubPMU:
    """Counter bookkeeping without counters."""

    def __init__(self, n_programmable: int) -> None:
        self.n_programmable = n_programmable
        self.user_rdpmc_enabled = False


class AnalyticTarget:
    """The ``analytic`` backend's machine: it never executes code.

    It carries what :class:`NanoBench` touches outside the measurement
    loop (construction, pre-flight, event resolution, buffer sizing);
    measurements are answered by :meth:`estimate`.
    """

    def __init__(self, spec_or_name="Skylake", seed: int = 0) -> None:
        spec = (get_spec(spec_or_name) if isinstance(spec_or_name, str)
                else spec_or_name)
        self.spec = spec
        self.seed = seed
        self.layout = PORT_LAYOUTS[spec.family]
        self.timing_table = TimingTable(
            spec.family, move_elimination=spec.move_elimination
        )
        self.timing_enabled = True
        self.pmu = _StubPMU(spec.n_programmable_counters)
        self.address_space = _StubAddressSpace()
        self.sim_stats = SimStats()
        self._cycle = 0

    def estimate(self, program: Program) -> BlockEstimate:
        """The block estimate for *program*."""
        return estimate_program(
            program, self.timing_table, self.layout, self.spec
        )

    def advance(self, cycles: float) -> None:
        """Account estimated cycles on the target's clock."""
        self._cycle += int(round(cycles))

    @property
    def current_cycle(self) -> int:
        return self._cycle
