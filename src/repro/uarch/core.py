"""The simulated CPU core.

:class:`SimulatedCore` couples the functional x86 semantics, the
out-of-order timing scheduler, the cache hierarchy, the PMU and the
privilege model into one executable machine.  nanoBench's generated code
(Algorithm 1) runs on this class; every counter the tool reports is
produced here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import (Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..errors import MemoryError_, RunawayBenchmarkError, TimingModelError
from ..memory.cache import Cache, CacheGeometry
from ..memory.hierarchy import MemoryHierarchy
from ..memory.paging import AddressSpace, MainMemory, PhysicalMemory
from ..memory.replacement import AdaptivePolicy, make_policy
from ..memory.slices import intel_slice_hash
from ..memory.tlb import TlbGeometry, TlbHierarchy
from ..perfctr.counters import (
    MSR_MISC_FEATURE_CONTROL,
    MetricStore,
    PerformanceMonitoringUnit,
)
from ..stats import Counters
from ..x86 import semantics
from ..x86.instructions import Instruction, Program
from ..x86.registers import RegisterFile
from .dataflow import Dataflow, analyze
from .interference import InterferenceModel
from .ports import PORT_LAYOUTS
from .scheduler import MemoryAccessPlan, STEADY_LOW_HORIZON, Scheduler
from .specs import CacheLevelSpec, MicroarchSpec, get_spec
from .timing import TimingTable

#: Cap on dynamically executed instructions per program (runaway guard).
DEFAULT_MAX_INSTRUCTIONS = 20_000_000

#: Mnemonics whose *functional* execution must never be skipped by the
#: steady-state fast path, on top of the structural conditions (memory
#: plans, fences, microcode, branches, jitter): DIV/IDIV can raise #DE
#: depending on evolving register values, and the cache-control
#: instructions mutate simulator state outside the scheduler.
_FAST_PATH_UNSAFE_MNEMONICS = frozenset({
    "DIV", "IDIV", "CLFLUSH", "CLFLUSHOPT", "WBINVD", "INVD", "RDRAND",
})


#: Instructions that read or write counter state: the scheduler-derived
#: counter metrics are published just before they execute.
_COUNTER_ACCESS = frozenset({"RDPMC", "RDMSR", "WRMSR", "RDTSC", "RDTSCP"})

#: Metrics set from the clock (:meth:`SimulatedCore._set_clock_metrics`);
#: every other metric only ever has integers added to it.
_CLOCK_METRICS = frozenset({"core_cycles", "ref_cycles", "aperf", "mperf"})

#: Metric values up to this are integers a float holds exactly, so a
#: replay that adds a run's delta in one step lands where the run's
#: individual increments do.
_EXACT_FLOAT_INTS = 1 << 53

#: Mnemonics with functional semantics (a clean body needs one each).
_EXECUTABLE = frozenset(semantics.supported_mnemonics())

#: Bound on the process-wide decode memo and on its id front, in
#: distinct instruction values (objects); each is emptied when full.
DECODE_MEMO_LIMIT = 1 << 13


class Decoded(NamedTuple):
    """Everything about one instruction that its value decides.

    ``execute`` is the bound executor (:func:`semantics.bind`); each
    memory operand the instruction loads or stores becomes an
    ``(address, registers_read)`` pair of its plan, where ``address``
    is the effective-address closure.  ``timings`` maps a timing
    table's ``(family, move_elimination)`` to ``(timing,
    fast_path_unsafe)``; it is filled by successful lookups only, so a
    :class:`TimingModelError` is raised again at every use.
    """

    flow: Dataflow
    timings: Dict[tuple, tuple]
    execute: Callable
    is_branch: bool
    loads: Tuple[Tuple[Callable, Tuple[str, ...]], ...]
    stores: Tuple[Tuple[Callable, Tuple[str, ...]], ...]


def _memory_plan(operands) -> tuple:
    return tuple((semantics.bind_address(mem), mem.registers_read)
                 for mem in operands)


#: Process-wide decode memo, keyed by the instruction's value (its
#: mnemonic, operands and target), so every core and every newly
#: generated program shares one decode of each distinct instruction.
_DECODE_MEMO: Dict[Instruction, Decoded] = {}

#: Its id front: ``id(instr) -> (instr, record)``.  The measurement
#: blocks and the cached programs hand every new core the same
#: instruction objects, and an id lookup skips hashing the value.  An
#: entry holds a strong reference, keeping the id stable.  The front is
#: emptied with the memo, and served only while the memo is not empty,
#: so it never serves a record the memo has dropped.
_DECODE_IDS: Dict[int, Tuple[Instruction, Decoded]] = {}


def _decoded(instr: Instruction) -> Decoded:
    """The decode record of *instr* (built on a memo miss)."""
    hit = _DECODE_IDS.get(id(instr))
    if hit is not None and hit[0] is instr and _DECODE_MEMO:
        return hit[1]
    record = _DECODE_MEMO.get(instr)
    if record is None:
        if len(_DECODE_MEMO) >= DECODE_MEMO_LIMIT:
            _DECODE_MEMO.clear()
        if not _DECODE_MEMO:
            _DECODE_IDS.clear()
        flow = analyze(instr)
        record = _DECODE_MEMO[instr] = Decoded(
            flow, {}, semantics.bind(instr), instr.spec.is_branch,
            _memory_plan(flow.loads), _memory_plan(flow.stores),
        )
    if len(_DECODE_IDS) >= DECODE_MEMO_LIMIT:
        _DECODE_IDS.clear()
    _DECODE_IDS[id(instr)] = (instr, record)
    return record


def decode_flow(instr: Instruction) -> Dataflow:
    """The dataflow of *instr*, read through the process-wide memo."""
    return _decoded(instr).flow


def _fast_path_default() -> bool:
    """Process-wide fast-path default (``NANOBENCH_FAST_PATH=0`` kills
    it, e.g. for differential testing across batch worker processes)."""
    return os.environ.get("NANOBENCH_FAST_PATH", "1").lower() not in (
        "0", "false", "off", "no",
    )


@dataclass
class SimStats(Counters):
    """Cumulative simulator-throughput counters for one core.

    ``instructions`` counts every dynamic instruction simulated
    (including fast-forwarded ones and those of replayed runs); the
    ``fast_path_*`` fields break out how much of that work the
    steady-state replay absorbed, and ``fallbacks`` counts abandoned
    steady-state candidates (divergence, fences, interrupts,
    signature-table overflow).
    """

    instructions: int = 0
    fast_path_instructions: int = 0
    fast_path_iterations: int = 0
    fast_path_replays: int = 0
    fallbacks: int = 0
    #: Whole program runs redone from a record instead of simulated
    #: (:meth:`SimulatedCore.replay_run`); the other fields advance by
    #: the recorded run's deltas, as if it had been simulated.
    replayed_runs: int = 0


def _build_cache(name: str, level: CacheLevelSpec, rng: random.Random) -> Cache:
    geometry = CacheGeometry(
        size_bytes=level.size_bytes,
        associativity=level.associativity,
        n_slices=level.n_slices,
    )
    if level.dueling is not None:
        policy = AdaptivePolicy(level.associativity, level.dueling, rng=rng)
    else:
        policy = make_policy(level.policy, level.associativity, rng=rng)
    slice_hash = (
        intel_slice_hash(level.n_slices) if level.n_slices > 1 else None
    )
    return Cache(name, geometry, policy, slice_hash)


class SimulatedCore:
    """One logical core of a simulated x86 CPU.

    Implements the :class:`~repro.x86.semantics.ExecutionContext`
    protocol, so the functional executors can run directly against it.
    """

    def __init__(self, spec_or_name, seed: int = 0) -> None:
        spec = (
            get_spec(spec_or_name)
            if isinstance(spec_or_name, str) else spec_or_name
        )
        self.spec: MicroarchSpec = spec
        self.rng = random.Random(seed)
        self.layout = PORT_LAYOUTS[spec.family]
        self.timing_table = TimingTable(
            spec.family, move_elimination=spec.move_elimination
        )
        self.scheduler = Scheduler(self.layout, rng=random.Random(seed + 1))
        self.regs = RegisterFile()
        # --- memory system
        self.physical = PhysicalMemory(rng=random.Random(seed + 2))
        self.main_memory = MainMemory()
        self.address_space = AddressSpace(
            self.physical, rng=random.Random(seed + 3)
        )
        cache_rng = random.Random(seed + 4)
        l3 = _build_cache("L3", spec.l3, cache_rng) if spec.l3 else None
        self.hierarchy = MemoryHierarchy(
            _build_cache("L1D", spec.l1, cache_rng),
            _build_cache("L2", spec.l2, cache_rng),
            l3,
            l1_latency=spec.l1.latency,
            l2_latency=spec.l2.latency,
            l3_latency=spec.l3.latency if spec.l3 else 42,
            memory_latency=spec.memory_latency,
        )
        self.tlb = TlbHierarchy(
            TlbGeometry(spec.dtlb_entries, spec.dtlb_associativity),
            TlbGeometry(spec.stlb_entries, spec.stlb_associativity),
            stlb_hit_penalty=spec.stlb_hit_penalty,
            walk_penalty=spec.tlb_walk_penalty,
            rng=random.Random(seed + 6),
        )
        # --- counters
        self.metrics = MetricStore()
        #: Scheduler totals already folded into ``metrics`` (see
        #: :meth:`_publish`), and the metric name of each port.
        self._published_uops = 0
        self._published_port_load = [0] * len(self.layout.ports)
        self._port_metric_names = tuple(
            "uops_port_%s" % port for port in self.layout.ports
        )
        #: Memory metric names: ``(misses, walks, stlb_hits)`` per
        #: ``is_store`` and ``(lookups, misses)`` per L3 slice.
        self._tlb_metric_names = tuple(
            tuple("%s_%s" % (prefix, what)
                  for what in ("misses", "walks", "stlb_hits"))
            for prefix in ("dtlb_load", "dtlb_store")
        )
        self._cbox_metric_names = tuple(
            ("cbox%d_lookups" % i, "cbox%d_misses" % i)
            for i in range(l3.geometry.n_slices if l3 is not None else 0)
        )
        self._line_size = self.hierarchy.l1.geometry.line_size
        self.pmu = PerformanceMonitoringUnit(
            self.metrics,
            n_programmable=spec.n_programmable_counters,
            n_cboxes=spec.n_cboxes,
        )
        # --- interference & privilege
        self.interference = InterferenceModel(rng=random.Random(seed + 5))
        self._kernel_mode = False
        self._interrupts_enabled = True
        self._cycle_base = 0
        self._msrs: Dict[int, int] = {}
        # Frequency-transition state (chaos plane / P-state modelling):
        # MPERF accumulates at the reference-clock ratio scaled by
        # ``_mperf_scale``; transitions re-base so MPERF stays monotone.
        self._mperf_scale = 1.0
        self._mperf_base = 0.0
        self._mperf_base_cycle = 0
        #: When False, the per-µop scheduler is skipped (cycle and port
        #: counters stop advancing) while the functional semantics,
        #: cache hierarchy, TLB and cache/instruction event counters
        #: remain exact.  For event-counting runs of generated code: the
        #: TLB sweep and cacheSeq's ``nanobench`` engine (whose tests
        #: check both modes agree on hit counts).  cacheSeq's ``direct``
        #: engine never runs code on the core, so it does not read this.
        self.timing_enabled = True
        #: Hyperthreading: when enabled, a simulated SMT sibling thread
        #: competes for execution ports and cache space, perturbing
        #: measurements.  Section IV-A2: "for obtaining unperturbed
        #: measurement results, we recommend disabling hyperthreading"
        #: — the repository's stand-in for the paper's helper scripts.
        self.smt_enabled = False
        self._smt_rng = random.Random(seed + 7)
        #: Steady-state fast path (see :class:`_UnrollFastPath`).  An
        #: attribute rather than an option so toggling it cannot change
        #: any spec digest — it is result-invariant by construction.
        self.fast_path_enabled = _fast_path_default()
        #: Simulator-throughput observability counters.
        self.sim_stats = SimStats()
        #: This core's decode entries: ``id(instr) -> [instr, record,
        #: timing|None, fast_path_unsafe]``, with the process-wide
        #: :class:`Decoded` record and this core's timing of it.
        #: Unrolled programs repeat the *same* ``Instruction`` objects
        #: thousands of times.  The entry holds a strong reference,
        #: keeping the id stable.
        self._decode_cache: Dict[int, list] = {}
        #: The run being logged for :meth:`replay_run`, if any.
        self._run_log: Optional[_RunLog] = None

    # ==================================================================
    # Memory mapping helpers (used by nanoBench and the tools)
    # ==================================================================
    def map_user_region(self, virtual_address: int, size: int) -> None:
        """Map a user buffer (scattered physical pages)."""
        self.address_space.map_user(virtual_address, size)

    def virt_to_phys(self, virtual_address: int) -> int:
        return self.address_space.translate(virtual_address)

    # ==================================================================
    # ExecutionContext protocol (functional semantics)
    # ==================================================================
    def read_memory(self, address: int, size: int) -> int:
        return self.main_memory.read(self.address_space.translate(address), size)

    def write_memory(self, address: int, size: int, value: int) -> None:
        self.main_memory.write(self.address_space.translate(address), size, value)

    def is_kernel_mode(self) -> bool:
        return self._kernel_mode

    def rdpmc(self, index: int) -> int:
        if self._run_log is not None:
            self._run_log.note_read(self, "RDPMC", index)
        return self.pmu.rdpmc(index, kernel_mode=self._kernel_mode)

    def rdmsr(self, index: int) -> int:
        if self._run_log is not None:
            self._run_log.note_read(self, "RDMSR", index)
        value = self.pmu.read_msr(index)
        if value is not None:
            return value
        return self._msrs.get(index, 0)

    def wrmsr(self, index: int, value: int) -> None:
        self._msrs[index] = value
        if index == MSR_MISC_FEATURE_CONTROL:
            if self.spec.prefetcher_can_disable:
                # Bits 0-3 disable the four prefetchers (Intel).
                self.hierarchy.prefetcher_enabled = not (value & 0xF)
            # On AMD parts there is no documented disable bit; the write
            # is accepted but has no effect (Section VI-D).

    def rdtsc(self) -> int:
        if self._run_log is not None:
            self._run_log.replayable = False  # a replay reads no clock
        return int(self._cycle_base + self.scheduler.now)

    def cpuid(self, eax: int, ecx: int) -> Tuple[int, int, int, int]:
        if eax == 0:
            if self.spec.vendor == "Intel":
                # "GenuineIntel" in EBX/EDX/ECX.
                return 0x16, 0x756E6547, 0x6C65746E, 0x49656E69
            return 0x0D, 0x68747541, 0x444D4163, 0x69746E65
        if eax == 1:
            model = 0x50650 + self.spec.generation
            return model, 0, 0, 0
        return 0, 0, 0, 0

    def wbinvd(self) -> None:
        self.hierarchy.wbinvd()

    def clflush(self, address: int) -> None:
        try:
            physical = self.address_space.translate(address)
        except MemoryError_:
            return  # CLFLUSH of an unmapped address is a no-op
        self.hierarchy.clflush(physical)

    def prefetch(self, address: int, level: int) -> None:
        try:
            physical = self.address_space.translate(address)
        except MemoryError_:
            return
        self.hierarchy.prefetch_into(physical)

    # ==================================================================
    # Interrupt control (kernel-space nanoBench uses CLI/STI)
    # ==================================================================
    def disable_interrupts(self) -> None:
        self._interrupts_enabled = False
        self.interference.disable()

    def enable_interrupts(self) -> None:
        self._interrupts_enabled = True
        self.interference.enable()

    # ==================================================================
    # Execution
    # ==================================================================
    def _plan_memory_accesses(
        self, record: Decoded
    ) -> Tuple[List[MemoryAccessPlan], List[MemoryAccessPlan]]:
        """Resolve the instruction's memory operands to timed accesses."""
        access = self._access
        return ([access(address, registers, False)
                 for address, registers in record.loads],
                [access(address, registers, True)
                 for address, registers in record.stores])

    def _access(self, address, registers: Tuple[str, ...],
                is_store: bool) -> MemoryAccessPlan:
        """One planned access through the TLB and the cache hierarchy."""
        virtual = address(self)
        physical = self.address_space.translate(virtual)
        tlb = self.tlb.access(virtual)
        self._record_tlb_metrics(tlb, is_store=is_store)
        result = self.hierarchy.access(physical, is_write=is_store)
        self._record_memory_metrics(result, is_store=is_store)
        return MemoryAccessPlan(
            line_address=physical - physical % self._line_size,
            latency=result.latency + tlb.penalty,
            address_registers=registers,
            is_store=is_store,
        )

    def _record_tlb_metrics(self, result, *, is_store: bool) -> None:
        if result.dtlb_hit:
            return
        misses, walks, stlb_hits = self._tlb_metric_names[is_store]
        self.metrics.add(misses)
        if result.caused_walk:
            self.metrics.add(walks)
        else:
            self.metrics.add(stlb_hits)

    def _record_memory_metrics(self, result, *, is_store: bool) -> None:
        metrics = self.metrics
        metrics.add("mem_stores" if is_store else "mem_loads")
        if not is_store:
            if result.level == 1:
                metrics.add("l1_hit")
            else:
                metrics.add("l1_miss")
                if result.level == 2:
                    metrics.add("l2_hit")
                else:
                    metrics.add("l2_miss")
                    if result.level == 3:
                        metrics.add("l3_hit")
                    elif result.level == 4:
                        metrics.add("l3_miss")
        if result.l3_slice is not None:
            lookups, misses = self._cbox_metric_names[result.l3_slice]
            metrics.add(lookups)
            if result.level == 4:
                metrics.add(misses)

    def _publish(self, retired: int = 0) -> None:
        """Bring the scheduler-derived counter metrics up to date.

        Folds in *retired* instructions and the scheduler's issued-µop
        and per-port totals since the last publish, then sets the clock
        metrics.  Counters are observed only where this runs: before a
        counter-accessing instruction executes, at PAUSE/RESUME_COUNTING,
        at an interference event, before a timing epoch ends and when a
        run ends, so the per-instruction updates it replaces were never
        visible.
        """
        metrics = self.metrics
        scheduler = self.scheduler
        if retired:
            metrics.add("instructions_retired", retired)
        issued = scheduler._issued_uops
        if issued != self._published_uops:
            metrics.add("uops_issued", issued - self._published_uops)
            self._published_uops = issued
        published = self._published_port_load
        for i, load in enumerate(scheduler._port_load):
            if load != published[i]:
                metrics.add(self._port_metric_names[i], load - published[i])
                published[i] = load
        self._set_clock_metrics(self._cycle_base + scheduler.now)

    def _set_clock_metrics(self, now: int) -> None:
        """The clock-derived metrics at absolute core cycle *now*."""
        metrics = self.metrics
        ratio = self.spec.reference_clock_ratio
        metrics.set("core_cycles", float(now))
        metrics.set("ref_cycles", now * ratio)
        metrics.set("aperf", float(now))
        metrics.set("mperf", self._mperf_base + (
            (now - self._mperf_base_cycle) * ratio * self._mperf_scale
        ))

    # ==================================================================
    # Frequency transitions (P-state changes perturbing APERF/MPERF)
    # ==================================================================
    def _rebase_mperf(self) -> None:
        now = self._cycle_base + self.scheduler.now
        self._mperf_base += (
            (now - self._mperf_base_cycle)
            * self.spec.reference_clock_ratio * self._mperf_scale
        )
        self._mperf_base_cycle = now

    def begin_frequency_transition(self, scale: float) -> None:
        """Shift the core/reference clock ratio by *scale* from now on.

        Models a P-state change hitting mid-measurement: the per-run
        APERF/MPERF ratio deviates from the spec's reference ratio,
        which the self-healing measurement loop detects and re-runs.
        MPERF stays monotone across transitions.
        """
        self._rebase_mperf()
        self._mperf_scale = scale

    def end_frequency_transition(self) -> None:
        """Return to the nominal clock ratio (monotone re-base)."""
        self._rebase_mperf()
        self._mperf_scale = 1.0

    def _apply_interrupts(self) -> bool:
        """Poll and apply pending interference; True if anything fired."""
        if not self._interrupts_enabled:
            return False
        fired = False
        for event in self.interference.poll(self.current_cycle):
            self._apply_interference_event(event)
            fired = True
        return fired

    def _apply_interference_event(self, event) -> None:
        self.metrics.add("instructions_retired", event.instructions)
        self.metrics.add("uops_issued", event.uops)
        self.metrics.add("branches", event.branches)
        self.metrics.add(
            "branch_mispredicts", max(1, event.branches // 50)
        )
        self.scheduler.external_delay(event.cycles)
        # Cache pollution: the handler touches kernel lines.
        for _ in range(event.cache_lines_touched):
            physical = self.rng.randrange(0, 1 << 24) & ~0x3F
            self.hierarchy.access(physical, is_prefetch=True)
        self._publish()

    def inject_interference(self, event) -> None:
        """Apply an externally generated interference event (runner use)."""
        self._apply_interference_event(event)

    # ==================================================================
    # SMT sibling contention (Section IV-A2)
    # ==================================================================
    def enable_smt(self) -> None:
        self.smt_enabled = True

    def _apply_smt_contention(self) -> None:
        """Per-instruction perturbation by the sibling hardware thread.

        The sibling steals issue/execution slots (an occasional extra
        cycle) and cache space (an occasional line of pollution).
        """
        if self._smt_rng.random() < 0.15:
            self.scheduler.external_delay(1)
        if self._smt_rng.random() < 0.02:
            physical = self._smt_rng.randrange(0, 1 << 22) & ~0x3F
            self.hierarchy.access(physical, is_prefetch=True)

    # ------------------------------------------------------------------
    def _decode(self, instr: Instruction) -> list:
        """Decode-cache entry for *instr* (record now, timing lazily)."""
        cache = self._decode_cache
        if len(cache) >= (1 << 16):
            cache.clear()
        record = _decoded(instr)
        table = self.timing_table
        timing, unsafe = record.timings.get(
            (table.family, table.move_elimination), (None, True)
        )
        entry = [instr, record, timing, unsafe]
        cache[id(instr)] = entry
        return entry

    def _decode_timing(self, instr: Instruction, entry: list):
        """Fill the timing half of a decode entry (first timed use)."""
        table = self.timing_table
        timing = table.lookup(instr)
        record = entry[1]
        spec = instr.spec
        unsafe = bool(
            record.loads or record.stores
            or timing.is_fence or timing.microcoded or timing.latency_jitter
            or spec.is_branch or spec.privileged or spec.serializing
            or spec.pseudo
            or instr.mnemonic in _FAST_PATH_UNSAFE_MNEMONICS
        )
        entry[2] = timing
        entry[3] = unsafe
        record.timings[(table.family, table.move_elimination)] = (
            timing, unsafe
        )
        return timing

    def run_program(
        self,
        program: Program,
        *,
        kernel_mode: bool = False,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        unroll_region: Optional[Tuple[int, int, int]] = None,
    ) -> int:
        """Execute *program* to completion; returns instructions retired.

        ``unroll_region`` (from :class:`~repro.core.codegen
        .GeneratedCode`) marks the unrolled benchmark body; when the
        fast path is enabled, the core detects a periodic steady state
        across its iteration boundaries and bulk-replays the recorded
        deltas instead of re-running the per-µop dispatch loop.  Replay
        is byte-identical to exact execution by construction — any
        fence, memory plan, microcode, branch, interrupt or state
        divergence falls back to exact scheduling.  In a *clean* body
        (see :class:`_UnrollFastPath`) the functional semantics of every
        iteration after the first are skipped as well, exactly scheduled
        ones included: no counter value, address, branch or fault depends
        on a value they compute, and memory differs only in the spill
        slots of the second counter read.

        Counter metrics are published (:meth:`_publish`) where they can
        be read, and when the run ends — by an exception too, so a
        watchdog trip keeps its partial counts and :class:`SimStats`.
        """
        self._kernel_mode = kernel_mode
        executed = 0
        published = 0  # instructions of ``executed`` already published
        pc = 0
        instructions = program.instructions
        decode_cache = self._decode_cache
        timed = self.timing_enabled
        scheduler = self.scheduler
        metrics = self.metrics
        fast = None
        # Program counters whose functional semantics are skipped.
        skip_from = skip_to = 0
        if (
            unroll_region is not None
            and self.fast_path_enabled
            and timed
            and not self.smt_enabled
        ):
            fast = _UnrollFastPath(self, unroll_region, max_instructions)
            if fast.is_clean(instructions):
                skip_from, skip_to = fast.start + fast.body_len, fast.end
        try:
            while pc < len(instructions):
                if fast is not None and pc == fast.next_boundary:
                    skipped = fast.on_boundary(pc, executed)
                    if skipped:
                        executed += skipped
                        pc += skipped
                        continue
                instr = instructions[pc]
                mnemonic = instr.mnemonic
                # nanoBench magic sequences toggle counting directly when
                # they reach the core unreplaced.
                if (mnemonic == "PAUSE_COUNTING"
                        or mnemonic == "RESUME_COUNTING"):
                    self._publish(executed - published)
                    published = executed
                    if mnemonic == "PAUSE_COUNTING":
                        self.pmu.pause_counting()
                    else:
                        self.pmu.resume_counting()
                    if fast is not None:
                        fast.dirty = True
                    pc += 1
                    continue

                entry = decode_cache.get(id(instr))
                if entry is None or entry[0] is not instr:
                    entry = self._decode(instr)
                record = entry[1]
                is_branch = record.is_branch
                if timed:
                    timing = entry[2]
                    if timing is None:
                        timing = self._decode_timing(instr, entry)
                    if record.loads or record.stores:
                        loads, stores = self._plan_memory_accesses(record)
                    else:
                        loads = stores = ()

                    branch_taken: Optional[bool] = None
                    branch_site = None
                    if is_branch:
                        branch_site = pc
                        if mnemonic == "JMP":
                            branch_taken = True
                        else:
                            branch_taken = semantics.condition_holds(
                                self.regs, mnemonic[1:]
                            )

                    flow = record.flow
                    scheduled = scheduler.schedule(
                        timing,
                        sources=flow.sources,
                        destinations=flow.destinations,
                        loads=loads,
                        stores=stores,
                        branch_site=branch_site,
                        branch_taken=branch_taken,
                    )
                    executed += 1
                    if fast is not None and entry[3]:
                        fast.dirty = True
                    if is_branch:
                        metrics.add("branches")
                        if scheduled.mispredicted:
                            metrics.add("branch_mispredicts")
                    if timing.microcoded:
                        # Microcoded instructions drain before later µops
                        # dispatch (RDMSR, CPUID, WBINVD are effectively
                        # pipeline barriers on real hardware).
                        scheduler.serialize_after_microcode(
                            scheduled.complete_cycle
                        )
                    if self.smt_enabled:
                        self._apply_smt_contention()
                    if self._apply_interrupts() and fast is not None:
                        fast.dirty = True
                else:
                    # Fast functional mode: exact cache behaviour and event
                    # counts, no cycle accounting.
                    if record.loads or record.stores:
                        self._plan_memory_accesses(record)
                    executed += 1
                    if is_branch:
                        metrics.add("branches")

                # --- functional execution
                if skip_from <= pc < skip_to:
                    target = None
                else:
                    if entry[3] and mnemonic in _COUNTER_ACCESS:
                        self._publish(executed - published)
                        published = executed
                    target = record.execute(self)
                if executed > max_instructions:
                    # Structured watchdog trip (a RunawayBenchmarkError is an
                    # ExecutionError, preserving the historical contract).
                    raise RunawayBenchmarkError(
                        "instruction budget exceeded (%d)"
                        % (max_instructions,),
                        budget="instructions", limit=max_instructions,
                        progress={
                            "instructions_executed": executed,
                            "cycles": scheduler.now,
                            "uops_issued": scheduler.issued_uops,
                            "pc": pc,
                        },
                    )
                if target is not None:
                    pc = program.labels[target]
                else:
                    pc += 1
        finally:
            self._publish(executed - published)
            stats = self.sim_stats
            stats.instructions += executed
            if fast is not None:
                stats.fast_path_instructions += fast.replayed_instructions
                stats.fast_path_iterations += fast.replayed_iterations
                stats.fast_path_replays += fast.replays
                stats.fallbacks += fast.fallbacks
        return executed

    # ------------------------------------------------------------------
    def reset_timing(self) -> None:
        """Start a fresh timing epoch (new benchmark process).

        The cycle counters stay monotone across epochs.
        """
        self._publish()
        self._cycle_base += self.scheduler.now
        self.scheduler.reset()
        self._published_uops = 0
        self._published_port_load = [0] * len(self._port_metric_names)

    @property
    def current_cycle(self) -> int:
        return self._cycle_base + self.scheduler.now

    # ==================================================================
    # Run-level fixed point: log one program run, replay its repeats.
    #
    # nanoBench runs the same generated code many times (Algorithm 2).
    # Once a run leaves the machine state as it found it, every later
    # run of the series repeats it, and :meth:`replay_run` redoes its
    # effects from a :class:`RunRecord` instead of simulating it.  This
    # is the memoization of FastSim (Schnarr & Larus, ASPLOS 1998) at
    # the granularity of one run.
    #
    # Soundness: a run is a function of what it reads.  That is
    #
    # * the state :meth:`state_fingerprint` covers: registers, the
    #   scheduler (which every run starts reset, predictor included),
    #   cache and TLB sets with the policies' shared state (PSEL, the
    #   stream of a random policy), the prefetcher and the MSRs;
    # * memory, which the run's write log covers instead: the run left
    #   every page it wrote as it found it, except in the *watched*
    #   ranges (the caller's counter result slots), which it never read;
    # * random draws: :meth:`end_run_log` keeps no record of a run that
    #   drew from a range of more than one value (CPUID, latency
    #   jitter); a one-value draw is re-issued, so the stream position
    #   stays exact;
    # * interrupts and the SMT sibling, which draw from streams of their
    #   own: no record unless both are off for the whole run;
    # * counter and clock values.  A replay re-evaluates the counter
    #   reads; the caller must guarantee that no value they return
    #   reaches anything but the watched ranges, or check that what
    #   else it reaches is the same as in the logged run (nanoBench
    #   checks its generated code for this, and the flags a read leaves
    #   through ``accept``), and a run that reads the clock (RDTSC)
    #   keeps no record;
    # * the PMU's programming, which a run reads only through counter
    #   reads, so a replay re-evaluating them under another programming
    #   is the run under that programming: one record serves every
    #   counter group that runs the same code.
    #
    # So if the fingerprint at the start of a run equals the one at the
    # start of a logged run, the run executes the same instructions with
    # the same timing, leaves the same fingerprint, and adds the same
    # amount to every cumulative counter at the same points.  Additive
    # metrics hold integers below 2**53, which floats add exactly, so a
    # metric at a read point is its value at the replay's start plus the
    # logged offset; the clock metrics are recomputed from the absolute
    # clock (Reference cycles alternate with its phase).  Raw LRU/FIFO
    # stamps are not advanced: decisions read them only as an order,
    # which is what the fingerprint compares.  The cycle, µop and
    # instruction budgets restart with each run, so a replayed run would
    # trip one exactly when the logged run did, and that run raised
    # instead of leaving a record; the cache and TLB step budgets span
    # runs, so a run under one keeps no record.
    # ==================================================================
    def state_fingerprint(self) -> tuple:
        """Canonical fingerprint of the machine state a run reads.

        Memory is left to the run's write log; cumulative counters are
        left out, since a run reads them only through counter reads.
        """
        return (
            self.regs.fingerprint(),
            self.scheduler.fingerprint(),
            self.hierarchy.fingerprint(),
            self.tlb.fingerprint(),
            tuple(sorted(self._msrs.items())),
            self.timing_enabled,
        )

    def begin_run_log(self, watched: Sequence[Tuple[int, int]] = ()) -> None:
        """Log what follows, up to :meth:`end_run_log`, as one run.

        *watched* are physical byte ranges ``[lo, hi)`` whose contents
        may differ between runs: the counter result slots, which the
        caller writes itself after a replay.
        """
        self._run_log = _RunLog(self)
        self.scheduler.draws = []
        self.main_memory.begin_log(watched)

    def end_run_log(self) -> Optional["RunRecord"]:
        """Stop logging; the run's :class:`RunRecord`, or ``None`` if
        it cannot be replayed (see the soundness comment above)."""
        log, self._run_log = self._run_log, None
        draws, self.scheduler.draws = self.scheduler.draws, None
        memory = self.main_memory.end_log()
        if (
            not log.replayable
            or memory.changed
            or memory.watched_reads
            or any(low != high for low, high in draws)
        ):
            return None
        start, end = log.metrics, self.metrics.snapshot()
        if not (_exact_ints(start) and _exact_ints(end)):
            return None
        hierarchy = self.hierarchy
        return RunRecord(
            draws=tuple(draws),
            start_metrics=start,
            metric_deltas={
                name: value - start.get(name, 0.0)
                for name, value in end.items()
                if name not in _CLOCK_METRICS
            },
            reads=tuple(log.reads),
            counts=tuple(after - before for after, before
                         in zip(self._cumulative(), log.counts)),
            sim_stats=self.sim_stats.delta(log.sim_stats),
            demand=hierarchy.demand.delta(log.demand),
            watched_writes=memory.watched_writes,
        )

    def replay_run(
        self, record: "RunRecord", accept: Callable[[List[int]], bool],
    ) -> Optional[List[int]]:
        """Redo a logged run's effects without simulating it.

        Returns the values the run's counter reads return this time, in
        order; writing them to the watched ranges is the caller's part.
        Only sound from a state whose :meth:`state_fingerprint` equals
        the one the logged run started from.  The reads are evaluated
        first: if *accept* rejects their values, no state has moved and
        the result is ``None`` (the run must be simulated).
        """
        metrics = self.metrics
        start = metrics.snapshot()
        logged = record.start_metrics
        offset = {name: value - logged.get(name, 0.0)
                  for name, value in start.items()}
        base = self._cycle_base
        values = []
        for mnemonic, index, point, now in record.reads:
            metrics.load({name: point.get(name, 0.0) + delta
                          for name, delta in offset.items()})
            self._set_clock_metrics(base + now)
            values.append(self.rdpmc(index) if mnemonic == "RDPMC"
                          else self.rdmsr(index))
        if not accept(values):
            metrics.load(start)
            return None
        rng = self.scheduler.rng
        for low, high in record.draws:
            rng.randint(low, high)
        deltas = record.metric_deltas
        metrics.load({name: value + deltas.get(name, 0.0)
                      for name, value in start.items()})
        self._advance_cumulative(record.counts)
        self._set_clock_metrics(self._cycle_base)
        self.sim_stats.add(record.sim_stats)
        self.sim_stats.replayed_runs += 1
        self.hierarchy.demand.add(record.demand)
        return values

    def _cumulative(self) -> Tuple[int, ...]:
        """The scalar counters a run only ever advances."""
        tlb = self.tlb
        return (self._cycle_base, self.hierarchy.steps_taken,
                tlb.steps_taken, tlb.dtlb.hits, tlb.dtlb.misses,
                tlb.stlb.hits, tlb.stlb.misses)

    def _advance_cumulative(self, deltas: Tuple[int, ...]) -> None:
        (cycles, cache_steps, tlb_steps, dtlb_hits, dtlb_misses,
         stlb_hits, stlb_misses) = deltas
        tlb = self.tlb
        self._cycle_base += cycles
        self.hierarchy.steps_taken += cache_steps
        tlb.steps_taken += tlb_steps
        tlb.dtlb.hits += dtlb_hits
        tlb.dtlb.misses += dtlb_misses
        tlb.stlb.hits += stlb_hits
        tlb.stlb.misses += stlb_misses


def _exact_ints(metrics: Dict[str, float]) -> bool:
    """Whether every additive metric is an integer a float adds exactly."""
    return all(
        float(value).is_integer() and abs(value) < _EXACT_FLOAT_INTS
        for name, value in metrics.items() if name not in _CLOCK_METRICS
    )


class _RunLog:
    """A run in progress: counters at its start and its counter reads."""

    __slots__ = ("metrics", "counts", "sim_stats", "demand", "reads",
                 "replayable")

    def __init__(self, core: SimulatedCore) -> None:
        hierarchy = core.hierarchy
        self.metrics = core.metrics.snapshot()
        self.counts = core._cumulative()
        self.sim_stats = core.sim_stats.snapshot()
        self.demand = hierarchy.demand.snapshot()
        #: ``(mnemonic, index, metrics, scheduler clock)`` per read.
        self.reads: List[tuple] = []
        self.replayable = not (
            core.smt_enabled
            or (core._interrupts_enabled and core.interference.enabled)
            or hierarchy.step_budget is not None
            or core.tlb.step_budget is not None
        )

    def note_read(self, core: SimulatedCore, mnemonic: str,
                  index: int) -> None:
        self.reads.append((mnemonic, index, core.metrics.snapshot(),
                           core.scheduler.now))


@dataclass(frozen=True)
class RunRecord:
    """What one logged run did to the cumulative machine state.

    Built by :meth:`SimulatedCore.end_run_log`, replayed by
    :meth:`SimulatedCore.replay_run`.  ``reads`` holds, per counter read
    in order, ``(mnemonic, ECX, metrics, scheduler clock)`` at the read;
    ``counts`` the deltas of :meth:`SimulatedCore._cumulative`;
    ``watched_writes`` how many writes touched the watched ranges.
    """

    draws: Tuple[Tuple[int, int], ...]
    start_metrics: Dict[str, float]
    metric_deltas: Dict[str, float]
    reads: Tuple[tuple, ...]
    counts: Tuple[int, ...]
    sim_stats: SimStats
    demand: Counters
    watched_writes: int


class _UnrollFastPath:
    """Steady-state detection and bulk replay over one unrolled body.

    The unrolled benchmark body repeats the same instruction objects
    ``copies`` times.  At each iteration boundary the tracker records
    the scheduler's *normalized* state signature
    (:meth:`Scheduler.steady_state`); when the signature at boundary
    ``j`` equals the one at boundary ``j - p`` (and the per-period
    deltas pass the soundness guards documented there), the scheduler
    state — and therefore the next ``p`` iterations' cycle/µop/port
    deltas — is provably periodic, and the remaining whole periods are
    applied in bulk (:meth:`Scheduler.apply_steady_delta`) instead of
    re-running the per-µop dispatch loop.

    Byte-identity guards (any of these keeps execution exact):

    * an iteration touching memory, fences, microcode, latency jitter,
      branches, privileged/serializing/pseudo instructions, or
      value-dependent faults (DIV/IDIV) marks the window *dirty* and
      resets detection;
    * an interference event firing does the same, and replay is capped
      so the replayed clock stays strictly below the next armed
      interrupt, so the exact tail polls it identically;
    * replay is capped below the cycle/µop/instruction watchdog budgets
      so a runaway trips at the identical instruction in the exact tail;
    * the body must not clobber registers read outside the region
      (checked statically in codegen — otherwise no region is emitted);
    * a replayed iteration's semantics are skipped, and so are those of
      every exactly scheduled iteration after the first when the body
      is clean (:meth:`is_clean`): the same static conditions keep the
      skipped register values out of every counter value, address,
      branch and fault.  They do reach memory in one place: the second
      counter read spills RAX/RCX/RDX into the measurement area's spill
      slots (its first 24 bytes), which nothing reads back except the
      restore of those registers.
    """

    #: Consecutive period confirmations (matching signature *and*
    #: matching per-period deltas) required before replay engages.
    CONFIRMATIONS = 2
    #: Cap on distinct boundary signatures tracked before giving up.
    MAX_SIGNATURES = 128

    __slots__ = (
        "core", "start", "body_len", "copies", "end", "max_instructions",
        "next_boundary", "dirty", "seq", "sigs", "candidate", "confirms",
        "replayed_instructions", "replayed_iterations", "replays",
        "fallbacks",
    )

    def __init__(self, core: SimulatedCore,
                 region: Tuple[int, int, int],
                 max_instructions: int) -> None:
        self.core = core
        self.start, self.body_len, self.copies = region
        self.end = self.start + self.body_len * self.copies
        self.max_instructions = max_instructions
        self.next_boundary = self.start
        self.dirty = False
        self.seq = 0
        self.sigs: Dict[tuple, Tuple[int, tuple]] = {}
        self.candidate: Optional[tuple] = None
        self.confirms = 0
        self.replayed_instructions = 0
        self.replayed_iterations = 0
        self.replays = 0
        self.fallbacks = 0

    def is_clean(self, instructions) -> bool:
        """Whether the body's functional semantics can be skipped.

        A body is clean when every instruction is fast-path-safe (no
        memory operand, branch, fence, microcode, jitter, privileged,
        serializing or pseudo instruction, no DIV/IDIV) and has an
        executor.  Its only architectural effect is then on registers,
        and codegen emits a region only if nothing outside it reads a
        register the body writes: no address, branch condition, fault or
        counter value depends on a value it computes.  Such a value is
        stored only by the register spill of the second counter read
        (see the class docstring).  The first iteration still executes,
        so an instruction whose operands its executor rejects fails
        exactly where it always did.
        """
        core = self.core
        for instr in instructions[self.start:self.start + self.body_len]:
            if instr.mnemonic not in _EXECUTABLE:
                return False
            entry = core._decode_cache.get(id(instr))
            if entry is None or entry[0] is not instr:
                entry = core._decode(instr)
            if entry[2] is None:
                try:
                    core._decode_timing(instr, entry)
                except TimingModelError:
                    return False
            if entry[3]:
                return False
        return True

    # ------------------------------------------------------------------
    def _reset_detection(self, *, count_fallback: bool) -> None:
        if count_fallback and (self.sigs or self.candidate is not None):
            self.fallbacks += 1
        self.sigs.clear()
        self.candidate = None
        self.confirms = 0

    def on_boundary(self, pc: int, executed: int) -> int:
        """Process an iteration boundary; returns instructions to skip."""
        self.seq += 1
        if pc >= self.end:
            # Region exit; re-arm for a potential loop re-entry.  The
            # loop's SUB/JNZ marks the window dirty, so detection
            # restarts cleanly each pass.
            self.next_boundary = self.start
            return 0
        self.next_boundary = pc + self.body_len
        if self.dirty:
            self.dirty = False
            self._reset_detection(count_fallback=True)
            return 0
        scheduler = self.core.scheduler
        sig, snap = scheduler.steady_state()
        entry = self.sigs.get(sig)
        self.sigs[sig] = (self.seq, snap)
        if entry is None:
            if len(self.sigs) > self.MAX_SIGNATURES:
                self._reset_detection(count_fallback=True)
            else:
                self.candidate = None
                self.confirms = 0
            return 0
        seq0, snap0 = entry
        period = self.seq - seq0
        frontier_delta = snap[0] - snap0[0]
        max_delta = snap[1] - snap0[1]
        uop_delta = snap[2] - snap0[2]
        high0, high1 = snap0[4], snap[4]
        if high0 is None and high1 is None:
            high_delta = frontier_delta
        elif high0 is None or high1 is None:
            high_delta = -1  # band population changed: reject below
        else:
            high_delta = high1 - high0
        # Periods that stay exact:
        # * no forward progress (degenerate frontier/µop/clock deltas);
        # * a high group falling back toward the frontier — its entries
        #   would drift between bands mid-replay;
        # * a shift differential without separation margin: the
        #   smallest high entry must exceed anything a frontier-paced
        #   computation can reach within one period (the low horizon
        #   plus the frontier advance plus the period's total
        #   dispatched latency) so no max() race can flip.
        if (
            frontier_delta < 1
            or uop_delta < 1
            or max_delta < 1
            or high_delta < frontier_delta
        ):
            self.candidate = None
            self.confirms = 0
            return 0
        if high_delta > frontier_delta:
            margin = (STEADY_LOW_HORIZON + frontier_delta
                      + (snap[5] - snap0[5]))
            if high1 - snap[0] <= margin:
                self.candidate = None
                self.confirms = 0
                return 0
        # Heavy-band port loads: a tie-break against a lightly loaded
        # sibling can only flip if the sibling takes more in-window
        # dispatches than the heavy port's lead; the per-period µop
        # count bounds those dispatches.
        load_margin0, load_margin1 = snap0[6], snap[6]
        if load_margin0 is not None or load_margin1 is not None:
            if (
                load_margin0 is None
                or load_margin1 is None
                or uop_delta >= min(load_margin0, load_margin1)
            ):
                self.candidate = None
                self.confirms = 0
                return 0
        port_delta = tuple(a - b for a, b in zip(snap[3], snap0[3]))
        key = (period, frontier_delta, high_delta, max_delta, uop_delta,
               port_delta)
        if key == self.candidate:
            self.confirms += 1
        else:
            self.candidate = key
            self.confirms = 1
        if self.confirms < self.CONFIRMATIONS:
            return 0
        return self._replay(pc, executed, key)

    # ------------------------------------------------------------------
    def _replay(self, pc: int, executed: int, key: tuple) -> int:
        (period, frontier_delta, high_delta, max_delta, uop_delta,
         port_delta) = key
        core = self.core
        scheduler = core.scheduler
        per_period_instr = period * self.body_len
        periods = ((self.end - pc) // self.body_len) // period
        if periods > 0:
            periods = min(
                periods,
                (self.max_instructions - executed) // per_period_instr,
            )
        if periods > 0 and scheduler.uop_budget is not None:
            periods = min(
                periods,
                (scheduler.uop_budget - scheduler._issued_uops) // uop_delta,
            )
        if periods > 0 and scheduler.cycle_budget is not None:
            periods = min(
                periods,
                (scheduler.cycle_budget - scheduler._max_complete)
                // max_delta,
            )
        if periods > 0 and core._interrupts_enabled and \
                core.interference.enabled:
            next_fire = core.interference.next_fire()
            if next_fire is None:
                # Not yet armed; arming consumes RNG, so stay exact.
                return 0
            rel_fire = next_fire - core._cycle_base
            headroom = rel_fire - scheduler._max_complete
            periods = min(periods, int(headroom // max_delta))
            while periods > 0 and (
                scheduler._max_complete + periods * max_delta >= rel_fire
            ):
                periods -= 1
        if periods <= 0:
            # Capped out (budget/interrupt horizon): detection stays
            # armed and retries at the next boundary.
            return 0

        # The scheduler totals advance with the state; the counters
        # follow at the next publish.
        scheduler.apply_steady_delta(periods, frontier_delta, high_delta,
                                     max_delta, uop_delta, port_delta)
        skipped = periods * per_period_instr
        self.replayed_instructions += skipped
        self.replayed_iterations += periods * period
        self.replays += 1
        # The stored absolute snapshots are stale after the bulk jump;
        # restart detection from the post-replay boundary.
        self._reset_detection(count_fallback=False)
        self.next_boundary = pc + skipped
        return skipped
