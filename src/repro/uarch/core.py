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
from .scheduler import MemoryAccessPlan, Scheduler
from .specs import CacheLevelSpec, MicroarchSpec, get_spec
from .timing import TimingTable

#: Cap on dynamically executed instructions per program (runaway guard).
DEFAULT_MAX_INSTRUCTIONS = 20_000_000

#: Mnemonics whose *functional* execution must never be skipped by the
#: clean-body skip (:func:`_is_clean`), on top of the structural
#: conditions (memory plans, fences, microcode, branches, jitter):
#: DIV/IDIV can raise #DE depending on evolving register values, and the
#: cache-control instructions mutate simulator state outside the
#: scheduler.
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
    (including those of replayed runs); ``fast_path_instructions`` how
    many of them were scheduled with their functional semantics left out
    by the clean-body skip (:func:`_is_clean`), and ``fallbacks`` how
    many unrolled regions ran with full semantics because their body is
    not clean.
    """

    instructions: int = 0
    fast_path_instructions: int = 0
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
        #: Hyperthreading: when enabled, a simulated SMT sibling thread
        #: competes for execution ports and cache space, perturbing
        #: measurements.  Section IV-A2: "for obtaining unperturbed
        #: measurement results, we recommend disabling hyperthreading"
        #: — the repository's stand-in for the paper's helper scripts.
        self.smt_enabled = False
        self._smt_rng = random.Random(seed + 7)
        #: Fast path: the clean-body skip (:func:`_is_clean`) and
        #: run-level replay (:meth:`replay_run`).  An attribute rather
        #: than an option so toggling it cannot change any spec digest —
        #: it is result-invariant by construction.
        self.fast_path_enabled = _fast_path_default()
        #: Simulator-throughput observability counters.
        self.sim_stats = SimStats()
        #: This core's decode entries: ``id(instr) -> [instr, record,
        #: timing, fast_path_unsafe]``, with the process-wide
        #: :class:`Decoded` record and this core's timing of it.
        #: Unrolled programs repeat the *same* ``Instruction`` objects
        #: thousands of times.  The entry holds a strong reference,
        #: keeping the id stable.
        self._decode_cache: Dict[int, list] = {}
        #: The run being logged for :meth:`replay_run`, if any.
        self._run_log: Optional[_RunLog] = None

    # ==================================================================
    # Address translation (used by nanoBench and the tools)
    # ==================================================================
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
        """Decode-cache entry for *instr*, timing included.

        A failed timing lookup raises :class:`TimingModelError` and
        caches nothing, so it is raised again at every use.
        """
        cache = self._decode_cache
        if len(cache) >= (1 << 16):
            cache.clear()
        record = _decoded(instr)
        table = self.timing_table
        key = (table.family, table.move_elimination)
        known = record.timings.get(key)
        if known is None:
            timing = table.lookup(instr)
            spec = instr.spec
            unsafe = bool(
                record.loads or record.stores
                or timing.is_fence or timing.microcoded
                or timing.latency_jitter
                or spec.is_branch or spec.privileged or spec.serializing
                or spec.pseudo
                or instr.mnemonic in _FAST_PATH_UNSAFE_MNEMONICS
            )
            known = record.timings[key] = (timing, unsafe)
        entry = [instr, record, *known]
        cache[id(instr)] = entry
        return entry

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
        .GeneratedCode`) marks the unrolled benchmark body.  When the
        fast path is enabled and the body is clean (:func:`_is_clean`),
        every copy after the first is scheduled exactly but its
        functional semantics are skipped: no counter value, address,
        branch or fault depends on a value they compute, and memory
        differs only in the spill slots of the second counter read.

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
        scheduler = self.scheduler
        metrics = self.metrics
        # Program counters whose functional semantics are skipped, and
        # how many instructions were scheduled without them.
        skip_from = skip_to = skipped = 0
        if (
            unroll_region is not None
            and self.fast_path_enabled
            and not self.smt_enabled
        ):
            start, body_len, copies = unroll_region
            if _is_clean(self, instructions[start:start + body_len]):
                skip_from = start + body_len
                skip_to = start + body_len * copies
            else:
                self.sim_stats.fallbacks += 1
        try:
            while pc < len(instructions):
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
                    pc += 1
                    continue

                entry = decode_cache.get(id(instr))
                if entry is None or entry[0] is not instr:
                    entry = self._decode(instr)
                record = entry[1]
                is_branch = record.is_branch
                timing = entry[2]
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
                self._apply_interrupts()

                # --- functional execution
                if skip_from <= pc < skip_to:
                    skipped += 1
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
            stats.fast_path_instructions += skipped
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


def _is_clean(core: SimulatedCore, body: Sequence[Instruction]) -> bool:
    """Whether an unrolled body's functional semantics can be skipped.

    nanoBench repeats the body ``copies`` times back to back; in a clean
    body :meth:`SimulatedCore.run_program` schedules every copy after
    the first exactly but does not execute it.  A body is clean when
    every instruction is fast-path-safe (no memory operand, branch,
    fence, microcode, jitter, privileged, serializing or pseudo
    instruction, no DIV/IDIV) and has an executor.  Its only
    architectural effect is then on registers, and codegen emits a
    region only if nothing outside it reads a register the body writes
    (the loop counter, the noMem accumulators): no address, branch
    condition, fault or counter value depends on a value it computes,
    and the timing of a copy depends on its registers' names, never on
    their values.

    The skipped values do reach memory in one place: the second counter
    read spills RAX/RCX/RDX into the measurement area's spill slots (its
    first 24 bytes), which nothing reads back except the restore of
    those registers.  Those bytes are the one exception to the skip's
    byte-identity with exact execution.  The first copy still executes,
    so an instruction whose operands its executor rejects fails where
    exact execution does.
    """
    cache = core._decode_cache
    for instr in body:
        if instr.mnemonic not in _EXECUTABLE:
            return False
        entry = cache.get(id(instr))
        if entry is None or entry[0] is not instr:
            try:
                entry = core._decode(instr)
            except TimingModelError:
                return False
        if entry[3]:
            return False
    return True
