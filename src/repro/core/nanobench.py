"""The nanoBench facade: user-space and kernel-space benchmarking.

This is the library's primary public API (and the Python interface the
paper provides for its case studies, Section III-E)::

    nb = NanoBench.kernel(uarch="Skylake")
    result = nb.run(asm="mov R14, [R14]", asm_init="mov [R14], R14")
    # result["Core cycles"] == 4.0  (the L1 load latency)

Features implemented per the paper:

* two variants — kernel space (privileged instructions, interrupts
  disabled, uncore + APERF/MPERF counters, physically-contiguous
  memory) and user space (Section III-D);
* two-run overhead cancellation: the code is generated once with
  localUnrollCount = unroll_count and once with 2 x (or 0 in basic
  mode); the reported result is the difference (Section III-C);
* automatic splitting of event lists over the available programmable
  counters (Section III-J);
* scratch-register initialisation, warm-up runs, loop/unroll control,
  noMem mode, LFENCE/CPUID serialization.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..backends import BACKENDS, DEFAULT_BACKEND
from ..backends.analytic import AnalyticTarget, BlockEstimate
from ..backends.analytic import event_value as _analytic_event_value
from ..errors import (
    AllocationError,
    CapabilityError,
    NanoBenchError,
    UnschedulableEventError,
)
from ..faults.plan import active_plan
from ..integrity.preflight import ensure_program_valid
from ..integrity.stability import (
    QualityVerdict,
    VERDICT_ESCALATED,
    VERDICT_QUARANTINED,
    VERDICT_STABLE,
    next_n_measurements,
    worst_offender,
)
from ..perfctr.config import CounterConfig, split_into_groups
from ..perfctr.counters import (
    FIXED_WRAP,
    MSR_IA32_APERF,
    MSR_IA32_MPERF,
    MSR_UNCORE_CBOX_BASE,
    OVERFLOW_SUSPECT_THRESHOLD,
    PROGRAMMABLE_WRAP,
    delta_suspicious,
)
from ..perfctr.events import PerfEvent, event_catalog
from ..uarch.core import RunRecord, SimulatedCore
from ..x86.instructions import Program
from .codecache import cache_stats, cached_assemble, cached_generate
from .codegen import (
    AREA_SIZE,
    COUNTER_READ_FLAGS,
    MEASUREMENT_AREA_BASE,
    MEASUREMENT_AREA_SIZE,
    R14_AREA_BASE,
    RBP_AREA_BASE,
    RDI_AREA_BASE,
    RSI_AREA_BASE,
    RSP_AREA_BASE,
    MAGIC_MNEMONICS,
    CounterRead,
    GeneratedCode,
    SCRATCH_REGISTERS,
    check_nomem_counter_limit,
    counter_read_flags,
    ensure_unrollable,
)
from .options import NanoBenchOptions
from .retry import (
    TransientRetryWarning,
    UnschedulableEventWarning,
    retry_transient,
)
from .runner import run_measurements

#: Wall-clock cost model for the Section III-K experiment, calibrated to
#: the paper's Core i7-8700K numbers (~15 ms kernel / ~50 ms user for a
#: NOP benchmark with unroll 100, n = 10, 4 events): a fixed setup cost
#: per nanoBench invocation plus a per-run cost (virtual-file round trip
#: for the kernel module; process/SIGALRM machinery in user space).
KERNEL_SETUP_MS = 2.0
KERNEL_PER_RUN_MS = 0.62
USER_SETUP_MS = 21.0
USER_PER_RUN_MS = 1.40

_FIXED_COUNTER_NAMES = (
    "Instructions retired", "Core cycles", "Reference cycles",
)


@dataclass
class ExecutionReport:
    """Cost accounting for the last :meth:`NanoBench.run` call."""

    simulated_cycles: int = 0
    #: Runs of generated code, warm-ups and discarded runs included.
    #: A run replayed at the run-level fixed point counts as a run: it
    #: stands for one the modelled machine executes, so the Section
    #: III-K wall-time model (:meth:`wall_time_ms`) does not change.
    program_runs: int = 0
    counter_groups: int = 0
    host_seconds: float = 0.0
    #: Codegen-cache activity attributable to this call (deltas of the
    #: process-wide caches, see :mod:`repro.core.codecache`).
    assemble_hits: int = 0
    assemble_misses: int = 0
    generate_hits: int = 0
    generate_misses: int = 0
    #: Self-healing activity of this call: transient failures absorbed
    #: by :func:`~repro.core.retry.retry_transient`, contaminated runs
    #: (counter wraparound, frequency transitions) discarded and re-run,
    #: and events skipped by graceful degradation.
    retries: int = 0
    discarded_runs: int = 0
    #: Negative counter deltas recovered exactly by adding back the
    #: counter's wrap width (a wrapped counter is exact modulo 2^40 /
    #: 2^48, so no information is lost and no run is discarded).
    corrected_wraps: int = 0
    skipped_events: Tuple[str, ...] = ()
    #: Stability verdict of this call (None unless the
    #: ``max_n_measurements`` option is set).
    quality: Optional[QualityVerdict] = None
    #: Simulator-throughput block for this call: dynamic instructions
    #: simulated, steady-state fast-path iterations/instructions/replay
    #: events, fallbacks, and host wall-time (see
    #: :class:`repro.uarch.core.SimStats`).
    sim_stats: Dict[str, float] = field(default_factory=dict)
    #: Routing attribution (``auto`` backend only): which tier served
    #: the call, whether it was audited, and the router's cumulative
    #: :class:`~repro.router.router.RouterStats` snapshot.
    router: Optional[Dict[str, object]] = None

    def wall_time_ms(self, kernel_mode: bool, frequency_ghz: float) -> float:
        """Modelled wall-clock time of the equivalent native invocation."""
        compute_ms = self.simulated_cycles / (frequency_ghz * 1e6)
        if kernel_mode:
            return KERNEL_SETUP_MS + KERNEL_PER_RUN_MS * self.program_runs + compute_ms
        return USER_SETUP_MS + USER_PER_RUN_MS * self.program_runs + compute_ms


class NanoBench:
    """One nanoBench instance bound to a measurement target.

    The target is a cycle-accurate
    :class:`~repro.uarch.core.SimulatedCore` (the ``sim`` backend) or
    the table-driven :class:`~repro.backends.AnalyticTarget` (the
    ``analytic`` backend).  Use :meth:`create` (or the
    :meth:`kernel`/:meth:`user` shorthands) to construct one by backend
    name.
    """

    def __init__(
        self,
        core: SimulatedCore,
        *,
        kernel_mode: bool = True,
        options: Optional[NanoBenchOptions] = None,
        preflight: bool = True,
    ) -> None:
        self.core = core
        #: The backend name, which follows from the target's type.
        self.backend = ("analytic" if isinstance(core, AnalyticTarget)
                        else "sim")
        self.kernel_mode = kernel_mode
        self.options = options if options is not None else NanoBenchOptions()
        #: Pre-flight validation: decode/semantics/privilege/timing
        #: checks run on the benchmark before any simulation, so broken
        #: code fails up front (with the same exception the simulator
        #: would raise mid-run) instead of after warm-up runs.
        self.preflight = preflight
        self._fault_counters: Dict[str, int] = {}
        self._discarded_runs = 0
        self._corrected_wraps = 0
        self._r14_size = AREA_SIZE
        self._r14_physical_base: Optional[int] = None
        self._map_scratch_areas()
        # The user-space setup enables CR4.PCE so RDPMC works at CPL 3.
        self.core.pmu.user_rdpmc_enabled = True
        self.last_report = ExecutionReport()
        #: Raw (un-aggregated) per-run ``m2 - m1`` values of the most
        #: recent counter group, keyed by localUnrollCount.  Exposed for
        #: noise analyses (e.g. comparing aggregate functions).
        self.last_raw_series: Dict[int, Dict[str, List[float]]] = {}
        #: The run-level fixed points of the current :meth:`run`, one
        #: per distinct generated program (see :meth:`_fixed_point`).
        self._fixed_points: Dict[tuple, _FixedPoint] = {}
        #: ``initial_warm_up_count`` runs not yet made in the current
        #: :meth:`run`: they precede its very first measurement series.
        self._initial_warm_up = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, uarch: str = "Skylake", seed: int = 0, *,
               kernel_mode: bool = True,
               backend=DEFAULT_BACKEND,
               options: Optional[NanoBenchOptions] = None,
               preflight: bool = True) -> "NanoBench":
        """The one construction path: build the named backend's target
        and wire the facade.

        ``backend`` is one of :data:`~repro.backends.BACKENDS`: ``"sim"``
        and ``"analytic"`` return a :class:`NanoBench` on a fresh
        target, ``"auto"`` returns a :class:`~repro.router.RoutedBench`
        over both.
        """
        if backend == "auto":
            from ..router import RoutedBench

            return RoutedBench(uarch, seed, kernel_mode=kernel_mode,
                               options=options, preflight=preflight)
        if backend == "sim":
            target = SimulatedCore(uarch, seed=seed)
        elif backend == "analytic":
            target = AnalyticTarget(uarch, seed=seed)
        else:
            raise NanoBenchError(
                "unknown measurement backend %r (known backends: %s)"
                % (backend, ", ".join(BACKENDS))
            )
        return cls(target, kernel_mode=kernel_mode, options=options,
                   preflight=preflight)

    @classmethod
    def kernel(cls, uarch: str = "Skylake", seed: int = 0,
               **kwargs) -> "NanoBench":
        """Create the kernel-space variant; *kwargs* as for
        :meth:`create`."""
        return cls.create(uarch, seed, kernel_mode=True, **kwargs)

    @classmethod
    def user(cls, uarch: str = "Skylake", seed: int = 0,
             **kwargs) -> "NanoBench":
        """Create the user-space variant; *kwargs* as for
        :meth:`create`."""
        return cls.create(uarch, seed, kernel_mode=False, **kwargs)

    # ------------------------------------------------------------------
    # Memory areas (Section III-G)
    # ------------------------------------------------------------------
    def _map_scratch_areas(self) -> None:
        space = self.core.address_space
        if self.kernel_mode:
            self._r14_physical_base = space.map_kernel_contiguous(
                R14_AREA_BASE, self._r14_size
            )
        else:
            space.map_user(R14_AREA_BASE, self._r14_size)
        for base in (RSP_AREA_BASE, RBP_AREA_BASE, RDI_AREA_BASE,
                     RSI_AREA_BASE):
            if self.kernel_mode:
                space.map_kernel_contiguous(base, AREA_SIZE)
            else:
                space.map_user(base, AREA_SIZE)
        space.map_user(MEASUREMENT_AREA_BASE, MEASUREMENT_AREA_SIZE)

    def resize_r14_buffer(self, size: int) -> int:
        """Reserve a larger physically-contiguous R14 area (kernel only).

        Returns the physical base address.  Used by cache benchmarks
        that need to cover many L3 sets (Sections III-G, IV-D).
        """
        if not self.kernel_mode:
            raise NanoBenchError(
                "physically-contiguous memory requires the kernel version"
            )
        self.core.address_space.unmap(R14_AREA_BASE, self._r14_size)
        self._r14_size = size
        self._r14_physical_base = self.core.address_space.map_kernel_contiguous(
            R14_AREA_BASE, size
        )
        return self._r14_physical_base

    @property
    def r14_physical_base(self) -> Optional[int]:
        return self._r14_physical_base

    @property
    def r14_size(self) -> int:
        return self._r14_size

    # ------------------------------------------------------------------
    # Counter plumbing
    # ------------------------------------------------------------------
    def _fixed_counter_reads(self, options: NanoBenchOptions) -> List[CounterRead]:
        reads: List[CounterRead] = []
        if options.fixed_counters:
            reads = [
                CounterRead("Instructions retired", "fixed", 0),
                CounterRead("Core cycles", "fixed", 1),
                CounterRead("Reference cycles", "fixed", 2),
            ]
        if options.aperf_mperf:
            if not self.kernel_mode:
                raise NanoBenchError(
                    "APERF/MPERF can only be read in kernel space"
                )
            reads.append(CounterRead("APERF", "msr", MSR_IA32_APERF))
            reads.append(CounterRead("MPERF", "msr", MSR_IA32_MPERF))
        return reads

    @staticmethod
    def _uncore_msr_index(event: PerfEvent) -> int:
        # metric looks like "cbox<i>_<suffix>"
        prefix, _, suffix = event.metric.partition("_")
        box = int(prefix[4:])
        which = {"lookups": 0, "misses": 1, "evictions": 2}[suffix]
        return MSR_UNCORE_CBOX_BASE + 16 * box + which

    def _event_counter_read(self, event: PerfEvent, slot: int) -> CounterRead:
        if event.uncore:
            # The UnschedulableEventError path (gracefully degradable),
            # with the reason named instead of a generic failure.
            if not self.kernel_mode:
                raise UnschedulableEventError(
                    "uncore event %r cannot be scheduled in user mode: "
                    "uncore counters can only be read in kernel space "
                    "(the 'uncore' capability is kernel-only)"
                    % (event.name,)
                )
            return CounterRead(event.name, "msr", self._uncore_msr_index(event))
        return CounterRead(event.name, "programmable", slot)

    # ------------------------------------------------------------------
    # Running benchmarks
    # ------------------------------------------------------------------
    def run(
        self,
        asm: str = "",
        asm_init: str = "",
        *,
        code: Optional[Program] = None,
        init: Optional[Program] = None,
        config: Optional[CounterConfig] = None,
        events: Sequence[str] = (),
        **option_overrides,
    ) -> "OrderedDict[str, float]":
        """Run a microbenchmark; returns ``{counter name: value}``.

        The benchmark is given as Intel-syntax assembly (``asm`` /
        ``asm_init``) or as pre-assembled :class:`Program` objects
        (``code`` / ``init``); giving both forms of one part raises
        :class:`NanoBenchError`.  Performance events come from a
        :class:`CounterConfig` or a list of event ``names``; the
        fixed-function counters are always included (unless disabled
        via options).
        """
        if asm and code is not None:
            raise NanoBenchError(
                "both asm and code are given; give one of them"
            )
        if asm_init and init is not None:
            raise NanoBenchError(
                "both asm_init and init are given; give one of them"
            )
        started = time.perf_counter()
        stats_before = cache_stats()
        self._discarded_runs = 0
        self._corrected_wraps = 0
        # A record is only replayed within the run() that logged it:
        # the R14 area and the address space may change between calls.
        self._fixed_points = {}
        options = (
            replace(self.options, **option_overrides)
            if option_overrides else self.options
        )
        options.validate()

        benchmark = code if code is not None else cached_assemble(asm)
        init_program = init if init is not None else cached_assemble(asm_init)

        if self.preflight:
            # Validate in runtime execution order (init runs first), so
            # the exception raised up front is the one the simulator
            # would have raised mid-run.
            ensure_program_valid(
                init_program, kernel_mode=self.kernel_mode,
                timing_table=self.core.timing_table,
                check_timing=self.core.timing_enabled,
            )
            ensure_program_valid(
                benchmark, kernel_mode=self.kernel_mode,
                timing_table=self.core.timing_table,
                check_timing=self.core.timing_enabled,
            )

        perf_events = self._resolve_events(config, events)
        groups = (
            split_into_groups(perf_events, self.core.pmu.n_programmable)
            if perf_events else [()]
        )
        # Checked here rather than in codegen alone, so the analytic
        # backend, which generates no code, refuses the same benchmarks.
        ensure_unrollable(benchmark, options.unroll_count)

        report = ExecutionReport(counter_groups=len(groups))
        skipped_events: List[str] = []
        cycles_before = self.core.current_cycle
        sim_before = self.core.sim_stats.snapshot()

        def _note_retry(attempt: int, error: BaseException) -> None:
            report.retries += 1
            warnings.warn(TransientRetryWarning(attempt, error))

        #: The analytic backend answers every counter group from one
        #: block estimate instead of running generated code.
        estimate = (self._estimate(benchmark, groups, options)
                    if self.backend == "analytic" else None)
        cap = options.max_n_measurements
        quality: Optional[QualityVerdict] = None
        escalations = 0
        self._initial_warm_up = options.initial_warm_up_count
        while True:
            results: "OrderedDict[str, float]" = OrderedDict()
            raw_samples: List[Dict[str, List[float]]] = []
            for group in groups:
                if estimate is not None:
                    group_result, runs, skipped = self._estimate_group(
                        estimate, group, options
                    )
                else:
                    def _attempt(group=group):
                        self._maybe_inject_alloc_fault()
                        return self._run_group(
                            benchmark, init_program, group, options
                        )

                    group_result, runs, skipped = retry_transient(
                        _attempt, on_retry=_note_retry
                    )
                report.program_runs += runs
                for name in skipped:
                    if name not in skipped_events:
                        skipped_events.append(name)
                for name, value in group_result.items():
                    if name not in results:
                        results[name] = value
                if cap is not None:
                    raw_samples.extend(self.last_raw_series.values())
            if cap is None:
                break
            offender = worst_offender(raw_samples)
            if offender is None:
                verdict = VERDICT_STABLE if not escalations else VERDICT_ESCALATED
                quality = QualityVerdict(verdict, options.n_measurements,
                                         escalations)
                break
            next_n = next_n_measurements(options.n_measurements, cap)
            if next_n is None:
                quality = QualityVerdict(
                    VERDICT_QUARANTINED, options.n_measurements, escalations,
                    worst_counter=offender[0], worst_stats=offender[1],
                )
                break
            escalations += 1
            options = replace(options, n_measurements=next_n)
        report.skipped_events = tuple(skipped_events)
        report.quality = quality
        report.discarded_runs = self._discarded_runs
        report.corrected_wraps = self._corrected_wraps
        report.simulated_cycles = self.core.current_cycle - cycles_before
        report.host_seconds = time.perf_counter() - started
        report.sim_stats = self.core.sim_stats.delta(sim_before).to_dict()
        report.sim_stats["wall_seconds"] = report.host_seconds
        for cache, after in cache_stats().items():
            for kind in ("hits", "misses"):
                setattr(report, "%s_%s" % (cache, kind),
                        after[kind] - stats_before[cache][kind])
        self.last_report = report
        return results

    # ------------------------------------------------------------------
    def _estimate(
        self,
        benchmark: Program,
        groups: List[Tuple[PerfEvent, ...]],
        options: NanoBenchOptions,
    ) -> BlockEstimate:
        """The analytic backend's refusals, then the one block estimate
        every counter group of this run reads.

        What the estimator cannot answer is refused here, before any
        group: APERF/MPERF, the noMem counter limit the measured path
        enforces, and pause/resume counting (the estimate counts the
        whole block).  Events it cannot count are skipped per group.
        """
        if options.aperf_mperf:
            raise NanoBenchError(
                "backend %r cannot read APERF/MPERF (missing "
                "capability: 'aperf_mperf')" % (self.backend,)
            )
        if options.no_mem:
            reads = len(self._fixed_counter_reads(options))
            for group in groups:
                check_nomem_counter_limit(reads + sum(
                    1 for event in group
                    if self.kernel_mode or not event.uncore
                ))
        if any(instr.mnemonic in MAGIC_MNEMONICS
               for instr in benchmark.instructions):
            raise CapabilityError(
                "cannot estimate a pause/resume counting benchmark: "
                "backend %r lacks the 'magic_bytes' capability "
                "(pause/resume counting via magic byte sequences)"
                % (self.backend,),
                capability="magic_bytes", backend=self.backend,
            )
        return self.core.estimate(benchmark)

    def _estimate_group(
        self,
        estimate: BlockEstimate,
        group: Tuple[PerfEvent, ...],
        options: NanoBenchOptions,
    ) -> Tuple["OrderedDict[str, float]", int, List[str]]:
        """The analytic-backend counterpart of :meth:`_run_group`.

        No code is generated or executed: the block estimate supplies
        the per-iteration counter values directly (already in
        overhead-cancelled per-repetition units).  Events the estimator
        cannot count flow through the same graceful-degradation path as
        unschedulable events on the simulator.
        """
        self.core.advance(estimate.cycles)
        result: "OrderedDict[str, float]" = OrderedDict()
        if options.fixed_counters:
            result["Instructions retired"] = float(estimate.instructions)
            result["Core cycles"] = estimate.cycles
            result["Reference cycles"] = (
                estimate.cycles * self.core.spec.reference_clock_ratio
            )
        skipped: List[str] = []
        for event in group:
            try:
                value = _analytic_event_value(
                    estimate, event, backend_name=self.backend
                )
            except UnschedulableEventError as exc:
                warnings.warn(UnschedulableEventWarning(event.name, str(exc)))
                skipped.append(event.name)
                continue
            result[event.name] = value
        self.last_raw_series = {}
        return result, 0, skipped

    def _resolve_events(
        self, config: Optional[CounterConfig], events: Sequence[str]
    ) -> Tuple[PerfEvent, ...]:
        if config is not None and events:
            raise NanoBenchError("pass either config or events, not both")
        if config is not None:
            return config.events
        if not events:
            return ()
        catalog = event_catalog(self.core.spec.family,
                                self.core.spec.n_cboxes)
        resolved = []
        for name in events:
            if name not in catalog:
                raise NanoBenchError("unknown performance event %r" % (name,))
            resolved.append(catalog[name])
        return tuple(resolved)

    # ------------------------------------------------------------------
    # Fault plumbing (the chaos plane's in-process injection points)
    # ------------------------------------------------------------------
    def _fault_key(self, site: str) -> str:
        """Per-instance monotone key: deterministic for a fresh core,
        independent of what other instances in the process are doing."""
        count = self._fault_counters.get(site, 0)
        self._fault_counters[site] = count + 1
        return "nb#%d" % count

    def _maybe_inject_alloc_fault(self) -> None:
        plan = active_plan()
        if plan is None or not self.kernel_mode:
            return
        if plan.fires("kernel.alloc", self._fault_key("kernel.alloc")):
            raise AllocationError(
                "injected transient kmalloc failure (chaos plane); "
                "the real tool proposes a reboot"
            )

    def _run_validator(self, counter_reads: Sequence[CounterRead]):
        """The per-run contamination check, active only under a fault
        plan (fault-free runs must stay byte-identical to the seed).

        Rejects wraparound artefacts (negative or implausibly large
        deltas) and — when APERF/MPERF are measured — runs whose
        core/reference clock ratio shifted mid-run (P-state change).
        """
        if active_plan() is None:
            return None
        check_freq = any(read.name == "APERF" for read in counter_reads)
        ratio = self.core.spec.reference_clock_ratio

        def _valid(measurement: Dict[str, float]) -> bool:
            for value in measurement.values():
                if delta_suspicious(value):
                    return False
            if check_freq:
                aperf = measurement.get("APERF", 0.0)
                mperf = measurement.get("MPERF", 0.0)
                if aperf > 0 and abs(mperf - aperf * ratio) > (
                        0.02 * max(mperf, aperf * ratio) + 4.0):
                    return False
            return True

        return _valid

    def _replay_allowed(self, options: NanoBenchOptions) -> bool:
        """Whether runs of this group may be replayed at a fixed point.

        Only what a run log cannot see is checked here: never under a
        fault plan (its faults hit individual runs), with the fast path
        switched off, in user mode (interrupts fire), or in noMem mode,
        where the counter values live in registers the benchmark can
        read.  Counter, clock and CPUID reads in the code itself, and
        SMT, are caught by the run log (:meth:`SimulatedCore.end_run_log`,
        :meth:`_FixedPoint.keep`); a benchmark reading the flags a
        counter read left is checked per replay (:meth:`_FixedPoint.accepts`).
        """
        return (self.core.fast_path_enabled and active_plan() is None
                and self.kernel_mode and not options.no_mem)

    def _fixed_point(self, benchmark: Program,
                     generated: GeneratedCode) -> "_FixedPoint":
        """The fixed point of *generated* for the current :meth:`run`.

        Within one run the benchmark, init code and generation options
        are fixed, and the counter groups differ only in the names of
        their reads, which codegen does not read.  So the program is
        keyed by what it does read, each read's kind and index, and by
        its localUnrollCount: a record logged in one group replays in
        another group that runs the same code.
        """
        local_unroll_count = generated.local_unroll_count
        key = (tuple((read.kind, read.index) for read in generated.counters),
               local_unroll_count)
        fixed_point = self._fixed_points.get(key)
        if fixed_point is None:
            body = benchmark.instructions if local_unroll_count else ()
            flags_read = COUNTER_READ_FLAGS.intersection(
                flag for instr in body for flag in instr.spec.flags_read)
            fixed_point = _FixedPoint(self.core, generated, flags_read)
            self._fixed_points[key] = fixed_point
        return fixed_point

    # ------------------------------------------------------------------
    def _run_group(
        self,
        benchmark: Program,
        init_program: Program,
        group: Tuple[PerfEvent, ...],
        options: NanoBenchOptions,
    ) -> Tuple["OrderedDict[str, float]", int, List[str]]:
        """Measure one counter-configuration group (both code versions).

        Returns ``(results, program_runs, skipped_event_names)`` —
        events that cannot be scheduled in the current mode are skipped
        with a structured warning (graceful degradation) instead of
        failing the whole run.
        """
        pmu = self.core.pmu
        counter_reads = self._fixed_counter_reads(options)
        skipped: List[str] = []
        slot = 0
        for event in group:
            try:
                read = self._event_counter_read(event, slot)
            except UnschedulableEventError as exc:
                warnings.warn(UnschedulableEventWarning(event.name, str(exc)))
                skipped.append(event.name)
                continue
            if read.kind == "programmable":
                pmu.program(slot, event)
                slot += 1
            counter_reads.append(read)
        for unused in range(slot, pmu.n_programmable):
            pmu.program(unused, None)

        use_basic = options.basic_mode or bool(benchmark.labels)
        if use_basic:
            unroll_pair = (0, options.unroll_count)
        else:
            unroll_pair = (options.unroll_count, 2 * options.unroll_count)

        is_valid = self._run_validator(counter_reads)
        replay = self._replay_allowed(options)
        raw_aggregates = []
        total_runs = 0
        self.last_raw_series = {}
        for local_unroll in unroll_pair:
            generated = cached_generate(
                benchmark, init_program, counter_reads, options, local_unroll
            )
            fixed_point = (self._fixed_point(benchmark, generated)
                           if replay else None)
            warm_up_count = options.warm_up_count + self._initial_warm_up
            self._initial_warm_up = 0
            series = run_measurements(
                lambda: self._run_generated_once(generated, options,
                                                 fixed_point),
                n_measurements=options.n_measurements,
                warm_up_count=warm_up_count,
                is_valid=is_valid,
            )
            total_runs += (options.n_measurements + warm_up_count
                           + series.discarded)
            self._discarded_runs += series.discarded
            self.last_raw_series[local_unroll] = series.values
            raw_aggregates.append(series.aggregate(options.aggregate))

        repetitions = max(1, options.loop_count) * options.unroll_count
        result: "OrderedDict[str, float]" = OrderedDict()
        for read in counter_reads:
            low = raw_aggregates[0].get(read.name, 0.0)
            high = raw_aggregates[1].get(read.name, 0.0)
            result[read.name] = (high - low) / repetitions
        return result, total_runs, skipped

    # ------------------------------------------------------------------
    def _run_generated_once(
        self, generated: GeneratedCode, options: NanoBenchOptions,
        fixed_point: Optional["_FixedPoint"] = None,
    ) -> Dict[str, float]:
        """One execution of the generated code (one Algorithm 2 iteration).

        With a *fixed_point*, a run that would repeat the last simulated
        one is replayed instead (see :class:`_FixedPoint`).
        """
        core = self.core
        snapshot = core.regs.snapshot()
        for register, value in SCRATCH_REGISTERS.items():
            core.regs.write(register, value)
        if fixed_point is not None:
            state = core.state_fingerprint()
            if fixed_point.record is not None and state == fixed_point.state:
                values = core.replay_run(fixed_point.record,
                                         fixed_point.accepts)
                if values is not None:
                    return self._replay_once(generated, fixed_point, values,
                                             snapshot)
            fixed_point.state, fixed_point.record = state, None
        transition = False
        plan = active_plan()
        if plan is not None:
            if plan.rate("counter.overflow") > 0:
                key = self._fault_key("counter.overflow")
                if plan.fires("counter.overflow", key):
                    # The counters' hidden start offsets sit just below
                    # the wrap boundary: this run's delta goes negative
                    # and is recovered exactly modulo the wrap width.
                    core.pmu.inject_wrap_faults(plan, key)
            if plan.rate("freq.transition") > 0:
                key = self._fault_key("freq.transition")
                if plan.fires("freq.transition", key):
                    # A P-state change lands mid-run: the core clock
                    # speeds up relative to the reference clock for
                    # this run only.
                    scale = 1.1 + 0.3 * plan.fraction("freq.transition", key)
                    core.begin_frequency_transition(scale)
                    transition = True
        scheduler = core.scheduler
        saved_budgets = (scheduler.cycle_budget, scheduler.uop_budget)
        if options.cycle_budget is not None:
            scheduler.cycle_budget = options.cycle_budget
        if options.uop_budget is not None:
            scheduler.uop_budget = options.uop_budget
        if self.kernel_mode:
            core.disable_interrupts()
        record: Optional[RunRecord] = None
        try:
            if fixed_point is not None:
                core.begin_run_log(fixed_point.watched)
            core.run_program(generated.program, kernel_mode=self.kernel_mode,
                             unroll_region=generated.unroll_region)
        finally:
            if self.kernel_mode:
                core.enable_interrupts()
            if transition:
                core.end_frequency_transition()
            core.regs.restore(snapshot)
            core.reset_timing()
            scheduler.cycle_budget, scheduler.uop_budget = saved_budgets
            if fixed_point is not None:
                record = core.end_run_log()
        if fixed_point is not None:
            fixed_point.keep(record, core.main_memory)
        return self._collect_raw_values(generated)

    def _replay_once(self, generated: GeneratedCode,
                     fixed_point: "_FixedPoint", values: List[int],
                     snapshot) -> Dict[str, float]:
        """A run at the fixed point, redone from the logged run: the
        replay's counter *values* go to their slots."""
        core = self.core
        core.regs.restore(snapshot)
        memory = core.main_memory
        for physical, value in zip(fixed_point.slots, values):
            # What the generated code stores: RDX:RAX of the read.
            memory.write(physical, 8, value)
        return self._collect_raw_values(generated)

    def _collect_raw_values(self, generated: GeneratedCode) -> Dict[str, float]:
        memory = self.core.main_memory
        translate = self.core.address_space.translate
        values: Dict[str, float] = {}
        if generated.no_mem:
            for counter, address in zip(generated.counters,
                                        generated.nomem_addresses):
                raw = memory.read(translate(address), 8)
                values[counter.name] = float(
                    self._recover_wrapped_delta(counter, _to_signed64(raw))
                )
        else:
            for counter, a1, a2 in zip(generated.counters,
                                       generated.m1_addresses,
                                       generated.m2_addresses):
                m1 = memory.read(translate(a1), 8)
                m2 = memory.read(translate(a2), 8)
                values[counter.name] = float(
                    self._recover_wrapped_delta(counter, m2 - m1)
                )
        return values

    _WRAP_BY_KIND = {"fixed": FIXED_WRAP, "programmable": PROGRAMMABLE_WRAP}

    def _recover_wrapped_delta(self, counter: CounterRead, delta: int) -> int:
        """Undo a single counter wraparound between the two reads.

        A hardware counter that overflows between ``m1`` and ``m2``
        yields a negative delta, but the true count is exact modulo the
        counter's width (2^40 fixed, 2^48 programmable) — so the run
        can be recovered losslessly instead of discarded.  Deltas that
        stay implausible after correction are left for the run
        validator to discard.
        """
        if delta >= 0:
            return delta
        wrap = self._WRAP_BY_KIND.get(counter.kind)
        if wrap is None:
            return delta
        corrected = delta + wrap
        if 0 <= corrected < OVERFLOW_SUSPECT_THRESHOLD:
            self._corrected_wraps += 1
            return corrected
        return delta


class _FixedPoint:
    """The run-level fixed point of one generated program in one run.

    Algorithm 2 runs the same generated code ``warm_up_count +
    n_measurements`` times, for each counter group.  Each run starts by
    taking the core's state fingerprint.  If it equals the one the last
    simulated run of this program started from, and that run left a
    :class:`~repro.uarch.core.RunRecord`, the machine is at a fixed
    point: the run would repeat the logged one, and
    :meth:`SimulatedCore.replay_run` redoes it instead.  Otherwise the
    run is simulated and logged.  The groups of one run share the fixed
    point of each program (:meth:`NanoBench._fixed_point`): a run reads
    the counter programming only through its counter reads, and a
    replay re-evaluates those under the current group's programming.

    The core's soundness argument (the comment above
    :meth:`SimulatedCore.state_fingerprint`) needs one guarantee from
    here: no counter value reaches anything but its result slot, except
    what the replay checks.  The generated code stores each value to
    its slot and restores RAX, RCX and RDX from the spill area; only the
    flags of each block's last read remain.  Those of the second block
    are gone with the run's registers; those of the first block reach
    a benchmark that reads them (``COUNTER_READ_FLAGS``), so for such a
    benchmark the record keeps them, and a replay proceeds only if the
    values it re-reads leave the same flags (:meth:`accepts`).  The
    slots are watched ranges of the run log, and a record is kept only
    if the run made exactly one counter read per slot (none in the
    benchmark or init code), wrote the slots exactly once per read (no
    benchmark store to a slot) and never read them.
    """

    __slots__ = ("slots", "watched", "flags_read", "flags_index", "state",
                 "record", "flags")

    def __init__(self, core: SimulatedCore, generated: GeneratedCode,
                 flags_read: frozenset) -> None:
        translate = core.address_space.translate
        #: Physical address of each counter read's slot, in read order.
        self.slots = [translate(address) for address
                      in generated.m1_addresses + generated.m2_addresses]
        #: The slots as byte ranges, adjacent slots merged.
        self.watched: List[Tuple[int, int]] = []
        for slot in sorted(self.slots):
            if self.watched and self.watched[-1][1] == slot:
                self.watched[-1] = (self.watched[-1][0], slot + 8)
            else:
                self.watched.append((slot, slot + 8))
        #: The counter-read flags the benchmark reads, and the read
        #: that leaves them to it: the first block's last.
        n_reads = len(generated.counters)
        self.flags_read = tuple(sorted(flags_read)) if n_reads else ()
        self.flags_index = n_reads - 1
        self.state: Optional[tuple] = None
        self.record: Optional[RunRecord] = None
        #: Those flags as the logged run's read left them.
        self.flags: Tuple[bool, ...] = ()

    def _flags(self, value: int) -> Tuple[bool, ...]:
        flags = counter_read_flags(value)
        return tuple(flags[name] for name in self.flags_read)

    def keep(self, record: Optional[RunRecord], memory) -> None:
        if (record is not None
                and record.watched_writes == len(record.reads)
                == len(self.slots)):
            self.record = record
            if self.flags_read:
                self.flags = self._flags(
                    memory.read(self.slots[self.flags_index], 8))

    def accepts(self, values: List[int]) -> bool:
        """Whether a replay reading *values* leaves the benchmark the
        flags the logged run left it."""
        return (not self.flags_read
                or self._flags(values[self.flags_index]) == self.flags)


def _to_signed64(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value
