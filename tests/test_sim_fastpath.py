"""Regression and property tests for the simulator hot path (PR 4).

Pins three bugfixes:

* store µops consume one front-end slot per µop (STA + STD), so the
  front-end width pressure agrees with ``issued_uops``;
* a corrupted-then-repaired :class:`LRUCache` entry counts as a miss
  plus a repair, never as a hit, and ``hits + misses == lookups``;
* ``generation_key`` covers every :class:`NanoBenchOptions` field that
  :func:`repro.core.codegen.generate` actually reads.

Plus two properties: ``Scheduler.issued_uops`` equals the sum of
per-instruction ``issued_uops`` over arbitrary schedule sequences
(hypothesis), and the fast path is byte-identical to exact simulation —
on a smoke set in tier 1 and over the full instruction corpus in tier 2
(Skylake kernel mode, Haswell user mode).  The whole metric store must
match too, and a clean unrolled body executes its semantics only in the
region's first copy.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import BatchRunner
from repro.core.codecache import (
    _GENERATION_OPTION_FIELDS,
    LRUCache,
    generation_key,
)
from repro.core.codegen import MEASUREMENT_AREA_BASE, CounterRead, generate
from repro.core.nanobench import NanoBench
from repro.core.options import NanoBenchOptions
from repro.errors import ExecutionError
from repro.faults.plan import FaultPlan
from repro.memory.paging import PAGE_SIZE
from repro.tools.instr.corpus import corpus_for_family
from repro.tools.instr.measure import variant_specs
from repro.uarch import core as uarch_core
from repro.uarch.core import SimulatedCore
from repro.uarch.interference import InterferenceConfig
from repro.uarch.ports import SKYLAKE_LAYOUT
from repro.uarch.scheduler import MemoryAccessPlan, Scheduler
from repro.uarch.specs import get_spec
from repro.uarch.timing import ComputeUop, InstructionTiming
from repro.x86 import semantics
from repro.x86.assembler import assemble


@pytest.fixture()
def sched():
    return Scheduler(SKYLAKE_LAYOUT, rng=random.Random(0))


# ----------------------------------------------------------------------
# Bugfix 1: stores issue one front-end slot per µop (STA + STD).
# ----------------------------------------------------------------------
class TestStoreFrontEndSlots:
    def test_store_issues_two_uops(self, sched):
        plan = MemoryAccessPlan(0x1000, 1, ("R14",), is_store=True)
        result = sched.schedule(InstructionTiming(()), sources=["RAX"],
                                stores=[plan])
        assert result.issued_uops == 2
        assert sched.issued_uops == 2

    def test_store_slots_consume_frontend_width(self, sched):
        # 20 independent stores = 40 µops.  At issue width 4 the last
        # pair cannot issue before cycle 9; the old one-slot-per-store
        # behaviour packed them into 5 cycles.
        result = None
        for i in range(20):
            plan = MemoryAccessPlan(0x1000 + 64 * i, 1, ("R14",),
                                    is_store=True)
            result = sched.schedule(InstructionTiming(()), sources=["RAX"],
                                    stores=[plan])
        assert result.issue_cycle >= 9
        assert sched.issued_uops == 40

    def test_store_width_matches_alu_uop_pairs(self):
        # A store (2 µops) stresses the front end exactly like two ALU
        # µops: issue cycles of a pure-store stream and a two-ALU-µop
        # stream must coincide.
        stores = Scheduler(SKYLAKE_LAYOUT, rng=random.Random(0))
        alus = Scheduler(SKYLAKE_LAYOUT, rng=random.Random(0))
        two_alu = InstructionTiming(
            (ComputeUop("ALU", 1), ComputeUop("ALU", 1))
        )
        for i in range(12):
            plan = MemoryAccessPlan(0x2000 + 64 * i, 1, ("R14",),
                                    is_store=True)
            a = stores.schedule(InstructionTiming(()), sources=["RAX"],
                                stores=[plan])
            b = alus.schedule(two_alu, destinations=["R%d" % (8 + i % 4)])
            assert a.issue_cycle == b.issue_cycle


# ----------------------------------------------------------------------
# Bugfix 2: cache repair accounting.
# ----------------------------------------------------------------------
@pytest.mark.no_chaos
class TestCacheRepairAccounting:
    def _cache(self):
        return LRUCache(8, name="test")

    def test_repair_counts_as_miss_not_hit(self):
        cache = self._cache()
        builds = []

        def factory():
            builds.append(object())
            return "payload"

        cache.get_or_create("key", factory)         # cold miss
        with FaultPlan(rates={"cache.corrupt": 1.0}, seed=0):
            cache.get_or_create("key", factory)     # corrupted -> rebuilt
        stats = cache.stats()
        assert len(builds) == 2                     # factory re-ran
        assert stats["lookups"] == 2
        assert stats["hits"] == 0                   # never served stale data
        assert stats["misses"] == 2
        assert stats["repairs"] == 1

    def test_clean_lookup_after_repair_is_a_hit(self):
        cache = self._cache()
        cache.get_or_create("key", lambda: "payload")
        with FaultPlan(rates={"cache.corrupt": 1.0}, seed=0):
            cache.get_or_create("key", lambda: "payload")
        cache.get_or_create("key", lambda: "payload")
        stats = cache.stats()
        assert stats == {
            "size": 1, "maxsize": 8, "lookups": 3, "hits": 1,
            "misses": 2, "evictions": 0, "repairs": 1,
        }

    def test_stats_asserts_accounting_balance(self):
        cache = self._cache()
        cache.get_or_create("key", lambda: "payload")
        cache.hits += 1     # simulate a code path that forgot to classify
        with pytest.raises(AssertionError):
            cache.stats()


# ----------------------------------------------------------------------
# Bugfix 3: generation_key covers every option generate() reads.
# ----------------------------------------------------------------------
class _RecordingOptions:
    """Attribute-access proxy around :class:`NanoBenchOptions`."""

    def __init__(self, wrapped):
        self._wrapped = wrapped
        self._accessed = set()

    def __getattr__(self, name):
        self._accessed.add(name)
        return getattr(self._wrapped, name)


class TestGenerationKeyAudit:
    def _exercise(self, **overrides):
        options = NanoBenchOptions()
        for name, value in overrides.items():
            setattr(options, name, value)
        proxy = _RecordingOptions(options)
        code = assemble("mov RAX, [R14]; add RAX, RBX")
        init = assemble("mov RBX, 7")
        counters = (CounterRead("Core cycles", "fixed", 1),)
        generate(code, init, counters, proxy, 8)
        return proxy._accessed

    def test_generate_reads_only_declared_fields(self):
        # Union the reads over option settings that exercise both the
        # looped/unlooped and memory/no-memory code paths.
        accessed = set()
        accessed |= self._exercise()
        accessed |= self._exercise(loop_count=10)
        accessed |= self._exercise(no_mem=True)
        accessed |= self._exercise(serializer="cpuid")
        undeclared = accessed - set(_GENERATION_OPTION_FIELDS)
        assert not undeclared, (
            "generate() reads NanoBenchOptions fields missing from "
            "_GENERATION_OPTION_FIELDS (cache-collision hazard): %s"
            % sorted(undeclared)
        )
        # ... and the declared list carries no dead weight.
        assert accessed == set(_GENERATION_OPTION_FIELDS)

    def test_key_distinguishes_every_declared_field(self):
        code = assemble("add RAX, RBX")
        init = assemble("")
        counters = (CounterRead("Core cycles", "fixed", 1),)
        base = NanoBenchOptions()
        base_key = generation_key(code, init, counters, base, 8)
        for name, value in (("loop_count", 123), ("no_mem", True),
                            ("serializer", "cpuid")):
            changed = NanoBenchOptions()
            setattr(changed, name, value)
            assert generation_key(code, init, counters, changed, 8) \
                != base_key, name


# ----------------------------------------------------------------------
# Property: issued_uops accounting over arbitrary schedule sequences.
# ----------------------------------------------------------------------
def _build_op(kind, variant):
    """One (timing, schedule-kwargs) pair for the accounting property."""
    reg = "R%d" % (8 + variant % 4)
    if kind == "alu":
        return (InstructionTiming((ComputeUop("ALU", 1),)),
                dict(sources=[reg], destinations=[reg]))
    if kind == "mul":
        return (InstructionTiming((ComputeUop("MUL", 3),)),
                dict(sources=["RAX"], destinations=["RAX"]))
    if kind == "multi":
        return (InstructionTiming((ComputeUop("ALU", 1),
                                   ComputeUop("SHIFT", 1),
                                   ComputeUop("ALU", 1))),
                dict(destinations=[reg]))
    if kind == "eliminated":
        return (InstructionTiming((), eliminated=True),
                dict(sources=[reg], destinations=[reg]))
    if kind == "fence":
        return (InstructionTiming((), is_fence=True, fence_latency=4),
                dict())
    if kind == "load":
        return (InstructionTiming(()),
                dict(loads=[MemoryAccessPlan(64 * variant, 4, ("R14",))],
                     destinations=[reg]))
    if kind == "store":
        return (InstructionTiming(()),
                dict(sources=[reg],
                     stores=[MemoryAccessPlan(64 * variant, 1, ("R14",),
                                              is_store=True)]))
    if kind == "load_store":
        return (InstructionTiming((ComputeUop("ALU", 1),)),
                dict(loads=[MemoryAccessPlan(64 * variant, 4, ("R14",))],
                     stores=[MemoryAccessPlan(64 * variant, 1, ("R14",),
                                              is_store=True)],
                     sources=[reg], destinations=[reg]))
    if kind == "microcoded":
        return (InstructionTiming((ComputeUop("ALU", 1),), microcoded=True,
                                  microcode_uops=(2, 5), base_latency=3),
                dict(destinations=["RDX"]))
    if kind == "branch":
        return (InstructionTiming((ComputeUop("BRANCH", 1),)),
                dict(branch_site=variant % 2, branch_taken=variant % 3 == 0))
    raise AssertionError(kind)


_OP_KINDS = st.sampled_from([
    "alu", "mul", "multi", "eliminated", "fence", "load", "store",
    "load_store", "microcoded", "branch",
])


class TestIssuedUopsProperty:
    @given(ops=st.lists(st.tuples(_OP_KINDS, st.integers(0, 7)),
                        max_size=60),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_issued_uops_equals_per_instruction_sum(self, ops, seed):
        sched = Scheduler(SKYLAKE_LAYOUT, rng=random.Random(seed))
        results = []
        for kind, variant in ops:
            timing, kwargs = _build_op(kind, variant)
            results.append(sched.schedule(timing, **kwargs))
        assert sched.issued_uops == sum(r.issued_uops for r in results)
        # Dispatched µops never exceed issued ones (eliminated µops
        # issue without dispatching).
        assert sum(sched.port_pressure().values()) <= sched.issued_uops


# ----------------------------------------------------------------------
# Property: the fast path is byte-identical to exact scheduling, down to
# the whole metric store (counters are published only where they can be
# read, and a clean body's semantics are skipped).
# ----------------------------------------------------------------------
def _run_report(asm, fast_path, *, user=False, setup=None, **kwargs):
    """(values, report, whole MetricStore snapshot) of one run."""
    nb = (NanoBench.user if user else NanoBench.kernel)("Skylake", seed=0)
    nb.core.fast_path_enabled = fast_path
    if setup is not None:
        setup(nb.core)
    values = nb.run(asm=asm, **kwargs)
    return values, nb.last_report, nb.core.metrics.snapshot()


def _frequent_interrupts(core):
    core.interference.config = InterferenceConfig(
        mean_interval_cycles=1_000.0, min_cycles=100, max_cycles=400,
        min_instructions=10, max_instructions=50,
    )


def _corpus_throughput(name):
    variant = next(v for v in corpus_for_family("SKL") if v.name == name)
    return {"asm": variant.throughput_asm, "asm_init": variant.init_asm}


_SMOKE_KERNELS = [
    "add RAX, RAX",
    "add RAX, RBX; add RBX, RCX",
    "imul RAX, RAX",
    "imul RAX, RBX",
    "shl RAX, 7",
    "lea RAX, [RBX + 8*RCX]",
    "nop; nop; nop; nop",
    "mov RAX, [R14]; add RAX, RBX",
    "mov [R14], RAX; mov RBX, [R14]",
]

_PXOR = _corpus_throughput("PXOR (XMM, XMM)")

_DIFFERENTIAL_CASES = (
    [pytest.param({"asm": asm}, id=asm) for asm in _SMOKE_KERNELS]
    + [
        pytest.param(_PXOR, id="corpus-pxor-x12"),
        pytest.param(_corpus_throughput("VFMADD231PS (XMM, XMM, XMM)"),
                     id="corpus-vfmadd231ps"),
        pytest.param({"asm": "add RAX, RAX; pause_counting; imul RBX, RBX;"
                             " resume_counting", "no_mem": True},
                     id="pause-resume"),
        # User mode: interference events fire among the copies whose
        # semantics are skipped and publish the counters mid-run.
        pytest.param({"asm": "add RAX, RBX; add RBX, RCX", "user": True,
                      "setup": _frequent_interrupts}, id="user-mode"),
    ]
)


@pytest.mark.no_chaos
class TestFastPathDifferential:
    @pytest.mark.parametrize("case", _DIFFERENTIAL_CASES)
    def test_smoke_kernels_byte_identical(self, case):
        fast_values, fast_report, fast_metrics = _run_report(
            fast_path=True, unroll_count=200, n_measurements=3, **case)
        exact_values, exact_report, exact_metrics = _run_report(
            fast_path=False, unroll_count=200, n_measurements=3, **case)
        assert fast_values == exact_values
        assert fast_metrics == exact_metrics
        assert fast_report.simulated_cycles == exact_report.simulated_cycles
        assert fast_report.program_runs == exact_report.program_runs
        assert (fast_report.sim_stats["instructions"]
                == exact_report.sim_stats["instructions"])
        assert exact_report.sim_stats["fast_path_instructions"] == 0
        assert exact_report.sim_stats["fallbacks"] == 0
        # Each case's region is clean (its copies skip their semantics)
        # or not (each region run counts a fallback), never both.
        fast = fast_report.sim_stats
        assert (fast["fast_path_instructions"] > 0) == (fast["fallbacks"] == 0)

    def test_user_mode_case_takes_interrupts(self, monkeypatch):
        events = []
        apply_event = SimulatedCore._apply_interference_event

        def counting(core, event):
            events.append(event)
            apply_event(core, event)

        monkeypatch.setattr(SimulatedCore, "_apply_interference_event",
                            counting)
        _, report, _ = _run_report(
            "add RAX, RBX; add RBX, RCX", True, user=True,
            setup=_frequent_interrupts, unroll_count=200, n_measurements=3)
        assert events
        assert report.sim_stats["fast_path_instructions"] > 0

    @pytest.mark.parametrize("loops", [0, 4])
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_clean_body_semantics_run_once_per_region(self, monkeypatch,
                                                      fast_path, loops):
        # Every PXOR of the generated program is a body copy.  With the
        # fast path on, only the region's first copy executes (in loop
        # mode, once per pass); with it off, every copy does.  Each
        # instruction left out counts as a fast-path instruction.
        runs = []
        executed = [0]
        bind_pxor = semantics._BINDERS["PXOR"]
        run_program = SimulatedCore.run_program

        def counting_bind(instr):
            execute = bind_pxor(instr)

            def counting_execute(ctx):
                executed[0] += 1
                return execute(ctx)
            return counting_execute

        def recording_run(core, program, **kwargs):
            executed[0] = 0
            before = core.sim_stats.fast_path_instructions
            try:
                return run_program(core, program, **kwargs)
            finally:
                runs.append((kwargs.get("unroll_region"), executed[0],
                             core.sim_stats.fast_path_instructions - before))

        # Decode records bind once per process: start from empty ones.
        monkeypatch.setitem(semantics._BINDERS, "PXOR", counting_bind)
        monkeypatch.setattr(uarch_core, "_DECODE_MEMO", {})
        monkeypatch.setattr(uarch_core, "_DECODE_IDS", {})
        monkeypatch.setattr(SimulatedCore, "run_program", recording_run)
        _run_report(fast_path=fast_path, unroll_count=50, n_measurements=3,
                    loop_count=loops, **_PXOR)
        regions = [run for run in runs if run[0]]
        assert regions
        passes = max(1, loops)
        for (_start, body_len, copies), count, skipped in regions:
            assert body_len == 12
            assert count == passes * (body_len if fast_path
                                      else body_len * copies)
            assert skipped == passes * body_len * copies - count

    def test_skipped_values_reach_only_the_spill_slots(self):
        # A clean body's skipped iterations leave RAX behind its exact
        # value.  The second counter read spills RAX/RCX/RDX into the
        # measurement area's first 24 bytes, so those bytes differ; no
        # other memory byte and no counter value may.
        def run(fast_path):
            nb = NanoBench.kernel("Skylake", seed=0)
            nb.core.fast_path_enabled = fast_path
            values = nb.run(asm="lea RAX, [RAX+RBX+8]", unroll_count=100)
            spill = nb.core.address_space.translate(MEASUREMENT_AREA_BASE)
            page, offset = divmod(spill, PAGE_SIZE)
            image = {number: bytearray(contents) for number, contents
                     in nb.core.main_memory._pages.items()}
            spilled = bytes(image[page][offset:offset + 24])
            image[page][offset:offset + 24] = bytes(24)
            return values, nb.last_report, image, spilled

        fast_values, fast_report, fast_image, fast_spilled = run(True)
        exact_values, _, exact_image, exact_spilled = run(False)
        assert fast_report.sim_stats["fast_path_instructions"] > 0
        assert fast_values == exact_values
        assert fast_image == exact_image
        assert fast_spilled != exact_spilled

    def test_malformed_body_fails_like_exact_execution(self):
        # The first copy always executes, so an instruction whose
        # operands its executor rejects raises with the fast path on.
        for fast_path in (True, False):
            with pytest.raises(ExecutionError, match="LEA needs a memory"):
                _run_report("lea RAX, RBX", fast_path, unroll_count=50,
                            n_measurements=1)

    @pytest.mark.tier2
    def test_corpus_byte_identical(self):
        specs = []
        for variant in corpus_for_family(get_spec("Skylake").family):
            specs.extend(variant_specs(variant, "Skylake", seed=0,
                                       kernel_mode=True))
        _assert_sweeps_identical(specs)

    @pytest.mark.tier2
    def test_corpus_user_mode_haswell_byte_identical(self):
        # User mode keeps interrupts enabled, so interference events
        # publish the counters mid-run.
        specs = []
        for variant in corpus_for_family(get_spec("Haswell").family):
            if not variant.kernel_only:
                specs.extend(variant_specs(variant, "Haswell", seed=0,
                                           kernel_mode=False))
        _assert_sweeps_identical(specs)


def _assert_sweeps_identical(specs):
    """Run *specs* with the fast path on and off; results must match."""
    def sweep(fast_path):
        os.environ["NANOBENCH_FAST_PATH"] = "1" if fast_path else "0"
        try:
            return BatchRunner(jobs=1).run(specs)
        finally:
            os.environ.pop("NANOBENCH_FAST_PATH", None)

    fast = sweep(True)
    exact = sweep(False)
    assert len(fast) == len(exact) == len(specs)
    for f, e in zip(fast, exact):
        label = f.spec.label
        assert f.values == e.values, label
        assert f.error == e.error, label
        assert f.simulated_cycles == e.simulated_cycles, label
        assert f.program_runs == e.program_runs, label
        assert f.sim_instructions == e.sim_instructions, label
        assert e.fast_path_instructions == 0, label
    # The sweep as a whole must actually exercise the fast path.
    assert sum(f.fast_path_instructions for f in fast) > 0
