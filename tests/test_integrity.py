"""Tests for ``repro.integrity``: pre-flight validation, runaway
watchdogs, adaptive stability control, and the robustness surfaces that
ride on them (options conflicts, config diagnostics, the
``validate-config`` CLI, corruption of a batch run's store
checkpoint)."""

import collections
import json
import os
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import BatchRunner
from repro.batch.spec import spec_digest, spec_from_run_kwargs
from repro.core.cli import main as cli_main
from repro.core.nanobench import NanoBench
from repro.core.options import AGGREGATES, NanoBenchOptions
from repro.fuzz import KernelGenerator
from repro.errors import (
    ConfigError,
    DecodingError,
    ExecutionError,
    NanoBenchError,
    PrivilegeError,
    ReproError,
    RunawayBenchmarkError,
    TimingModelError,
    ValidationError,
)
from repro.integrity.preflight import (
    assert_valid,
    ensure_program_valid,
    validate_code_bytes,
    validate_program,
)
from repro.integrity.stability import (
    VERDICT_ESCALATED,
    VERDICT_QUARANTINED,
    VERDICT_STABLE,
    DispersionStats,
    QualityVerdict,
    compute_dispersion,
    is_unstable,
    next_n_measurements,
    worst_offender,
)
from repro.integrity.watchdog import (
    DEFAULT_STEP_BUDGET,
    memory_step_budget,
    scheduler_budgets,
    tlb_step_budget,
)
from repro.perfctr.config import (
    collect_config_diagnostics,
    parse_config,
    parse_config_file,
)
from repro.perfctr.events import event_catalog
from repro.store import (
    ACTIVE_NAME,
    ResultStore,
    encode_record,
    record_checksum,
    validate_record,
)
from repro.tools.cache.cacheseq import CacheSeq
from repro.tools.instr.corpus import corpus_for_family
from repro.tools.tlb import measure_miss_rates
from repro.x86.assembler import assemble
from repro.x86.decoder import decode_code, decode_program
from repro.x86.encoder import encode_program
from repro.x86.instructions import Instruction, Program

_LOOP_ASM = "top: add RAX, RAX; jmp top"


# ----------------------------------------------------------------------
# Pillar 1: pre-flight validation
# ----------------------------------------------------------------------

class TestValidateProgram:
    def test_valid_program_has_no_issues(self):
        nb = NanoBench.kernel("Skylake")
        program = assemble("add RAX, RBX; mov RCX, [R14]")
        assert validate_program(
            program, kernel_mode=True, timing_table=nb.core.timing_table,
        ) == []

    def test_privileged_instruction_in_user_mode(self):
        program = assemble("nop; wbinvd")
        issues = validate_program(program, kernel_mode=False)
        assert len(issues) == 1
        issue = issues[0]
        assert issue.kind == "privileged"
        assert issue.mnemonic == "WBINVD"
        assert issue.index == 1
        assert isinstance(issue.error, PrivilegeError)
        assert str(issue.error) == "WBINVD requires kernel mode"
        # The same program is fine in kernel mode.
        assert validate_program(program, kernel_mode=True) == []

    def test_no_timing_for_family(self):
        nb = NanoBench.kernel("SandyBridge")
        program = assemble("vfmadd231pd XMM1, XMM2, XMM3")
        issues = validate_program(
            program, kernel_mode=True, timing_table=nb.core.timing_table,
        )
        assert len(issues) == 1
        assert issues[0].kind == "no-timing"
        assert isinstance(issues[0].error, TimingModelError)
        # Without a timing table it is valid.
        assert validate_program(
            program, kernel_mode=True, timing_table=None,
        ) == []

    def test_dangling_branch_target(self):
        # The assembler refuses to build this, so construct it directly
        # (the situation arises with hand-built / decoded programs).
        program = Program((Instruction("JMP", (), target="missing"),), {})
        issues = validate_program(program, kernel_mode=True)
        assert len(issues) == 1
        assert issues[0].kind == "dangling-target"
        assert "missing" in issues[0].message
        assert isinstance(issues[0].error, ValidationError)

    def test_pseudo_instructions_are_always_valid(self):
        program = Program(
            (Instruction("PAUSE_COUNTING"), Instruction("NOP"),
             Instruction("RESUME_COUNTING")), {}
        )
        assert validate_program(program, kernel_mode=False) == []


class TestAssertValid:
    def test_aggregates_all_issues(self):
        program = assemble("wbinvd; nop; cli")
        with pytest.raises(ValidationError) as excinfo:
            assert_valid(program, kernel_mode=False)
        exc = excinfo.value
        assert len(exc.issues) == 2
        assert str(exc).startswith("benchmark code: ")
        assert "(and 1 more issue)" in str(exc)
        assert exc.mnemonic == "WBINVD"
        assert exc.offset == 0

    def test_custom_what_label(self):
        program = assemble("wbinvd")
        with pytest.raises(ValidationError, match="^init code: "):
            assert_valid(program, kernel_mode=False, what="init code")

    def test_validation_error_pickles(self):
        program = assemble("wbinvd")
        with pytest.raises(ValidationError) as excinfo:
            assert_valid(program, kernel_mode=False)
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert str(clone) == str(excinfo.value)
        assert clone.mnemonic == "WBINVD"
        assert len(clone.issues) == 1


class TestValidateCodeBytes:
    def test_issue_carries_byte_offset(self):
        prefix = encode_program(assemble("nop"))
        data = encode_program(assemble("nop; wbinvd"))
        with pytest.raises(ValidationError) as excinfo:
            validate_code_bytes(data, kernel_mode=False)
        exc = excinfo.value
        assert exc.mnemonic == "WBINVD"
        assert exc.offset == len(prefix)
        assert exc.offset > 0

    def test_undecodable_bytes_report_offset(self):
        prefix = encode_program(assemble("nop"))
        data = prefix + b"\xff\xff\xff\xff"
        with pytest.raises(ValidationError) as excinfo:
            validate_code_bytes(data)
        exc = excinfo.value
        assert exc.issues[0].kind == "decode"
        assert exc.offset == len(prefix)

    def test_valid_bytes_round_trip(self):
        original = assemble("l: add RAX, RBX; jmp l")
        program = validate_code_bytes(encode_program(original))
        assert "l" in program.labels
        assert [i.mnemonic for i in program.instructions] == ["ADD", "JMP"]


def _one_reader_outcome(data):
    """Decode *data* both ways; assert they agree; name the outcome."""
    try:
        program = decode_program(data)
    except DecodingError as exc:
        with pytest.raises(ValidationError) as excinfo:
            validate_code_bytes(data)
        (issue,) = excinfo.value.issues
        assert issue.kind == "decode"
        assert issue.message == str(exc)
        assert issue.offset == exc.offset
        # The failing record starts where a cleanly decoding prefix ends.
        prefix = decode_program(data[:exc.offset])
        assert issue.index == len(prefix.instructions)
        return "decode-error"
    try:
        validated = validate_code_bytes(data)
    except ValidationError as exc:
        # Decodable bytes fail only the semantic checks.
        assert all(issue.kind != "decode" for issue in exc.issues)
        return "invalid"
    assert validated == program
    return "valid"


def _mutations(data, labels, rng):
    """Seeded truncated, bit-flipped and label-mangled variants."""
    yield data[:rng.randrange(len(data))]
    flipped = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    yield bytes(flipped)
    _, offsets = decode_code(data)
    cut = rng.choice(offsets + (len(data),))
    name = rng.choice(sorted(labels) or ["l"]).encode()
    for record in (b"\x00\x02\xff\xfe",            # non-ASCII name
                   b"\x00" + bytes([len(name)]) + name,  # duplicate
                   b"\x00\xff" + name):              # runs past the end
        yield data[:cut] + record + data[cut:]
    for name in labels:
        record = b"\x00" + bytes([len(name)]) + name.encode()
        at = data.find(record)
        if at >= 0:
            mangled = bytearray(data)
            mangled[at + 2 + rng.randrange(len(name))] |= 0x80
            yield bytes(mangled)
            mangled[at + 1] += rng.randint(1, 3)
            yield bytes(mangled)


class TestOneCodeReader:
    """``validate_code_bytes`` reads code bytes through the decoder only:
    on any bytes, both accept the same program or both fail, a decode
    failure at the same offset."""

    def test_non_ascii_label_is_a_decoding_error_on_both_paths(self):
        data = bytes((0x00, 0x02, 0xFF, 0xFE))
        with pytest.raises(DecodingError, match="non-ASCII label name"):
            decode_program(data)
        assert _one_reader_outcome(data) == "decode-error"

    def test_mangled_corpus_encodings_agree(self):
        sources = [v.throughput_asm for v in corpus_for_family("SKL")]
        sources += [kernel.asm for kernel in
                    KernelGenerator(seed=0, profile="control").generate(30)]
        sources += ["pause_counting; add RAX, RBX; resume_counting",
                    "top: dec R15; jnz top; end: nop; jmp end"]
        rng = random.Random(2026)
        outcomes = collections.Counter()
        for source in sources:
            program = assemble(source)
            data = encode_program(program)
            assert _one_reader_outcome(data) == "valid"
            for mutated in _mutations(data, program.labels, rng):
                outcomes[_one_reader_outcome(mutated)] += 1
        assert outcomes["decode-error"] > 0
        assert outcomes["valid"] > 0
        assert outcomes["invalid"] > 0


class TestEnsureProgramValid:
    def test_raises_runtime_equivalent_exception(self):
        program = assemble("wbinvd")
        with pytest.raises(PrivilegeError, match="WBINVD requires kernel mode"):
            ensure_program_valid(program, kernel_mode=False)

    def test_verdict_is_memoized_on_the_program(self):
        program = assemble("nop; cli")
        with pytest.raises(PrivilegeError):
            ensure_program_valid(program, kernel_mode=False)
        cache = program.__dict__["_preflight_cache"]
        assert len(cache) == 1
        # Second call hits the cache and raises the same issue again.
        with pytest.raises(PrivilegeError):
            ensure_program_valid(program, kernel_mode=False)
        ensure_program_valid(program, kernel_mode=True)
        assert len(program.__dict__["_preflight_cache"]) == 2

    def test_run_fails_identically_with_and_without_preflight(self):
        # The integrity layer's core contract: enabling preflight changes
        # *when* a bad benchmark fails, never *how*.
        outcomes = []
        for preflight in (True, False):
            nb = NanoBench.user("Skylake", preflight=preflight)
            with pytest.raises(PrivilegeError) as excinfo:
                nb.run(asm="wbinvd", n_measurements=1, unroll_count=2)
            outcomes.append(str(excinfo.value))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Pillar 2: runaway-benchmark watchdogs
# ----------------------------------------------------------------------

class TestSchedulerWatchdog:
    def test_cycle_budget_stops_infinite_loop_serial(self):
        nb = NanoBench.kernel("Skylake")
        with pytest.raises(RunawayBenchmarkError) as excinfo:
            nb.run(asm=_LOOP_ASM, cycle_budget=2000, n_measurements=1,
                   unroll_count=1)
        exc = excinfo.value
        assert exc.budget == "cycles"
        assert exc.limit == 2000
        assert "cycle budget exceeded" in str(exc)
        assert exc.progress  # partial-progress counters present
        assert "budget=cycles" in exc.progress_report()
        # The budget is configuration scoped to the run: afterwards the
        # instance measures normally again.
        assert nb.core.scheduler.cycle_budget is None
        result = nb.run(asm="nop", n_measurements=1)
        assert result["Core cycles"] >= 0.0

    def test_uop_budget_stops_infinite_loop_serial(self):
        nb = NanoBench.kernel("Skylake")
        with pytest.raises(RunawayBenchmarkError) as excinfo:
            nb.run(asm=_LOOP_ASM, uop_budget=3000, n_measurements=1,
                   unroll_count=1)
        assert excinfo.value.budget == "uops"
        assert "uop budget exceeded" in str(excinfo.value)
        assert nb.core.scheduler.uop_budget is None

    def test_runaway_is_an_execution_error(self):
        nb = NanoBench.kernel("Skylake")
        with pytest.raises(ExecutionError):
            nb.run(asm=_LOOP_ASM, cycle_budget=2000, n_measurements=1,
                   unroll_count=1)

    def test_budget_survives_scheduler_reset(self):
        scheduler = NanoBench.kernel("Skylake").core.scheduler
        with scheduler_budgets(scheduler, cycles=5, uops=7):
            scheduler.reset()
            assert scheduler.cycle_budget == 5
            assert scheduler.uop_budget == 7
        assert scheduler.cycle_budget is None
        assert scheduler.uop_budget is None

    def test_instruction_budget_in_run_program(self):
        core = NanoBench.kernel("Skylake").core
        program = assemble(_LOOP_ASM)
        with pytest.raises(RunawayBenchmarkError) as excinfo:
            core.run_program(program, kernel_mode=True, max_instructions=100)
        assert excinfo.value.budget == "instructions"
        assert excinfo.value.limit == 100

    def test_budget_trip_keeps_sim_stats_and_counters(self):
        # A trip ends run_program by an exception; the instructions it
        # simulated still count, and the published counters agree.
        nb = NanoBench.kernel("Skylake", seed=0)
        with pytest.raises(RunawayBenchmarkError) as excinfo:
            nb.run(asm="add RAX, RAX", unroll_count=1000, n_measurements=1,
                   uop_budget=500)
        core = nb.core
        assert core.sim_stats.instructions == 467
        assert core.sim_stats.fast_path_instructions > 0
        assert core.metrics.get("instructions_retired") == 467
        assert (core.metrics.get("uops_issued")
                == excinfo.value.progress["uops_issued"])

    def test_runaway_error_pickles(self):
        error = RunawayBenchmarkError(
            "cycle budget exceeded: 2048 simulated cycles (budget 2000)",
            budget="cycles", limit=2000, progress={"instructions": 512},
        )
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.budget == "cycles"
        assert clone.limit == 2000
        assert clone.progress == {"instructions": 512}

    def test_batch_path_reports_budget_trip(self):
        spec = spec_from_run_kwargs(
            asm=_LOOP_ASM, cycle_budget=2000, n_measurements=1,
            unroll_count=1, label="runaway",
        )
        result = spec.execute()
        assert not result.ok
        assert "cycle budget exceeded" in result.error

    def test_batch_runner_isolates_runaway_spec(self):
        specs = [
            spec_from_run_kwargs(asm=_LOOP_ASM, cycle_budget=2000,
                                 n_measurements=1, unroll_count=1),
            spec_from_run_kwargs(asm="nop", n_measurements=1,
                                 unroll_count=5),
        ]
        results = BatchRunner(2).run(specs)
        assert not results[0].ok
        assert "cycle budget exceeded" in results[0].error
        assert results[1].ok


class TestStepBudgets:
    def test_cacheseq_sweep_trips_with_progress(self):
        nb = NanoBench.kernel("Skylake")
        cacheseq = CacheSeq(nb, level=1, max_steps=40)
        assert cacheseq.max_steps == 40
        with pytest.raises(RunawayBenchmarkError) as excinfo:
            cacheseq.run("B0 B1 B0!", sets="all")
        exc = excinfo.value
        assert exc.budget == "cache-steps"
        assert exc.limit == 40
        assert exc.progress["sets_requested"] == cacheseq.n_sets
        assert 0 < exc.progress["sets_completed"] < cacheseq.n_sets
        assert "sets_completed" in exc.progress_report()
        # The budget was uninstalled on the way out.
        assert nb.core.hierarchy.step_budget is None

    def test_cacheseq_budget_trips_at_a_pinned_access(self):
        # The prefetcher is on, so its fills count as steps too: the run
        # stops at the same access, with the same counts, as long as the
        # access path keeps its exact behaviour.
        nb = NanoBench.kernel("Skylake")
        assert nb.core.hierarchy.prefetcher_enabled
        cacheseq = CacheSeq(nb, level=1, max_steps=501)
        with pytest.raises(RunawayBenchmarkError) as excinfo:
            cacheseq.run("B0 B1 B2 B3 B4 B5 B6 B7 B8 B0! B2! B9 B1! B4!",
                         sets="all")
        assert excinfo.value.progress == {
            "l1_hits": 132, "l1_misses": 98, "l2_hits": 92, "l2_misses": 6,
            "l3_hits": 0, "l3_misses": 6, "steps": 502,
            "sets_requested": 64, "sets_completed": 16,
            "hits": 2, "misses": 62,
        }
        assert nb.core.hierarchy.step_budget is None

    def test_cacheseq_default_budget_is_generous(self):
        nb = NanoBench.kernel("Skylake")
        cacheseq = CacheSeq(nb, level=1)
        assert cacheseq.max_steps == DEFAULT_STEP_BUDGET
        result = cacheseq.run("B0 B1 B0!", set_index=3)
        assert result.accesses == 1

    def test_tlb_sweep_trips_and_restores(self):
        nb = NanoBench.kernel("Skylake")
        with pytest.raises(RunawayBenchmarkError) as excinfo:
            measure_miss_rates(nb, [4, 8], step_budget=64)
        assert excinfo.value.budget == "tlb-steps"
        assert excinfo.value.limit == 64
        assert nb.core.tlb.step_budget is None

    def test_step_budget_context_managers_restore(self):
        core = NanoBench.kernel("Skylake").core
        with memory_step_budget(core.hierarchy, 123) as hierarchy:
            assert hierarchy.step_budget == 123
            assert hierarchy.steps_taken == 0
        assert core.hierarchy.step_budget is None
        with tlb_step_budget(core.tlb, 77) as tlb:
            assert tlb.step_budget == 77
        assert core.tlb.step_budget is None
        # None = disabled: pass-through without touching state.
        with memory_step_budget(core.hierarchy, None):
            assert core.hierarchy.step_budget is None


# ----------------------------------------------------------------------
# Pillar 3: adaptive stability control
# ----------------------------------------------------------------------

class TestDispersion:
    def test_known_values(self):
        stats = compute_dispersion([1.0, 2.0, 3.0, 4.0])
        assert stats.n == 4
        assert stats.median == 2.5
        assert stats.mad == 1.0
        assert stats.iqr == 2.0

    def test_constant_series(self):
        stats = compute_dispersion([7.0] * 5)
        assert stats.mad == 0.0
        assert stats.iqr == 0.0
        assert stats.rel_mad == 0.0

    def test_empty_series(self):
        assert compute_dispersion([]).n == 0

    def test_rel_mad_floors_tiny_medians(self):
        # A median below one count must not blow up the relative MAD.
        stats = DispersionStats(n=5, median=0.001, mad=0.1, iqr=0.2)
        assert stats.rel_mad == pytest.approx(0.1)


class TestStabilityPolicy:
    """The fixed stability rule of :mod:`repro.integrity.stability`."""

    def test_too_few_runs_are_never_flagged(self):
        assert not is_unstable(compute_dispersion([0.0, 1000.0]))

    def test_unstable_series_is_flagged(self):
        noisy = compute_dispersion([100.0, 150.0, 100.0, 150.0, 100.0])
        assert is_unstable(noisy)
        clean = compute_dispersion([100.0, 100.0, 100.0, 100.5])
        assert not is_unstable(clean)

    def test_worst_offender_picks_largest_rel_mad(self):
        samples = [
            {"A": [100.0, 150.0, 100.0, 150.0],
             "B": [100.0, 300.0, 100.0, 300.0],
             "C": [100.0, 100.0, 100.0, 100.0]},
        ]
        offender = worst_offender(samples)
        assert offender is not None
        assert offender[0] == "B"
        assert worst_offender([{"C": [5.0, 5.0, 5.0, 5.0]}]) is None

    def test_escalation_schedule(self):
        assert next_n_measurements(10, 80) == 20
        assert next_n_measurements(50, 80) == 80
        assert next_n_measurements(80, 80) is None

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(NanoBenchError):
            NanoBenchOptions(max_n_measurements=0)
        with pytest.raises(NanoBenchError):
            NanoBench.kernel("Skylake").run(asm="nop", max_n_measurements=-1)

    def test_quality_verdict_describe(self):
        verdict = QualityVerdict(VERDICT_STABLE, 10)
        assert verdict.describe() == "stable (n=10, escalations=0)"
        assert verdict.as_dict()["verdict"] == VERDICT_STABLE


class _NoisyNanoBench(NanoBench):
    """Injects synthetic measurement noise below a run-count threshold.

    The simulator is deterministic, so the escalation loop can only be
    exercised by perturbing the raw per-run series after the fact."""

    noise_below = 10 ** 9

    def _run_group(self, benchmark, init_program, group, options):
        result = NanoBench._run_group(
            self, benchmark, init_program, group, options
        )
        if options.n_measurements < self.noise_below:
            for series in self.last_raw_series.values():
                for name, values in series.items():
                    series[name] = [
                        value * (1.5 if index % 2 else 1.0)
                        for index, value in enumerate(values)
                    ]
        return result


class TestStabilityIntegration:
    def test_stable_run_is_byte_identical_to_no_policy(self):
        plain = NanoBench.kernel("Skylake").run(
            asm="add RAX, RAX", n_measurements=5, unroll_count=10
        )
        nb = NanoBench.kernel(
            "Skylake", options=NanoBenchOptions(max_n_measurements=80)
        )
        judged = nb.run(asm="add RAX, RAX", n_measurements=5, unroll_count=10)
        assert judged == plain
        quality = nb.last_report.quality
        assert quality is not None
        assert quality.verdict == VERDICT_STABLE
        assert quality.escalations == 0
        assert quality.n_measurements == 5

    def test_persistent_noise_is_quarantined_at_the_cap(self):
        nb = _NoisyNanoBench.kernel("Skylake")
        result = nb.run(asm="nop", n_measurements=8, unroll_count=5,
                        max_n_measurements=16)
        assert result  # a value is still reported, but flagged
        quality = nb.last_report.quality
        assert quality.verdict == VERDICT_QUARANTINED
        assert quality.escalations == 1
        assert quality.n_measurements == 16
        assert quality.worst_counter is not None
        assert quality.worst_stats.rel_mad > 0.05

    def test_escalation_can_recover_stability(self):
        nb = _NoisyNanoBench.kernel("Skylake")
        nb.noise_below = 16  # noisy at n=8, clean once escalated to 16
        nb.run(asm="nop", n_measurements=8, unroll_count=5,
               max_n_measurements=64)
        quality = nb.last_report.quality
        assert quality.verdict == VERDICT_ESCALATED
        assert quality.escalations == 1
        assert quality.n_measurements == 16

    def test_no_policy_leaves_no_quality(self):
        nb = NanoBench.kernel("Skylake")
        nb.run(asm="nop", n_measurements=2)
        assert nb.last_report.quality is None

    def test_batch_spec_carries_quality_verdict(self):
        spec = spec_from_run_kwargs(
            asm="nop", n_measurements=4, unroll_count=5,
            max_n_measurements=80,
        )
        result = spec.execute()
        assert result.ok
        assert result.quality_verdict == VERDICT_STABLE
        # Without a cap the verdict stays None.
        plain_spec = spec_from_run_kwargs(
            asm="nop", n_measurements=4, unroll_count=5
        )
        plain = plain_spec.execute()
        assert plain.quality_verdict is None
        # The cap is part of the spec's identity: a stored answer
        # without a verdict is never replayed for a spec asking for one.
        assert spec_digest(spec) != spec_digest(plain_spec)

    def test_cap_reaches_a_batch_spec_from_the_instance_options(self):
        nb = NanoBench.kernel(
            "Skylake", options=NanoBenchOptions(max_n_measurements=80)
        )
        result = spec_from_run_kwargs(
            asm="nop", n_measurements=4, unroll_count=5
        ).execute(nb)
        assert result.quality_verdict == VERDICT_STABLE


# ----------------------------------------------------------------------
# Satellite: options cross-field conflict detection
# ----------------------------------------------------------------------

class TestOptionsValidation:
    def test_unknown_aggregate_lists_allowed_set(self):
        with pytest.raises(NanoBenchError) as excinfo:
            NanoBenchOptions(aggregate="mean")
        message = str(excinfo.value)
        assert "'mean'" in message
        assert str(AGGREGATES) in message

    def test_budget_fields_validated(self):
        with pytest.raises(NanoBenchError, match="cycle_budget"):
            NanoBenchOptions(cycle_budget=0)
        with pytest.raises(NanoBenchError, match="uop_budget"):
            NanoBenchOptions(uop_budget=-1)
        assert NanoBenchOptions(cycle_budget=1000).cycle_budget == 1000

    def test_default_options_have_no_conflicts(self):
        assert NanoBenchOptions().conflicts() == []

    def test_warmup_swallowing_measurements_is_a_conflict(self):
        options = NanoBenchOptions(n_measurements=3, warm_up_count=5)
        conflicts = options.conflicts()
        assert len(conflicts) == 1
        assert "warm_up_count (5) >= n_measurements (3)" in conflicts[0]
        options.validate()  # advisory by default
        with pytest.raises(ValidationError, match="conflicting options"):
            options.validate(strict=True)

    def test_budget_below_unroll_is_a_conflict(self):
        options = NanoBenchOptions(unroll_count=100, cycle_budget=50)
        assert any("cycle_budget" in c for c in options.conflicts())
        options = NanoBenchOptions(unroll_count=100, uop_budget=50)
        assert any("uop_budget" in c for c in options.conflicts())


# ----------------------------------------------------------------------
# Satellite: config diagnostics with file:line locations
# ----------------------------------------------------------------------

_CATALOG = event_catalog("SKL")


class TestConfigDiagnostics:
    def test_parse_error_carries_filename_and_line(self):
        with pytest.raises(ConfigError, match=r"^cfg\.txt:2: unknown event"):
            parse_config("0E.01 UOPS_ISSUED.ANY\nFF.01 NO_SUCH\n",
                         _CATALOG, filename="cfg.txt")

    def test_old_format_without_filename_is_unchanged(self):
        with pytest.raises(ConfigError, match=r"^line 1: cannot parse"):
            parse_config("not a config !!!\n", _CATALOG)

    def test_parse_config_file_locates_errors(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# comment\nUOPS_ISSUED.ANY\nbad line !!!\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config_file(str(path), _CATALOG)
        assert str(excinfo.value).startswith("%s:3: " % path)

    def test_unreadable_file_is_a_config_error(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config_file(str(missing), _CATALOG)

    def test_collect_reports_every_problem_at_once(self):
        text = "\n".join([
            "0E.01 UOPS_ISSUED.ANY",     # fine
            "FF.01 NO_SUCH_EVENT",       # unknown (error)
            "completely broken !!!",     # unparsable (error)
            "A0.00 UOPS_ISSUED.ANY",     # code mismatch + duplicate
        ])
        diagnostics = collect_config_diagnostics(
            text, _CATALOG, filename="cfg.txt"
        )
        errors = [d for d in diagnostics if d.severity == "error"]
        warns = [d for d in diagnostics if d.severity == "warning"]
        assert len(errors) == 2
        assert len(warns) == 2
        assert errors[0].line == 2
        assert errors[0].describe().startswith("cfg.txt:2: unknown event")
        assert errors[1].line == 3
        assert any("does not match catalogue code" in d.message
                   for d in warns)
        assert any("duplicate event UOPS_ISSUED.ANY (first listed on line 1)"
                   in d.message for d in warns)

    def test_collect_flags_empty_config(self):
        diagnostics = collect_config_diagnostics(
            "# only comments\n", _CATALOG, filename="cfg.txt"
        )
        assert len(diagnostics) == 1
        assert diagnostics[0].line == 0
        assert diagnostics[0].describe() == (
            "cfg.txt: configuration contains no events"
        )


class TestOneConfigReader:
    """``parse_config`` is the first error of the diagnostic scan."""

    @pytest.mark.parametrize("filename", [None, "cfg.txt"])
    @pytest.mark.parametrize("text, expected", [
        ("", "configuration contains no events"),
        ("# only a comment\n\n   # another\n",
         "configuration contains no events"),
        ("not a config !!!\n", "1: cannot parse 'not a config !!!'"),
        ("NO_SUCH_EVENT\n", "1: unknown event 'NO_SUCH_EVENT'"),
        ("FF.01 NO_SUCH\n", "1: unknown event 'NO_SUCH' (code FF.01)"),
        ("0E.01 UOPS_ISSUED.ANY\nFF.01 NO_SUCH\n",
         "2: unknown event 'NO_SUCH' (code FF.01)"),
        ("0E.01 UOPS_ISSUED.ANY\n???\nFF.01 NO_SUCH\n",
         "2: cannot parse '???'"),
        ("FF.01 UOPS_ISSUED.ANY\n", ["UOPS_ISSUED.ANY"]),
        ("0E.01 SOME_ALIAS\n", ["UOPS_ISSUED.ANY"]),
        ("0E.01 UOPS_ISSUED.ANY\nUOPS_ISSUED.ANY\n"
         "D1.01 MEM_LOAD_RETIRED.L1_HIT # x\n",
         ["UOPS_ISSUED.ANY", "MEM_LOAD_RETIRED.L1_HIT"]),
    ])
    def test_parse_config_is_the_scan(self, text, expected, filename):
        diagnostics = collect_config_diagnostics(text, _CATALOG, filename)
        errors = [d for d in diagnostics if d.severity == "error"]
        if isinstance(expected, list):
            assert errors == []
            config = parse_config(text, _CATALOG, filename=filename)
            assert list(config.names) == expected
            return
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text, _CATALOG, filename=filename)
        assert str(excinfo.value) == errors[0].describe()
        if expected[0].isdigit():
            where = "%s:" % filename if filename else "line "
        else:
            where = "%s: " % filename if filename else ""
        assert str(excinfo.value) == where + expected


class TestValidateConfigCli:
    def test_clean_config_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("0E.01 UOPS_ISSUED.ANY\nMEM_LOAD_RETIRED.L1_HIT\n")
        assert cli_main(["validate-config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 lines checked, 0 errors, 0 warnings" in out

    def test_broken_config_lists_every_problem(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text(
            "0E.01 UOPS_ISSUED.ANY\nFF.01 NO_SUCH_EVENT\nbad line !!!\n"
        )
        assert cli_main(["validate-config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "error: %s:2: unknown event 'NO_SUCH_EVENT'" % path in out
        assert "error: %s:3: cannot parse" % path in out
        assert "2 errors" in out

    def test_missing_file_exits_with_error(self, tmp_path, capsys):
        assert cli_main(
            ["validate-config", str(tmp_path / "nope.txt")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_unknown_uarch_exits_with_error(self, tmp_path, capsys):
        path = tmp_path / "events.txt"
        path.write_text("0E.01 UOPS_ISSUED.ANY\n")
        assert cli_main(
            ["validate-config", str(path), "-uarch", "Pentium"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliIntegrityFlags:
    def test_stability_flag_prints_quality(self, capsys):
        rc = cli_main(["-asm", "nop", "-n_measurements", "4",
                       "-unroll_count", "5", "-stability"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "# quality: stable" in captured.err
        assert "Core cycles" in captured.out

    def test_stability_flag_prints_routed_quality(self, capsys):
        # The router's verdict is the serving tier's, read off the
        # routed run's report.
        rc = cli_main(["-asm", "add RAX, RBX", "-backend", "auto",
                       "-stability"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "# quality: stable (n=10, escalations=0)" in captured.err
        assert "Core cycles" in captured.out

    def test_cycle_budget_flag_reports_runaway(self, capsys):
        rc = cli_main(["-asm", _LOOP_ASM, "-cycle_budget", "2000",
                       "-unroll_count", "1", "-n_measurements", "1"])
        assert rc == 1
        assert "cycle budget exceeded" in capsys.readouterr().err

    def test_conflicting_options_warn_but_run(self, capsys):
        rc = cli_main(["-asm", "nop", "-n_measurements", "3",
                       "-warm_up_count", "5", "-unroll_count", "5"])
        assert rc == 0
        assert "warning: warm_up_count" in capsys.readouterr().err

    def test_invalid_options_exit_cleanly(self, capsys):
        rc = cli_main(["-asm", "nop", "-cycle_budget", "0"])
        assert rc == 1
        assert "invalid options:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Satellite: corruption of a batch run's checkpoint (its store), caught
# on open
# ----------------------------------------------------------------------

class _Checkpoint:
    """A three-spec batch file and the store that a ``-batch ...
    -store`` run of it left behind: the checkpoint a resumed run reads."""

    BATCH = "add RAX, RBX\nimul RAX, RBX\nmov RAX, [R14] | mov [R14], R14\n"
    N_RECORDS = 3

    def __init__(self, tmp_path, capsys) -> None:
        batch = tmp_path / "batch.txt"
        batch.write_text(self.BATCH)
        self.root = str(tmp_path / "store")
        self.flags = ["-batch", str(batch), "-n_measurements", "2",
                      "-unroll_count", "5", "-store", self.root]
        assert cli_main(self.flags) == 0
        self.fresh = capsys.readouterr().out
        self.active = os.path.join(self.root, ACTIVE_NAME)

    def records(self):
        with open(self.active, "rb") as handle:
            return [json.loads(line) for line in handle]

    def write(self, records):
        with open(self.active, "wb") as handle:
            for record in records:
                handle.write(encode_record(record))

    def replay(self, capsys):
        """Re-run the batch against the store: ``(stderr, stdout equals
        the fresh run)``."""
        assert cli_main(self.flags) == 0
        replay = capsys.readouterr()
        return replay.err, replay.out == self.fresh


class TestCheckpointCorruption:
    def test_records_carry_checksums(self, tmp_path, capsys):
        records = _Checkpoint(tmp_path, capsys).records()
        assert len(records) == _Checkpoint.N_RECORDS
        for record in records:
            # One record format: the full 64-hex SHA-256.
            assert len(record["sha"]) == 64
            assert record["sha"] == record_checksum(record)
            assert validate_record(record) == (True, "")

    def test_bit_flipped_record_is_reexecuted(self, tmp_path, capsys):
        checkpoint = _Checkpoint(tmp_path, capsys)
        records = checkpoint.records()
        name = list(records[0]["values"])[0]
        records[0]["values"][name] += 1.0  # the flip; sha left stale
        checkpoint.write(records)
        with pytest.warns(UserWarning, match="quarantined"):
            err, identical = checkpoint.replay(capsys)
        # The corrupted spec was re-executed, the intact ones replayed,
        # and the re-execution reproduced the fresh values.
        assert "# store: 2 answered from the store, 1 executed" in err
        assert identical

    def test_duplicate_digest_keeps_later_record(self, tmp_path, capsys):
        checkpoint = _Checkpoint(tmp_path, capsys)
        records = checkpoint.records()
        later = dict(records[1], values=dict(records[1]["values"]))
        name = list(later["values"])[0]
        later["values"][name] = 12345.0
        later["sha"] = record_checksum(later)  # valid but conflicting
        checkpoint.write(records + [later])
        with ResultStore(checkpoint.root) as store:
            assert len(store) == _Checkpoint.N_RECORDS
            assert store.get(later["digest"])["values"][name] == 12345.0


# ----------------------------------------------------------------------
# Satellite: pre-flight accepts exactly what the simulator can run
# ----------------------------------------------------------------------

class TestPreflightCompleteness:
    def test_no_false_rejections_on_the_corpus(self):
        # Every variant the E1-class experiments measure must sail
        # through pre-flight untouched (zero false rejections).
        nb = NanoBench.kernel("Skylake")
        table = nb.core.timing_table
        for variant in corpus_for_family("SKL"):
            for asm in (variant.init_asm, variant.latency_asm,
                        variant.throughput_asm):
                issues = validate_program(
                    assemble(asm), kernel_mode=True, timing_table=table,
                )
                assert issues == [], (variant.name, asm, issues)

    _USER_POOL = ["nop", "add RAX, RBX", "imul RAX, RAX", "xor RAX, RAX",
                  "mov RAX, 1", "wbinvd", "cli"]

    @given(lines=st.lists(st.sampled_from(_USER_POOL), min_size=1,
                          max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_preflight_equivalence_user_mode(self, lines):
        # Property: with and without pre-flight, a user-mode run either
        # succeeds with identical values or fails with the identical
        # exception type and message.
        asm = "; ".join(lines)
        outcomes = []
        for preflight in (True, False):
            nb = NanoBench.user("Skylake", preflight=preflight)
            try:
                result = nb.run(asm=asm, n_measurements=1, unroll_count=2)
                outcomes.append(("ok", tuple(result.items())))
            except ReproError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]

    _TIMING_POOL = ["nop", "add RAX, RBX",
                    "vfmadd231pd XMM1, XMM2, XMM3"]

    @given(lines=st.lists(st.sampled_from(_TIMING_POOL), min_size=1,
                          max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_preflight_equivalence_timing_model(self, lines):
        # Same property against a family with timing-model gaps (FMA is
        # not available on Sandy Bridge).
        asm = "; ".join(lines)
        outcomes = []
        for preflight in (True, False):
            nb = NanoBench.kernel("SandyBridge", preflight=preflight)
            try:
                result = nb.run(asm=asm, n_measurements=1, unroll_count=2)
                outcomes.append(("ok", tuple(result.items())))
            except ReproError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        assert outcomes[0] == outcomes[1]
