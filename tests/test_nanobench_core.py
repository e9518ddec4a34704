"""Tests for nanoBench itself: codegen, runner, facade, CLI.

These are the paper's headline behaviours: the Section III-A example
values, loop/unroll equivalence, overhead cancellation, warm-up runs,
noMem mode, privilege rules, and serialization modes.
"""

import pytest

from repro.core.cli import main as cli_main
from repro.core.codegen import (
    CounterRead,
    LOOP_REGISTER,
    R14_AREA_BASE,
    SCRATCH_REGISTERS,
    generate,
)
from repro.core.nanobench import NanoBench
from repro.core.options import NanoBenchOptions
from repro.core.output import format_results
from repro.core.retry import UnschedulableEventWarning
from repro.core.runner import aggregate_values, run_measurements
from repro.errors import (
    AllocationError,
    MemoryError_,
    NanoBenchError,
    PrivilegeError,
)
from repro.memory.paging import PAGE_SIZE
from repro.perfctr.config import example_skylake_config
from repro.x86.assembler import assemble
from repro.x86.instructions import Program


@pytest.fixture(scope="module")
def nb():
    return NanoBench.kernel(uarch="Skylake", seed=0)


class TestAggregates:
    def test_min(self):
        assert aggregate_values([3, 1, 2], "min") == 1

    def test_median_odd_even(self):
        assert aggregate_values([5, 1, 3], "med") == 3
        assert aggregate_values([1, 2, 3, 10], "med") == 2.5

    def test_trimmed_mean_drops_outliers(self):
        values = [100.0] * 8 + [1e6, 0.0]
        assert aggregate_values(values, "avg") == 100.0

    def test_trimmed_mean_small_n(self):
        assert aggregate_values([2.0, 4.0], "avg") == 3.0

    def test_empty_raises(self):
        with pytest.raises(NanoBenchError):
            aggregate_values([], "min")

    def test_unknown_aggregate(self):
        with pytest.raises(NanoBenchError):
            aggregate_values([1.0], "geomean")


class TestRunner:
    def test_warm_up_runs_excluded(self):
        calls = []

        def run_once():
            calls.append(len(calls))
            return {"x": float(len(calls))}

        series = run_measurements(run_once, n_measurements=3,
                                  warm_up_count=2)
        assert len(calls) == 5
        assert series.values["x"] == [3.0, 4.0, 5.0]


class TestCodegen:
    def _counters(self):
        return [CounterRead("Instructions retired", "fixed", 0)]

    def test_loop_structure(self):
        options = NanoBenchOptions(loop_count=10, unroll_count=2)
        generated = generate(
            assemble("add RAX, RAX"), assemble(""), self._counters(),
            options, local_unroll_count=2,
        )
        text = str(generated.program)
        assert "nb_loop" in generated.program.labels
        assert text.count("ADD RAX, RAX") == 2
        assert "JNZ nb_loop" in text
        assert ("MOV %s, 10" % LOOP_REGISTER) in text

    def test_no_loop_when_count_zero(self):
        options = NanoBenchOptions(loop_count=0, unroll_count=3)
        generated = generate(
            assemble("nop"), assemble(""), self._counters(), options, 3
        )
        assert not generated.program.labels

    def test_labels_cannot_unroll(self):
        options = NanoBenchOptions(unroll_count=2)
        with pytest.raises(NanoBenchError):
            generate(assemble("x: dec RAX; jnz x"), assemble(""),
                     self._counters(), options, 2)

    def test_magic_requires_nomem(self):
        options = NanoBenchOptions(unroll_count=1)
        with pytest.raises(NanoBenchError):
            generate(assemble("pause_counting; nop; resume_counting"),
                     assemble(""), self._counters(), options, 1)

    def test_nomem_counter_limit(self):
        options = NanoBenchOptions(no_mem=True)
        too_many = [CounterRead("c%d" % i, "fixed", 0) for i in range(7)]
        with pytest.raises(NanoBenchError):
            generate(assemble("nop"), assemble(""), too_many, options, 1)


class TestPaperExample:
    """Section III-A: the L1-latency example, value for value."""

    def test_exact_output(self, nb):
        result = nb.run(
            asm="mov R14, [R14]",
            asm_init="mov [R14], R14",
            config=example_skylake_config(),
        )
        assert result["Instructions retired"] == pytest.approx(1.0)
        assert result["Core cycles"] == pytest.approx(4.0)
        assert result["Reference cycles"] == pytest.approx(3.52, abs=0.01)
        assert result["UOPS_ISSUED.ANY"] == pytest.approx(1.0)
        assert result["UOPS_DISPATCHED_PORT.PORT_0"] == pytest.approx(0.0)
        assert result["UOPS_DISPATCHED_PORT.PORT_2"] == pytest.approx(0.5)
        assert result["UOPS_DISPATCHED_PORT.PORT_3"] == pytest.approx(0.5)
        assert result["MEM_LOAD_RETIRED.L1_HIT"] == pytest.approx(1.0)
        assert result["MEM_LOAD_RETIRED.L1_MISS"] == pytest.approx(0.0)

    def test_formatting_matches_paper_style(self, nb):
        result = nb.run(asm="mov R14, [R14]", asm_init="mov [R14], R14")
        text = format_results(result)
        assert "Instructions retired: 1.00" in text
        assert "Core cycles: 4.00" in text


class TestBenchmarkForms:
    """A part of the benchmark is given as asm text or as a Program."""

    @pytest.mark.parametrize("kwargs, names", [
        ({"asm": "mov R14, [R14]", "code": assemble("imul RAX, RAX")},
         "asm and code"),
        ({"asm_init": "mov [R14], R14", "init": assemble("nop")},
         "asm_init and init"),
    ])
    def test_both_forms_are_refused(self, nb, kwargs, names):
        with pytest.raises(NanoBenchError, match="both %s are given" % names):
            nb.run(**kwargs)

    def test_text_and_program_of_different_parts_combine(self, nb):
        result = nb.run(code=assemble("mov R14, [R14]"),
                        asm_init="mov [R14], R14")
        assert result["Core cycles"] == pytest.approx(4.0)


class TestMeasurementProperties:
    def test_loop_and_unroll_agree(self, nb):
        lat_unroll = nb.run(asm="add RAX, RAX", unroll_count=64)
        lat_loop = nb.run(asm="add RAX, RAX", unroll_count=8, loop_count=8)
        assert lat_unroll["Core cycles"] == pytest.approx(
            lat_loop["Core cycles"], abs=0.2
        )

    def test_overhead_cancellation(self, nb):
        """The two-run differencing removes the counter-read overhead:
        an empty benchmark measures (close to) zero."""
        result = nb.run(asm="nop", unroll_count=100)
        assert result["Instructions retired"] == pytest.approx(1.0)
        assert 0 <= result["Core cycles"] < 0.5

    def test_basic_mode(self, nb):
        result = nb.run(asm="imul RAX, RAX", basic_mode=True)
        assert result["Core cycles"] == pytest.approx(3.0, abs=0.2)

    def test_registers_restored_after_run(self, nb):
        before = nb.core.regs.snapshot()
        nb.run(asm="mov RAX, 123; mov R14, 5; mov RSP, 1")
        after = nb.core.regs.snapshot()
        assert after.gpr == before.gpr

    def test_benchmark_sees_initialized_scratch_registers(self, nb):
        # R14 & friends point at the scratch areas during the run.
        result = nb.run(asm="mov RAX, [R14]; mov RBX, [RDI]; mov RCX, [RSI]")
        assert result["Instructions retired"] == pytest.approx(3.0)

    def test_init_values_visible_to_benchmark(self, nb):
        result = nb.run(
            asm="mov R13, [R14]",
            asm_init="mov qword ptr [R14], 42",
        )
        assert result["Instructions retired"] == pytest.approx(1.0)

    def test_warm_up_improves_first_touch(self, nb):
        cold = nb.run(asm="mov RAX, [RSI+512]",
                      events=["MEM_LOAD_RETIRED.L1_HIT"],
                      n_measurements=1, warm_up_count=0, aggregate="min")
        warm = nb.run(asm="mov RAX, [RSI+1024]",
                      events=["MEM_LOAD_RETIRED.L1_HIT"],
                      n_measurements=1, warm_up_count=2, aggregate="min")
        assert warm["MEM_LOAD_RETIRED.L1_HIT"] == pytest.approx(1.0)

    def test_initial_warm_up_precedes_the_first_series_only(
            self, monkeypatch):
        import repro.core.nanobench as module

        warm_ups = []  # of each measurement series, in order
        series = module.run_measurements

        def recording(run_once, *, warm_up_count, **kwargs):
            warm_ups.append(warm_up_count)
            return series(run_once, warm_up_count=warm_up_count, **kwargs)

        monkeypatch.setattr(module, "run_measurements", recording)
        # Two counter groups, and one escalation round on top.
        offenders = iter([("Core cycles", None), None])
        monkeypatch.setattr(module, "worst_offender",
                            lambda samples: next(offenders))
        nb = NanoBench.kernel("Skylake", seed=0)
        runs = []
        original = nb._run_generated_once

        def counting(*args):
            runs.append(args)
            return original(*args)

        nb._run_generated_once = counting
        ports = ["UOPS_DISPATCHED_PORT.PORT_%d" % p for p in range(8)]
        nb.run(asm="add RAX, RBX", events=ports, n_measurements=2,
               max_n_measurements=4, warm_up_count=1,
               initial_warm_up_count=5)
        assert warm_ups == [6] + [1] * 7
        assert nb.last_report.program_runs == len(runs) == 5 + 4 * 3 + 4 * 5

    def test_nomem_mode_matches_memory_mode(self, nb):
        plain = nb.run(asm="imul RAX, RAX")
        nomem = nb.run(asm="imul RAX, RAX", no_mem=True)
        assert plain["Core cycles"] == pytest.approx(
            nomem["Core cycles"], abs=0.3
        )

    def test_multiplexing_many_events(self, nb):
        ports = ["UOPS_DISPATCHED_PORT.PORT_%d" % p for p in range(8)]
        result = nb.run(asm="imul RAX, RAX", events=ports)
        assert len([k for k in result if k.startswith("UOPS_DISP")]) == 8
        assert result["UOPS_DISPATCHED_PORT.PORT_1"] == pytest.approx(1.0)
        assert nb.last_report.counter_groups == 2

    def test_cpuid_serializer_noisier_than_lfence(self):
        lfence_values = []
        cpuid_values = []
        for seed in range(5):
            nb_l = NanoBench.kernel("Skylake", seed=seed)
            lfence_values.append(
                nb_l.run(asm="add RAX, RAX", serializer="lfence")["Core cycles"]
            )
            nb_c = NanoBench.kernel("Skylake", seed=seed)
            cpuid_values.append(
                nb_c.run(asm="add RAX, RAX", serializer="cpuid")["Core cycles"]
            )
        assert max(lfence_values) - min(lfence_values) < 0.01
        assert max(cpuid_values) - min(cpuid_values) > 0.1


class TestPrivilege:
    def test_kernel_can_run_privileged(self, nb):
        result = nb.run(asm="wbinvd", unroll_count=1, n_measurements=2)
        assert result["Instructions retired"] == pytest.approx(1.0)

    def test_user_cannot(self):
        nb_user = NanoBench.user(uarch="Skylake")
        with pytest.raises(PrivilegeError):
            nb_user.run(asm="wbinvd", unroll_count=1)

    def test_user_uncore_degrades_to_skip(self):
        # Graceful degradation: the unschedulable uncore event is
        # skipped with a structured warning, core events still measured.
        nb_user = NanoBench.user(uarch="Skylake")
        with pytest.warns(UnschedulableEventWarning):
            result = nb_user.run(asm="nop", events=["CBOX0_LLC_LOOKUP.ANY"])
        assert "CBOX0_LLC_LOOKUP.ANY" not in result
        assert "Core cycles" in result
        assert nb_user.last_report.skipped_events == (
            "CBOX0_LLC_LOOKUP.ANY",)

    def test_user_cannot_aperf(self):
        nb_user = NanoBench.user(uarch="Skylake")
        with pytest.raises(NanoBenchError):
            nb_user.run(asm="nop", aperf_mperf=True)

    def test_kernel_aperf_mperf(self, nb):
        result = nb.run(asm="add RAX, RAX", aperf_mperf=True)
        assert result["APERF"] == pytest.approx(result["Core cycles"],
                                                abs=0.1)
        assert result["MPERF"] == pytest.approx(
            result["Reference cycles"], abs=0.1)

    def test_contiguous_memory_kernel_only(self):
        nb_user = NanoBench.user(uarch="Skylake")
        with pytest.raises(NanoBenchError):
            nb_user.resize_r14_buffer(8 << 20)

    @staticmethod
    def _assert_r14_intact(nb, size, base):
        assert nb.r14_size == size
        assert nb.r14_physical_base == base
        space = nb.core.address_space
        assert space.translate(R14_AREA_BASE) == base
        assert space.translate(R14_AREA_BASE + size - 1) == base + size - 1
        assert nb.run(asm="mov RAX, [R14]")["Instructions retired"] == 1.0

    def test_resize_into_another_area_keeps_the_buffer(self):
        # 2 GiB from R14 runs into the RSP area: nothing changes.
        nb = NanoBench.kernel(uarch="Skylake", seed=0)
        size, base = nb.r14_size, nb.r14_physical_base
        free = nb.core.physical.free_intervals
        with pytest.raises(MemoryError_, match="0x20000000 already mapped"):
            nb.resize_r14_buffer(2 << 30)
        self._assert_r14_intact(nb, size, base)
        assert nb.core.physical.free_intervals == free

    def test_failed_allocation_maps_the_old_size_back(self):
        nb = NanoBench.kernel(uarch="Skylake", seed=0)
        nb.resize_r14_buffer(8 << 20)
        base = nb.r14_physical_base
        nb.core.physical.fragment(holes=600, hole_size=8 * PAGE_SIZE)
        with pytest.raises(AllocationError):
            nb.resize_r14_buffer(200 << 20)
        self._assert_r14_intact(nb, 8 << 20, base)

    def test_refused_size_keeps_the_buffer(self):
        nb = NanoBench.kernel(uarch="Skylake", seed=0)
        size, base = nb.r14_size, nb.r14_physical_base
        with pytest.raises(ValueError, match="must be positive"):
            nb.resize_r14_buffer(0)
        self._assert_r14_intact(nb, size, base)


class TestOptionsValidation:
    def test_bad_values(self):
        for kwargs in (
            {"unroll_count": 0},
            {"loop_count": -1},
            {"n_measurements": 0},
            {"aggregate": "max"},
            {"serializer": "mfence"},
        ):
            with pytest.raises(NanoBenchError):
                NanoBenchOptions(**kwargs)

    def test_repetitions(self):
        assert NanoBenchOptions(unroll_count=10, loop_count=0).repetitions == 10
        assert NanoBenchOptions(unroll_count=10, loop_count=5).repetitions == 50


class TestCli:
    def test_paper_invocation(self, capsys):
        exit_code = cli_main([
            "-asm", "mov R14, [R14]",
            "-asm_init", "mov [R14], R14",
            "-uarch", "Skylake",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Core cycles: 4.00" in out

    def test_user_mode_flag(self, capsys):
        exit_code = cli_main(["-asm", "add RAX, RAX", "-user",
                              "-n_measurements", "3"])
        assert exit_code == 0
        assert "Core cycles" in capsys.readouterr().out
