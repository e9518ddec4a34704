"""Detailed tests for the generated measurement code (Algorithm 1)."""

import pytest

from repro.core.codegen import (
    CounterRead,
    MEASUREMENT_AREA_BASE,
    NOMEM_REGISTERS,
    SCRATCH_REGISTERS,
    generate,
    read_perf_ctrs_nomem,
    read_perf_ctrs_to_memory,
)
from repro.core.nanobench import NanoBench
from repro.core.options import NanoBenchOptions
from repro.x86.assembler import assemble
from repro.x86.instructions import Program


def _fixed_counters():
    return [
        CounterRead("Instructions retired", "fixed", 0),
        CounterRead("Core cycles", "fixed", 1),
    ]


class TestReadPerfCtrs:
    def test_memory_variant_structure(self):
        block = read_perf_ctrs_to_memory(_fixed_counters(), 0x100, "lfence")
        text = "; ".join(str(i) for i in block)
        # Serialized on both sides.
        assert text.count("LFENCE") == 2
        # One RDPMC per counter.
        assert text.count("RDPMC") == 2
        # No branches, no function calls (the paper's headline claim).
        assert "CALL" not in text and "JNZ" not in text and "JMP" not in text

    def test_memory_variant_preserves_registers(self):
        """'Stores results in memory, does not modify registers': RAX,
        RCX, RDX are spilled first and restored last."""
        nb = NanoBench.kernel("Skylake", seed=0)
        core = nb.core
        core.regs.write("RAX", 0x1111)
        core.regs.write("RCX", 0x2222)
        core.regs.write("RDX", 0x3333)
        block = read_perf_ctrs_to_memory(_fixed_counters(), 0x100, "lfence")
        core.run_program(Program(tuple(block)), kernel_mode=True)
        assert core.regs.read("RAX") == 0x1111
        assert core.regs.read("RCX") == 0x2222
        assert core.regs.read("RDX") == 0x3333

    def test_cpuid_serializer_sets_rax(self):
        block = read_perf_ctrs_to_memory(_fixed_counters(), 0x100, "cpuid")
        text = "; ".join(str(i) for i in block)
        assert "CPUID" in text
        assert "MOV RAX, 0" in text  # fixed input value (Section IV-A1)

    def test_nomem_variant_uses_registers(self):
        first = read_perf_ctrs_nomem(_fixed_counters(), "lfence", first=True)
        second = read_perf_ctrs_nomem(_fixed_counters(), "lfence",
                                      first=False)
        text_first = "; ".join(str(i) for i in first)
        text_second = "; ".join(str(i) for i in second)
        assert NOMEM_REGISTERS[0] in text_first
        assert "SUB %s, RAX" % NOMEM_REGISTERS[0] in text_first
        assert "ADD %s, RAX" % NOMEM_REGISTERS[0] in text_second
        # No data memory operands in the noMem read (that is the point).
        assert "[" not in text_first


class TestGeneratedProgram:
    def test_unroll_copies(self):
        options = NanoBenchOptions(unroll_count=5)
        generated = generate(
            assemble("imul RAX, RAX"), assemble(""), _fixed_counters(),
            options, local_unroll_count=5,
        )
        text = str(generated.program)
        assert text.count("IMUL RAX, RAX") == 5

    def test_init_precedes_first_read(self):
        options = NanoBenchOptions(unroll_count=1)
        generated = generate(
            assemble("nop"), assemble("mov RBX, 7"), _fixed_counters(),
            options, local_unroll_count=1,
        )
        instructions = [str(i) for i in generated.program]
        init_at = instructions.index("MOV RBX, 7")
        first_rdpmc = instructions.index("RDPMC")
        assert init_at < first_rdpmc

    def test_m1_m2_addresses_disjoint(self):
        options = NanoBenchOptions()
        generated = generate(
            assemble("nop"), assemble(""), _fixed_counters(), options, 1
        )
        assert not set(generated.m1_addresses) & set(generated.m2_addresses)
        for address in generated.m1_addresses + generated.m2_addresses:
            assert address >= MEASUREMENT_AREA_BASE

    def test_magic_sequences_fenced_in_nomem(self):
        options = NanoBenchOptions(no_mem=True, unroll_count=1)
        generated = generate(
            assemble("pause_counting; mov RAX, [R14]; resume_counting"),
            assemble(""), _fixed_counters(), options, 1,
        )
        instructions = [str(i) for i in generated.program]
        pause = instructions.index("PAUSE_COUNTING")
        resume = instructions.index("RESUME_COUNTING")
        assert instructions[pause - 1] == "LFENCE"
        assert instructions[resume + 1] == "LFENCE"

    def test_loop_uses_r15(self):
        options = NanoBenchOptions(loop_count=3, unroll_count=2)
        generated = generate(
            assemble("add RAX, RAX"), assemble(""), _fixed_counters(),
            options, 2,
        )
        text = str(generated.program)
        assert "MOV R15, 3" in text
        assert "SUB R15, 1" in text

    @pytest.mark.parametrize("no_mem", [False, True])
    def test_measurement_blocks_share_instructions(self, no_mem):
        # Every generated program hands the core the same measurement
        # instruction objects, so each is decoded once per process.
        from repro.core import codegen

        options = NanoBenchOptions(no_mem=no_mem, unroll_count=1)
        first, second = (
            generate(assemble(asm), assemble(""), _fixed_counters(),
                     options, 1).program.instructions
            for asm in ("add RAX, RBX", "imul RCX, RDX")
        )
        assert len(first) == len(second)
        shared = [a is b for a, b in zip(first, second)]
        body = shared.index(False)
        assert shared.count(False) == 1 and body > 0
        assert codegen._read_one_counter.cache_info().maxsize == \
            codegen.SHARED_INSTRUCTION_LIMIT

    def test_scratch_register_values(self):
        values = dict(SCRATCH_REGISTERS)
        assert set(values) == {"R14", "RSP", "RBP", "RDI", "RSI"}
        # RSP points into the middle of its area (room both ways).
        assert values["RSP"] % (1 << 20) != 0


class TestEndToEndCounterPlumbing:
    def test_uncore_reads_are_rdmsr(self):
        nb = NanoBench.kernel("Skylake", seed=0)
        result = nb.run(
            asm="clflush [R14]; mov RAX, [R14]",
            events=["CBOX0_LLC_LOOKUP.ANY"],
            unroll_count=1, n_measurements=2, warm_up_count=1,
            basic_mode=True, fixed_counters=False,
        )
        assert "CBOX0_LLC_LOOKUP.ANY" in result

    def test_more_nomem_counters_than_registers_rejected(self):
        nb = NanoBench.kernel("Skylake", seed=0)
        from repro.errors import NanoBenchError

        events = ["UOPS_DISPATCHED_PORT.PORT_%d" % p for p in range(4)]
        with pytest.raises(NanoBenchError):
            nb.run(asm="nop", events=events, no_mem=True)  # 3 fixed + 4