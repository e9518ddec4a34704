"""Tests for timing tables, dataflow analysis, and CPU specs."""

import pytest

from repro.errors import TimingModelError
from repro.uarch.dataflow import analyze
from repro.uarch.ports import PORT_LAYOUTS
from repro.uarch.specs import MICROARCHITECTURES, TABLE1_CPUS, get_spec
from repro.uarch.timing import TimingTable
from repro.x86.assembler import parse_statement
from repro.x86.instructions import INSTRUCTION_SET


class TestTimingTable:
    def setup_method(self):
        self.skl = TimingTable("SKL", move_elimination=True)
        self.nhm = TimingTable("NHM", move_elimination=False)

    def test_alu_single_uop(self):
        timing = self.skl.lookup(parse_statement("add RAX, RBX"))
        assert len(timing.compute_uops) == 1
        assert timing.compute_uops[0].latency == 1

    def test_mov_elimination_family_dependent(self):
        instr = parse_statement("mov RAX, RBX")
        assert self.skl.lookup(instr).eliminated
        assert not self.nhm.lookup(instr).eliminated

    def test_zeroing_idiom(self):
        timing = self.skl.lookup(parse_statement("xor RAX, RAX"))
        assert timing.eliminated and timing.breaks_dependency
        # Also without move elimination (pre-IVB CPUs recognise idioms).
        timing = self.nhm.lookup(parse_statement("xor RAX, RAX"))
        assert timing.breaks_dependency

    def test_xor_different_regs_not_idiom(self):
        timing = self.skl.lookup(parse_statement("xor RAX, RBX"))
        assert not timing.eliminated

    def test_pure_load_has_no_compute_uops(self):
        timing = self.skl.lookup(parse_statement("mov RAX, [R14]"))
        assert timing.compute_uops == ()
        assert not timing.eliminated

    def test_complex_lea_slower(self):
        simple = self.skl.lookup(parse_statement("lea RAX, [RBX+RCX]"))
        complex_ = self.skl.lookup(parse_statement("lea RAX, [RBX+RCX+8]"))
        assert simple.compute_uops[0].latency == 1
        assert complex_.compute_uops[0].latency == 3

    def test_family_latency_overrides(self):
        instr = parse_statement("mulsd XMM1, XMM2")
        assert self.skl.lookup(instr).compute_uops[0].latency == 4
        hsw = TimingTable("HSW")
        assert hsw.lookup(instr).compute_uops[0].latency == 5

    def test_fma_unsupported_on_old_families(self):
        instr = parse_statement("vfmadd231pd XMM1, XMM2, XMM3")
        with pytest.raises(TimingModelError):
            TimingTable("SNB").lookup(instr)
        assert self.skl.lookup(instr).compute_uops

    def test_cpuid_is_jittery_microcode(self):
        timing = self.skl.lookup(parse_statement("cpuid"))
        assert timing.microcoded
        assert timing.latency_jitter > 0
        assert timing.microcode_uops[0] < timing.microcode_uops[1]

    def test_lfence_is_fence(self):
        timing = self.skl.lookup(parse_statement("lfence"))
        assert timing.is_fence and timing.fence_latency > 0

    def test_every_mnemonic_has_timing(self):
        """No supported instruction may be missing from the table."""
        table = TimingTable("SKL")
        for mnemonic, spec in INSTRUCTION_SET.items():
            if spec.pseudo:
                continue
            operands = ()
            if mnemonic in ("JMP",) or spec.is_branch:
                continue  # branches need targets; covered elsewhere
            # Use a plain no-operand lookup via the base table.
            timing = table._base_timing(mnemonic)
            assert timing is not None


class TestDataflow:
    def test_rmw_alu(self):
        flow = analyze(parse_statement("add RAX, RBX"))
        assert {"RAX", "RBX"} <= flow.sources
        assert "RAX" in flow.destinations
        assert "ZF" in flow.destinations

    def test_mov_dest_not_source(self):
        flow = analyze(parse_statement("mov RAX, RBX"))
        assert "RAX" not in flow.sources
        assert flow.sources == frozenset({"RBX"})

    def test_address_registers_are_sources(self):
        flow = analyze(parse_statement("mov RAX, [RBX + RCX*2]"))
        assert {"RBX", "RCX"} <= flow.sources
        assert len(flow.loads) == 1

    def test_store_flow(self):
        flow = analyze(parse_statement("mov [RBX], RAX"))
        assert len(flow.stores) == 1 and not flow.loads
        assert "RAX" in flow.sources

    def test_rmw_memory_is_load_and_store(self):
        flow = analyze(parse_statement("add qword ptr [RBX], 1"))
        assert len(flow.loads) == 1 and len(flow.stores) == 1

    def test_cmp_writes_no_register(self):
        flow = analyze(parse_statement("cmp RAX, RBX"))
        assert flow.destinations == INSTRUCTION_SET["CMP"].flags_written

    def test_adc_reads_cf(self):
        flow = analyze(parse_statement("adc RAX, RBX"))
        assert "CF" in flow.sources

    def test_inc_does_not_write_cf(self):
        flow = analyze(parse_statement("inc RAX"))
        assert "CF" not in flow.destinations
        assert "ZF" in flow.destinations

    def test_cmov_reads_flags_and_dest(self):
        flow = analyze(parse_statement("cmovz RAX, RBX"))
        assert "ZF" in flow.sources
        assert "RAX" in flow.sources  # merges with old value

    def test_implicit_operands(self):
        flow = analyze(parse_statement("mul RBX"))
        assert "RAX" in flow.sources
        assert {"RAX", "RDX"} <= flow.destinations

    def test_avx_dest_write_only(self):
        flow = analyze(parse_statement("vpaddd XMM1, XMM2, XMM3"))
        assert "ZMM1" in flow.destinations
        assert "ZMM1" not in flow.sources
        assert {"ZMM2", "ZMM3"} <= flow.sources

    def test_avx_dest_also_source_when_repeated(self):
        flow = analyze(parse_statement("vpaddd XMM1, XMM1, XMM3"))
        assert "ZMM1" in flow.sources

    def test_fma_accumulates(self):
        flow = analyze(parse_statement("vfmadd231pd XMM1, XMM2, XMM3"))
        assert "ZMM1" in flow.sources and "ZMM1" in flow.destinations

    def test_push_pop(self):
        push = analyze(parse_statement("push RAX"))
        assert "RSP" in push.sources and "RSP" in push.destinations
        assert len(push.stores) == 1
        pop = analyze(parse_statement("pop RBX"))
        assert len(pop.loads) == 1


class TestSpecs:
    def test_all_table1_cpus_present(self):
        assert len(TABLE1_CPUS) == 10
        for name in TABLE1_CPUS:
            assert name in MICROARCHITECTURES

    def test_lookup_flexible(self):
        assert get_spec("skylake").name == "Skylake"
        assert get_spec("Sandy Bridge").name == "SandyBridge"
        with pytest.raises(KeyError):
            get_spec("Pentium4")

    def test_table1_cache_parameters(self):
        """Spot-check Table I ground truth."""
        skl = get_spec("Skylake")
        assert skl.l1.size_bytes == 32 * 1024 and skl.l1.associativity == 8
        assert skl.l2.associativity == 4
        assert skl.l2.policy == "QLRU_H00_M1_R2_U1"
        assert skl.l3.policy == "QLRU_H11_M1_R0_U0"
        cnl = get_spec("CannonLake")
        assert cnl.l2.policy == "QLRU_H00_M1_R0_U1"
        ivb = get_spec("IvyBridge")
        assert ivb.l3.associativity == 12
        assert ivb.l3.dueling is not None

    def test_all_l1_are_plru(self):
        for name in TABLE1_CPUS:
            assert get_spec(name).l1.policy == "PLRU"

    def test_dueling_layouts(self):
        ivb = get_spec("IvyBridge").l3.dueling
        assert ivb.classify(3, 520) == "A"     # all slices
        assert ivb.classify(0, 800) == "B"
        assert ivb.classify(0, 100) == "follower"
        hsw = get_spec("Haswell").l3.dueling
        assert hsw.classify(0, 520) == "A"     # slice 0 only
        assert hsw.classify(1, 520) == "follower"
        bdw = get_spec("Broadwell").l3.dueling
        assert bdw.classify(0, 520) == "A"
        assert bdw.classify(1, 520) == "B"     # swapped
        assert bdw.classify(1, 800) == "A"

    def test_port_layouts_exist_for_all_families(self):
        for spec in MICROARCHITECTURES.values():
            assert spec.family in PORT_LAYOUTS

    def test_zen_cannot_disable_prefetchers(self):
        assert not get_spec("Zen").prefetcher_can_disable
        assert get_spec("Skylake").prefetcher_can_disable

    def test_set_counts_cover_dedicated_ranges(self):
        for name in ("IvyBridge", "Haswell", "Broadwell"):
            spec = get_spec(name)
            assert spec.l3.n_sets > 831


class TestDecodeMemo:
    """The process-wide decode memo is keyed by the timing table too."""

    ASM = ("mov RAX, RBX", "mulps XMM0, XMM1")
    UARCHES = ("Skylake", "Nehalem", "SandyBridge", "IvyBridge")

    @staticmethod
    def _decode(uarch, asm):
        from repro.uarch.core import SimulatedCore

        core = SimulatedCore(uarch)
        record, timing, unsafe = core._decode(parse_statement(asm))[1:]
        return (TestDecodeMemo._by_effect(record), timing, unsafe)

    @staticmethod
    def _by_effect(record):
        """*record* with each closure replaced by what it does on one
        seeded core: the executor by the register state it leaves, the
        address closures by the addresses they compute.  Its timings
        are the shared memo's (this core's timing is compared on its
        own), so they are left out."""
        from repro.uarch.core import SimulatedCore
        from repro.x86.registers import GPR64, XMM

        core = SimulatedCore("Skylake")
        for i, name in enumerate(GPR64 + XMM[:4]):
            core.regs.write(name, 0x9E3779B97F4A7C15 * (i + 1))

        def plan(pairs):
            return tuple((address(core), registers)
                         for address, registers in pairs)

        loads, stores = plan(record.loads), plan(record.stores)
        record.execute(core)
        return record._replace(timings=None,
                               execute=core.regs.fingerprint(),
                               loads=loads, stores=stores)

    @staticmethod
    def _run(uarch, asm):
        from repro.core.nanobench import NanoBench

        return NanoBench.kernel(uarch=uarch, seed=0).run(
            asm=asm, n_measurements=3, unroll_count=10,
        )

    def _fresh(self, uarch, asm, what):
        from repro.uarch import core

        core._DECODE_MEMO.clear()
        return what(uarch, asm)

    @pytest.mark.parametrize("order", [1, -1])
    def test_shared_memo_matches_a_cleared_one(self, order):
        from repro.uarch import core

        fresh = {
            (uarch, asm, what.__name__): self._fresh(uarch, asm, what)
            for uarch in self.UARCHES for asm in self.ASM
            for what in (self._decode, self._run)
        }
        core._DECODE_MEMO.clear()
        for uarch in self.UARCHES[::order]:
            for asm in self.ASM:
                for what in (self._decode, self._run):
                    assert what(uarch, asm) == fresh[
                        (uarch, asm, what.__name__)
                    ], (uarch, asm, what.__name__)
        # The cases differ where the families do.
        assert fresh[("Skylake", "mov RAX, RBX", "_decode")][1].eliminated
        assert not fresh[("Nehalem", "mov RAX, RBX", "_decode")][1].eliminated
        assert not fresh[("SandyBridge", "mov RAX, RBX",
                          "_decode")][1].eliminated
        assert fresh[("IvyBridge", "mov RAX, RBX", "_decode")][1].eliminated
        latencies = {
            uarch: fresh[(uarch, "mulps XMM0, XMM1",
                          "_decode")][1].compute_uops[0].latency
            for uarch in self.UARCHES
        }
        assert latencies == {"Skylake": 4, "Nehalem": 4, "SandyBridge": 5,
                             "IvyBridge": 5}

    def test_timing_error_is_never_memoised(self):
        from repro.uarch import core
        from repro.uarch.core import SimulatedCore
        from repro.x86.assembler import assemble

        program = assemble("add RAX, RBX; vfmadd231ps XMM1, XMM2, XMM3")

        def failure():
            sandy = SimulatedCore("SandyBridge")
            with pytest.raises(TimingModelError) as info:
                sandy.run_program(program)
            return str(info.value), sandy.sim_stats.instructions

        core._DECODE_MEMO.clear()
        cleared = failure()
        assert SimulatedCore("Skylake").run_program(program) == 2
        for _ in range(2):
            assert failure() == cleared
        assert cleared[1] == 1
        assert set(core._DECODE_MEMO[program.instructions[1]][1]) == {
            ("SKL", True)
        }

    def test_a_new_core_hashes_no_decoded_instruction(self, monkeypatch):
        # The id front serves an instruction object another core has
        # decoded without hashing its value.
        from repro.uarch.core import SimulatedCore
        from repro.x86.assembler import assemble
        from repro.x86.instructions import Instruction

        program = assemble("add RAX, RBX; imul RCX, RAX; pxor XMM1, XMM1")
        SimulatedCore("Skylake").run_program(program)
        hashed = []
        value_hash = Instruction.__hash__

        def counting_hash(instr):
            hashed.append(instr)
            return value_hash(instr)

        monkeypatch.setattr(Instruction, "__hash__", counting_hash)
        assert SimulatedCore("Skylake").run_program(program) == 3
        assert hashed == []

    def test_memo_stays_within_its_bound(self, monkeypatch):
        from repro.uarch import core
        from repro.uarch.core import SimulatedCore

        monkeypatch.setattr(core, "DECODE_MEMO_LIMIT", 16)
        core._DECODE_MEMO.clear()
        sim = SimulatedCore("Skylake")
        for value in range(100):
            instr = parse_statement("add RAX, %d" % value)
            sim._decode(instr)
            assert len(core._DECODE_MEMO) <= 16
        assert core._DECODE_MEMO
        core._DECODE_MEMO.clear()
