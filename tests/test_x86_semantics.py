"""Functional-semantics tests, run on a full simulated core."""

import pytest

from repro.errors import ExecutionError, PrivilegeError
from repro.uarch.core import SimulatedCore
from repro.x86.assembler import assemble


@pytest.fixture()
def core():
    machine = SimulatedCore("Skylake", seed=0)
    machine.address_space.map_user(0x100000, 1 << 16)
    machine.regs.write("R14", 0x100000)
    machine.regs.write("RSP", 0x100000 + 0x8000)
    return machine


def run(core, asm, kernel=False):
    core.run_program(assemble(asm), kernel_mode=kernel)
    return core


class TestDataMovement:
    def test_mov_imm_and_reg(self, core):
        run(core, "mov RAX, 5; mov RBX, RAX")
        assert core.regs.read("RBX") == 5

    def test_load_store(self, core):
        run(core, "mov RAX, 123; mov [R14+8], RAX; mov RBX, [R14+8]")
        assert core.regs.read("RBX") == 123

    def test_store_sizes(self, core):
        run(core, "mov RAX, 0x11223344AABBCCDD; mov dword ptr [R14], EAX")
        assert core.read_memory(0x100000, 8) == 0xAABBCCDD

    def test_movzx_movsx(self, core):
        run(core, "mov RAX, 0xFF; movzx RBX, AL; movsx RCX, AL")
        assert core.regs.read("RBX") == 0xFF
        assert core.regs.read("RCX") == (1 << 64) - 1

    def test_lea(self, core):
        run(core, "mov RBX, 10; mov RCX, 3; lea RAX, [RBX + RCX*4 + 2]")
        assert core.regs.read("RAX") == 24

    def test_xchg(self, core):
        run(core, "mov RAX, 1; mov RBX, 2; xchg RAX, RBX")
        assert core.regs.read("RAX") == 2 and core.regs.read("RBX") == 1

    def test_push_pop(self, core):
        rsp = core.regs.read("RSP")
        run(core, "mov RAX, 77; push RAX; pop RBX")
        assert core.regs.read("RBX") == 77
        assert core.regs.read("RSP") == rsp


class TestArithmetic:
    def test_add_flags(self, core):
        run(core, "mov RAX, -1; add RAX, 1")
        assert core.regs.read("RAX") == 0
        assert core.regs.read_flag("ZF")
        assert core.regs.read_flag("CF")
        assert not core.regs.read_flag("OF")

    def test_signed_overflow(self, core):
        run(core, "mov RAX, 0x7FFFFFFFFFFFFFFF; add RAX, 1")
        assert core.regs.read_flag("OF")
        assert core.regs.read_flag("SF")
        assert not core.regs.read_flag("CF")

    def test_sub_borrow(self, core):
        run(core, "mov RAX, 1; sub RAX, 2")
        assert core.regs.read("RAX") == (1 << 64) - 1
        assert core.regs.read_flag("CF")

    def test_adc_sbb_chain(self, core):
        run(core, "mov RAX, -1; add RAX, 1; mov RBX, 0; adc RBX, 0")
        assert core.regs.read("RBX") == 1  # carried in
        run(core, "mov RAX, 0; sub RAX, 1; mov RCX, 5; sbb RCX, 0")
        assert core.regs.read("RCX") == 4

    def test_inc_preserves_cf(self, core):
        run(core, "mov RAX, -1; add RAX, 1; inc RBX")
        assert core.regs.read_flag("CF")  # INC must not clear CF

    def test_dec_preserves_cf(self, core):
        run(core, "mov RAX, -1; add RAX, 1; mov RBX, 5; dec RBX")
        assert core.regs.read_flag("CF")
        assert not core.regs.read_flag("ZF")

    def test_neg(self, core):
        run(core, "mov RAX, 5; neg RAX")
        assert core.regs.read("RAX") == (1 << 64) - 5
        assert core.regs.read_flag("CF")

    def test_imul(self, core):
        run(core, "mov RAX, 7; imul RAX, RAX")
        assert core.regs.read("RAX") == 49

    def test_imul_three_operand(self, core):
        run(core, "mov RBX, 6; imul RAX, RBX, 7")
        assert core.regs.read("RAX") == 42

    def test_mul_wide(self, core):
        run(core, "mov RAX, 0xFFFFFFFFFFFFFFFF; mov RBX, 2; mul RBX")
        assert core.regs.read("RAX") == 0xFFFFFFFFFFFFFFFE
        assert core.regs.read("RDX") == 1

    def test_div(self, core):
        run(core, "mov RDX, 0; mov RAX, 100; mov RBX, 7; div RBX")
        assert core.regs.read("RAX") == 14
        assert core.regs.read("RDX") == 2

    def test_div_by_zero(self, core):
        with pytest.raises(ExecutionError):
            run(core, "mov RBX, 0; div RBX")

    def test_idiv_signed(self, core):
        run(core, "mov RAX, -100; cqo; mov RBX, 7; idiv RBX")
        assert core.regs.read("RAX") == (1 << 64) - 14

    def test_32bit_wraps(self, core):
        run(core, "mov EAX, 0xFFFFFFFF; add EAX, 1")
        assert core.regs.read("RAX") == 0
        assert core.regs.read_flag("ZF")


class TestLogicAndShifts:
    def test_logic_clears_cf_of(self, core):
        run(core, "mov RAX, -1; add RAX, 1; mov RBX, 3; and RBX, 1")
        assert not core.regs.read_flag("CF")
        assert not core.regs.read_flag("OF")
        assert core.regs.read("RBX") == 1

    def test_test_does_not_write(self, core):
        run(core, "mov RAX, 6; test RAX, 2")
        assert core.regs.read("RAX") == 6
        assert not core.regs.read_flag("ZF")

    def test_shl_shr_sar(self, core):
        run(core, "mov RAX, 3; shl RAX, 4")
        assert core.regs.read("RAX") == 48
        run(core, "mov RBX, 48; shr RBX, 4")
        assert core.regs.read("RBX") == 3
        run(core, "mov RCX, -16; sar RCX, 2")
        assert core.regs.read("RCX") == (1 << 64) - 4

    def test_rotates(self, core):
        run(core, "mov RAX, 1; ror RAX, 1")
        assert core.regs.read("RAX") == 1 << 63
        run(core, "rol RAX, 1")
        assert core.regs.read("RAX") == 1

    def test_bsf_bsr_popcnt(self, core):
        run(core, "mov RAX, 0x48; bsf RBX, RAX; bsr RCX, RAX; popcnt RDX, RAX")
        assert core.regs.read("RBX") == 3
        assert core.regs.read("RCX") == 6
        assert core.regs.read("RDX") == 2

    def test_bit_ops(self, core):
        run(core, "mov RAX, 0; bts RAX, 5; bt RAX, 5")
        assert core.regs.read("RAX") == 32
        assert core.regs.read_flag("CF")
        run(core, "btr RAX, 5")
        assert core.regs.read("RAX") == 0


class TestControlFlow:
    def test_loop(self, core):
        run(core, "mov R15, 5; mov RAX, 0; top: add RAX, 2; "
                  "sub R15, 1; jnz top")
        assert core.regs.read("RAX") == 10

    def test_jmp(self, core):
        run(core, "mov RAX, 1; jmp skip; mov RAX, 99; skip: add RAX, 1")
        assert core.regs.read("RAX") == 2

    def test_cmov(self, core):
        run(core, "mov RAX, 1; mov RBX, 2; cmp RAX, RAX; cmovz RAX, RBX")
        assert core.regs.read("RAX") == 2
        run(core, "mov RCX, 9; cmp RAX, RBX; cmovnz RCX, RBX")
        assert core.regs.read("RCX") == 9  # equal -> no move

    def test_setcc(self, core):
        run(core, "mov RAX, 5; cmp RAX, 5; setz BL; setnz CL")
        assert core.regs.read("BL") == 1
        assert core.regs.read("CL") == 0

    def test_signed_conditions(self, core):
        run(core, "mov RAX, -5; cmp RAX, 3; setl BL; setb CL")
        assert core.regs.read("BL") == 1  # signed less
        assert core.regs.read("CL") == 0  # unsigned: huge > 3

    def test_runaway_guard(self, core):
        with pytest.raises(ExecutionError):
            core.run_program(assemble("top: jmp top"), max_instructions=1000)


class TestVector:
    def test_paddd_lanes(self, core):
        run(core, "mov RAX, 0x0000000200000001; mov [R14], RAX; "
                  "movq XMM1, [R14]; movq XMM2, [R14]; paddd XMM1, XMM2; "
                  "movq [R14+16], XMM1")
        assert core.read_memory(0x100000 + 16, 8) == 0x0000000400000002

    def test_pxor_zeroes(self, core):
        run(core, "pxor XMM3, XMM3")
        assert core.regs.read("XMM3") == 0

    def test_vpaddd_three_operand(self, core):
        run(core, "mov RAX, 7; mov [R14], RAX; movq XMM1, [R14]; "
                  "mov RAX, 8; mov [R14+8], RAX; movq XMM2, [R14+8]; "
                  "vpaddd XMM3, XMM1, XMM2; movq [R14+16], XMM3")
        assert core.read_memory(0x100000 + 16, 8) == 15

    def test_addsd(self, core):
        import struct
        bits = struct.unpack("<Q", struct.pack("<d", 1.5))[0]
        core.write_memory(0x100000, 8, bits)
        run(core, "movq XMM1, [R14]; addsd XMM1, XMM1; movq [R14+8], XMM1")
        result = struct.unpack(
            "<d", struct.pack("<Q", core.read_memory(0x100000 + 8, 8))
        )[0]
        assert result == 3.0

    def test_divsd_by_zero_gives_inf(self, core):
        import math
        import struct
        core.write_memory(0x100000, 8,
                          struct.unpack("<Q", struct.pack("<d", 1.0))[0])
        run(core, "movq XMM1, [R14]; pxor XMM2, XMM2; divsd XMM1, XMM2; "
                  "movq [R14+8], XMM1")
        result = struct.unpack(
            "<d", struct.pack("<Q", core.read_memory(0x100000 + 8, 8))
        )[0]
        assert math.isinf(result)


class TestSystem:
    def test_privileged_in_user_mode(self, core):
        for asm in ("rdmsr", "wrmsr", "wbinvd", "cli", "hlt"):
            with pytest.raises(PrivilegeError):
                run(core, "mov RCX, 0xE8; xor RAX, RAX; xor RDX, RDX; " + asm)

    def test_privileged_in_kernel_mode(self, core):
        run(core, "mov RCX, 0xE8; rdmsr", kernel=True)  # APERF, no fault

    def test_cpuid_vendor_string(self, core):
        run(core, "xor RAX, RAX; cpuid")
        assert core.regs.read("EBX") == 0x756E6547  # "Genu"

    def test_rdtsc_monotone(self, core):
        run(core, "rdtsc; mov RBX, RAX; add RCX, 1; rdtsc")
        assert core.regs.read("RAX") >= core.regs.read("RBX")

    def test_rdpmc_fixed_counter(self, core):
        run(core, "mov RCX, 0x40000000; rdpmc")
        assert core.regs.read("RAX") > 0  # instructions retired so far

    def test_wbinvd_flushes(self, core):
        run(core, "mov RAX, [R14]")
        assert core.hierarchy.probe_level(core.virt_to_phys(0x100000)) == 1
        run(core, "wbinvd", kernel=True)
        assert core.hierarchy.probe_level(core.virt_to_phys(0x100000)) == 0

    def test_clflush(self, core):
        run(core, "mov RAX, [R14]; clflush [R14]")
        assert core.hierarchy.probe_level(core.virt_to_phys(0x100000)) == 0

    def test_prefetch_fills_cache(self, core):
        run(core, "prefetcht0 [R14+128]")
        assert core.hierarchy.probe_level(
            core.virt_to_phys(0x100000 + 128)) >= 1


# ----------------------------------------------------------------------
# A pinned semantics stream: every mnemonic with semantics, over the
# operand shapes of the instruction corpus, from seeded register, flag
# and memory states, with the state (or fault) after each instruction
# hashed.  A rewrite of the executors must keep the digest.

#: Mnemonics the corpus never uses, and the corpus mnemonic whose
#: operands they borrow (``None``: no operands).
_PIN_BORROW = {
    "ADDSS": "ADDSD", "MULSS": "MULSD", "CLFLUSHOPT": "CLFLUSH",
    "PREFETCHNTA": "CLFLUSH", "PREFETCHT0": "CLFLUSH",
    "PREFETCHT1": "CLFLUSH", "PREFETCHT2": "CLFLUSH",
    "IDIV": "DIV", "MUL": "DIV", "MOVAPD": "MOVAPS", "MOVUPS": "MOVAPS",
    "VMOVAPS": "MOVAPS", "VMOVDQA": "MOVAPS", "VMOVDQU": "MOVAPS",
    "MOVD": "MOVQ", "VADDPD": "VADDPS", "VMULPS": "VADDPS",
    "VPADDQ": "VPADDD", "VPAND": "VPXOR", "VXORPS": "VPXOR",
}
#: Malformed or rare forms, to pin the fault paths as well.
_PIN_EXTRA = (
    "lea RAX, RBX", "clflush RAX", "prefetcht0 RAX", "add 5, RAX",
    "mov 5, RAX", "imul RAX, RBX, 7", "imul RBX", "push 9",
    "pop qword ptr [R14]", "xchg [R14], RAX", "movsx EAX, BH",
    "mov AH, BL", "mov word ptr [RBX+RCX*4+8], CX", "shl RAX, CL",
    "sar EAX, CL", "rol AX, CL", "bts RAX, RCX", "btr EAX, 35",
    "neg byte ptr [R14]", "not AH", "sub AL, 200",
)
_PIN_VALUES = (0, 1, 2, 31, 32, 63, 64, 0x7F, 0x80, 0xFFFFFFFF,
               1 << 31, 1 << 63, (1 << 64) - 1)


class _PinContext:
    """A deterministic machine for the pinned stream: sparse memory
    whose unwritten bytes are a function of the address, and counter,
    MSR and clock reads that are functions of their index."""

    def __init__(self, seed, kernel):
        from repro.x86.registers import RegisterFile

        self.regs = RegisterFile()
        self.seed = seed
        self.kernel = kernel
        self.memory = {}
        self.log = []

    def _byte(self, address):
        if address not in self.memory:
            return ((address * 2654435761 + self.seed) >> 5) & 0xFF
        return self.memory[address]

    def read_memory(self, address, size):
        self.log.append(("read", address, size))
        return int.from_bytes(bytes(self._byte(address + i)
                                    for i in range(size)), "little")

    def write_memory(self, address, size, value):
        for i, byte in enumerate(value.to_bytes(size, "little")):
            self.memory[address + i] = byte

    def is_kernel_mode(self):
        return self.kernel

    def rdmsr(self, index):
        return (index * 0x9E3779B97F4A7C15 + self.seed) & ((1 << 64) - 1)

    def wrmsr(self, index, value):
        self.log.append(("wrmsr", index, value))

    def rdpmc(self, index):
        return (index * 0x2545F4914F6CDD1D + self.seed) & ((1 << 48) - 1)

    def rdtsc(self):
        return 0x1234_5678_9ABC + self.seed

    def cpuid(self, eax, ecx):
        return eax ^ 0x16, ecx + 1, eax & 0xFF, self.seed

    def wbinvd(self):
        self.log.append(("wbinvd",))

    def clflush(self, address):
        self.log.append(("clflush", address))

    def prefetch(self, address, level):
        self.log.append(("prefetch", address, level))


def _pin_instructions():
    from repro.tools.instr.corpus import build_corpus
    from repro.x86 import semantics
    from repro.x86.assembler import parse_statement
    from repro.x86.instructions import Instruction

    seen = {}
    for variant in build_corpus():
        for asm in (variant.init_asm, variant.latency_asm,
                    variant.throughput_asm):
            for instr in assemble(asm).instructions if asm else ():
                seen.setdefault(instr.mnemonic, {})[str(instr)] = instr
    instructions = []
    for mnemonic in semantics.supported_mnemonics():
        if mnemonic in seen:
            forms = [seen[mnemonic][text] for text in sorted(seen[mnemonic])]
        elif mnemonic.startswith("J"):
            forms = [Instruction(mnemonic, (), target="L")]
        elif mnemonic[:3] in ("CMO", "SET"):
            donors = [m for m in sorted(seen) if m[:3] == mnemonic[:3]]
            forms = [Instruction(mnemonic, instr.operands)
                     for m in donors for _, instr in sorted(seen[m].items())]
        elif mnemonic in _PIN_BORROW:
            donor = seen[_PIN_BORROW[mnemonic]]
            forms = [Instruction(mnemonic, donor[text].operands)
                     for text in sorted(donor)]
        else:
            forms = [Instruction(mnemonic)]
        instructions.extend(forms)
    instructions.extend(parse_statement(text) for text in _PIN_EXTRA)
    instructions.append(Instruction("LEA", (parse_statement(
        "mov RAX, RBX").operands[0],)))
    return instructions


def _pin_stream(trials):
    """``(instruction, trial, outcome, state)`` records, one per run."""
    import random

    from repro.x86 import semantics
    from repro.x86.registers import FLAGS, GPR64, ZMM

    for instr in _pin_instructions():
        for trial in range(trials):
            rng = random.Random("%s|%d" % (instr, trial))
            ctx = _PinContext(rng.getrandbits(16), kernel=trial % 2 == 1)
            for name in GPR64:
                ctx.regs.write(name, rng.choice(_PIN_VALUES)
                               if rng.random() < 0.4 else rng.getrandbits(64))
            for name in ZMM:
                ctx.regs.write(name, rng.getrandbits(512))
            for flag in FLAGS:
                ctx.regs.write_flag(flag, rng.random() < 0.5)
            try:
                outcome = ("ok", semantics.execute(ctx, instr))
            except Exception as exc:  # faults are part of the stream
                outcome = (type(exc).__name__, str(exc))
            yield (str(instr), trial, outcome, ctx.regs.fingerprint(),
                   sorted(ctx.memory.items()), ctx.log)


class TestPinnedSemantics:
    def test_every_mnemonic_is_covered(self):
        from repro.x86 import semantics

        covered = {instr.mnemonic for instr in _pin_instructions()}
        assert covered == set(semantics.supported_mnemonics())

    def test_stream_digest(self):
        import hashlib

        digest = hashlib.sha256()
        faults = 0
        for record in _pin_stream(trials=4):
            digest.update(repr(record).encode())
            faults += record[2][0] != "ok"
        assert faults > 0
        assert digest.hexdigest()[:24] == "f18f5edcf6e9b53dfb437a9d"
