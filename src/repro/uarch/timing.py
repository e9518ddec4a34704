"""Per-instruction µop decomposition and latency tables.

The timing table tells the scheduler, for each instruction, which
*compute* µops it issues (as functional port classes that a
:class:`~repro.uarch.ports.PortLayout` resolves to concrete ports) and
their latencies.  Load and store µops are added by the scheduler itself
based on the instruction's memory operands, with load latency coming
from the cache hierarchy.

The numbers model the publicly documented behaviour of the respective
microarchitectures (Intel's optimization manual, Agner Fog's tables and
uops.info): 1-cycle ALU ops, 3-cycle multiplies, 4-cycle L1 loads,
family-dependent FP latencies, eliminated register moves and zeroing
idioms, and microcoded instructions (CPUID, RDMSR, WBINVD) with —
crucially for Section IV-A1 — CPUID's *variable* µop count and latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import TimingModelError
from ..x86.instructions import Instruction
from ..x86.operands import MemoryOperand, Register


@dataclass(frozen=True)
class ComputeUop:
    """One execution µop: a functional port class plus a latency."""

    port_class: str
    latency: int = 1


@dataclass(frozen=True)
class InstructionTiming:
    """Scheduler-facing timing description of one instruction."""

    compute_uops: Tuple[ComputeUop, ...] = ()
    #: Move elimination / zeroing idiom: issued but never dispatched.
    eliminated: bool = False
    #: Dependency-breaking (zeroing idioms): ignore register sources.
    breaks_dependency: bool = False
    #: LFENCE-style fence handled specially by the scheduler.
    is_fence: bool = False
    fence_latency: int = 0
    #: Microcoded: µop count drawn uniformly from this range per run.
    microcoded: bool = False
    microcode_uops: Tuple[int, int] = (0, 0)
    #: Extra fixed latency beyond the µops (microcoded instructions).
    base_latency: int = 0
    #: Run-to-run latency jitter (CPUID!), added uniformly in [0, jitter].
    latency_jitter: int = 0


def _uops(*pairs) -> Tuple[ComputeUop, ...]:
    return tuple(ComputeUop(cls, lat) for cls, lat in pairs)


_ALU1 = InstructionTiming(_uops(("ALU", 1)))
_SHIFT1 = InstructionTiming(_uops(("SHIFT", 1)))
_NONE = InstructionTiming(())

#: Mnemonic -> default timing (family overrides below).
_BASE_TABLE: Dict[str, InstructionTiming] = {
    "MOV": _ALU1,  # reg-reg move; elimination applied in lookup()
    "MOVZX": _ALU1,
    "MOVSX": _ALU1,
    "MOVSXD": _ALU1,
    "LEA": InstructionTiming(_uops(("LEA", 1))),
    "XCHG": InstructionTiming(_uops(("ALU", 1), ("ALU", 1), ("ALU", 1))),
    "PUSH": InstructionTiming(_uops(("ALU", 1))),
    "POP": InstructionTiming(_uops(("ALU", 1))),
    "ADD": _ALU1, "SUB": _ALU1, "CMP": _ALU1, "NEG": _ALU1,
    "ADC": _ALU1, "SBB": _ALU1,
    "INC": _ALU1, "DEC": _ALU1,
    "AND": _ALU1, "OR": _ALU1, "XOR": _ALU1, "TEST": _ALU1, "NOT": _ALU1,
    "SHL": _SHIFT1, "SHR": _SHIFT1, "SAR": _SHIFT1,
    "ROL": _SHIFT1, "ROR": _SHIFT1,
    "IMUL": InstructionTiming(_uops(("MUL", 3))),
    "MUL": InstructionTiming(_uops(("MUL", 3), ("ALU", 1))),
    "DIV": InstructionTiming(_uops(("DIV", 36))),
    "IDIV": InstructionTiming(_uops(("DIV", 42))),
    "BSF": InstructionTiming(_uops(("MUL", 3))),
    "BSR": InstructionTiming(_uops(("MUL", 3))),
    "POPCNT": InstructionTiming(_uops(("MUL", 3))),
    "BT": _ALU1, "BTS": _ALU1, "BTR": _ALU1,
    "CDQ": _ALU1, "CQO": _ALU1,
    "NOP": InstructionTiming((), eliminated=True),
    "JMP": InstructionTiming(_uops(("BRANCH", 1))),
    # vector moves / logic / integer
    "MOVAPS": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "MOVAPD": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "MOVDQA": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "MOVDQU": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "MOVUPS": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "VMOVAPS": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "VMOVDQA": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "VMOVDQU": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "MOVQ": InstructionTiming(_uops(("VEC_INT", 2))),
    "MOVD": InstructionTiming(_uops(("VEC_INT", 2))),
    "PXOR": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "VPXOR": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "VXORPS": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "PAND": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "VPAND": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "POR": InstructionTiming(_uops(("VEC_LOGIC", 1))),
    "PADDB": InstructionTiming(_uops(("VEC_INT", 1))),
    "PADDW": InstructionTiming(_uops(("VEC_INT", 1))),
    "PADDD": InstructionTiming(_uops(("VEC_INT", 1))),
    "PADDQ": InstructionTiming(_uops(("VEC_INT", 1))),
    "VPADDD": InstructionTiming(_uops(("VEC_INT", 1))),
    "VPADDQ": InstructionTiming(_uops(("VEC_INT", 1))),
    "PSUBD": InstructionTiming(_uops(("VEC_INT", 1))),
    "PMULLD": InstructionTiming(_uops(("VEC_FP_MUL", 10))),
    # FP arithmetic (family-specific latencies via overrides)
    "ADDPS": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "ADDPD": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "SUBPS": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "SUBPD": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "ADDSS": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "ADDSD": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "VADDPS": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "VADDPD": InstructionTiming(_uops(("VEC_FP_ADD", 4))),
    "MULPS": InstructionTiming(_uops(("VEC_FP_MUL", 4))),
    "MULPD": InstructionTiming(_uops(("VEC_FP_MUL", 4))),
    "MULSS": InstructionTiming(_uops(("VEC_FP_MUL", 4))),
    "MULSD": InstructionTiming(_uops(("VEC_FP_MUL", 4))),
    "VMULPS": InstructionTiming(_uops(("VEC_FP_MUL", 4))),
    "VMULPD": InstructionTiming(_uops(("VEC_FP_MUL", 4))),
    "DIVPS": InstructionTiming(_uops(("VEC_DIV", 11))),
    "DIVPD": InstructionTiming(_uops(("VEC_DIV", 14))),
    "DIVSD": InstructionTiming(_uops(("VEC_DIV", 14))),
    "SQRTPD": InstructionTiming(_uops(("VEC_DIV", 18))),
    "SQRTSD": InstructionTiming(_uops(("VEC_DIV", 18))),
    "VFMADD231PS": InstructionTiming(_uops(("FMA", 4))),
    "VFMADD231PD": InstructionTiming(_uops(("FMA", 4))),
    # fences (Section IV-A1)
    "LFENCE": InstructionTiming((), is_fence=True, fence_latency=6),
    "MFENCE": InstructionTiming((), is_fence=True, fence_latency=33),
    "SFENCE": InstructionTiming((), is_fence=True, fence_latency=6),
    # microcoded system instructions
    "CPUID": InstructionTiming(
        (), microcoded=True, microcode_uops=(30, 80),
        base_latency=95, latency_jitter=450,
    ),
    "RDPMC": InstructionTiming(
        (), microcoded=True, microcode_uops=(10, 10), base_latency=25,
    ),
    "RDMSR": InstructionTiming(
        (), microcoded=True, microcode_uops=(40, 40), base_latency=150,
    ),
    "WRMSR": InstructionTiming(
        (), microcoded=True, microcode_uops=(50, 50), base_latency=250,
    ),
    "RDTSC": InstructionTiming(
        (), microcoded=True, microcode_uops=(15, 15), base_latency=25,
    ),
    "RDTSCP": InstructionTiming(
        (), microcoded=True, microcode_uops=(20, 20), base_latency=32,
    ),
    "WBINVD": InstructionTiming(
        (), microcoded=True, microcode_uops=(100, 100), base_latency=20000,
    ),
    "INVD": InstructionTiming(
        (), microcoded=True, microcode_uops=(100, 100), base_latency=20000,
    ),
    "CLFLUSH": InstructionTiming(_uops(("STORE_ADDR", 2)), base_latency=6),
    "CLFLUSHOPT": InstructionTiming(_uops(("STORE_ADDR", 2)), base_latency=4),
    "PREFETCHT0": InstructionTiming(()),
    "PREFETCHT1": InstructionTiming(()),
    "PREFETCHT2": InstructionTiming(()),
    "PREFETCHNTA": InstructionTiming(()),
    "CLI": InstructionTiming((), microcoded=True, microcode_uops=(4, 4),
                             base_latency=10),
    "STI": InstructionTiming((), microcoded=True, microcode_uops=(4, 4),
                             base_latency=10),
    "HLT": InstructionTiming((), microcoded=True, microcode_uops=(10, 10),
                             base_latency=100),
    "PAUSE_COUNTING": InstructionTiming((), eliminated=True),
    "RESUME_COUNTING": InstructionTiming((), eliminated=True),
}

#: Conditional families (Jcc / CMOVcc / SETcc) resolved by prefix.
_CONDITIONAL_DEFAULTS = {
    "J": InstructionTiming(_uops(("BRANCH", 1))),
    "CMOV": _ALU1,
    "SET": _ALU1,
}

#: mnemonic -> {family -> latency} overrides for the first compute µop.
_FAMILY_LATENCY_OVERRIDES: Dict[str, Dict[str, int]] = {
    "ADDPS": {"HSW": 3, "SNB": 3, "NHM": 3, "ZEN": 3},
    "ADDPD": {"HSW": 3, "SNB": 3, "NHM": 3, "ZEN": 3},
    "SUBPS": {"HSW": 3, "SNB": 3, "NHM": 3, "ZEN": 3},
    "SUBPD": {"HSW": 3, "SNB": 3, "NHM": 3, "ZEN": 3},
    "ADDSS": {"HSW": 3, "SNB": 3, "NHM": 3, "ZEN": 3},
    "ADDSD": {"HSW": 3, "SNB": 3, "NHM": 3, "ZEN": 3},
    "VADDPS": {"HSW": 3, "SNB": 3, "ZEN": 3},
    "VADDPD": {"HSW": 3, "SNB": 3, "ZEN": 3},
    "MULPS": {"HSW": 5, "SNB": 5, "NHM": 4, "ZEN": 3},
    "MULPD": {"HSW": 5, "SNB": 5, "NHM": 5, "ZEN": 3},
    "MULSS": {"HSW": 5, "SNB": 5, "NHM": 4, "ZEN": 3},
    "MULSD": {"HSW": 5, "SNB": 5, "NHM": 5, "ZEN": 3},
    "VMULPS": {"HSW": 5, "SNB": 5, "ZEN": 3},
    "VMULPD": {"HSW": 5, "SNB": 5, "ZEN": 3},
    "VFMADD231PS": {"HSW": 5, "ZEN": 5},
    "VFMADD231PD": {"HSW": 5, "ZEN": 5},
    "PMULLD": {"HSW": 10, "SNB": 5, "NHM": 6, "ZEN": 4},
    "DIV": {"ZEN": 20},
    "IDIV": {"ZEN": 24},
}

#: Instructions absent on older families (lookup raises).
_UNSUPPORTED: Dict[str, Tuple[str, ...]] = {
    "VFMADD231PS": ("SNB", "NHM"),
    "VFMADD231PD": ("SNB", "NHM"),
    "CLFLUSHOPT": ("SNB", "NHM"),
}

#: Zeroing idioms: dependency-breaking and (on >= Sandy Bridge) executed
#: at rename without consuming an execution port.
_ZEROING_MNEMONICS = frozenset({"XOR", "SUB", "PXOR", "VPXOR", "VXORPS"})


class TimingTable:
    """Timing lookup for one microarchitecture family.

    ``move_elimination`` controls whether reg-reg MOVs are eliminated
    (introduced with Ivy Bridge for GPRs).
    """

    def __init__(self, family: str, move_elimination: bool = True) -> None:
        self.family = family
        self.move_elimination = move_elimination

    # ------------------------------------------------------------------
    def _base_timing(self, mnemonic: str) -> InstructionTiming:
        timing = _BASE_TABLE.get(mnemonic)
        if timing is not None:
            return timing
        for prefix, default in _CONDITIONAL_DEFAULTS.items():
            if mnemonic.startswith(prefix):
                return default
        raise TimingModelError(
            "no timing information for %r on family %s"
            % (mnemonic, self.family)
        )

    def _apply_latency_override(
        self, mnemonic: str, timing: InstructionTiming
    ) -> InstructionTiming:
        override = _FAMILY_LATENCY_OVERRIDES.get(mnemonic, {}).get(self.family)
        if override is None or not timing.compute_uops:
            return timing
        first = timing.compute_uops[0]
        new_uops = (ComputeUop(first.port_class, override),) + timing.compute_uops[1:]
        return InstructionTiming(
            new_uops,
            eliminated=timing.eliminated,
            breaks_dependency=timing.breaks_dependency,
            is_fence=timing.is_fence,
            fence_latency=timing.fence_latency,
            microcoded=timing.microcoded,
            microcode_uops=timing.microcode_uops,
            base_latency=timing.base_latency,
            latency_jitter=timing.latency_jitter,
        )

    # ------------------------------------------------------------------
    def lookup(self, instr: Instruction) -> InstructionTiming:
        """Timing for *instr*, with shape-dependent refinements."""
        mnemonic = instr.mnemonic
        if mnemonic in _UNSUPPORTED and self.family in _UNSUPPORTED[mnemonic]:
            raise TimingModelError(
                "%s is not available on family %s" % (mnemonic, self.family)
            )
        # Zeroing idioms: XOR RAX, RAX etc.
        if mnemonic in _ZEROING_MNEMONICS and self._is_zeroing(instr):
            return InstructionTiming((), eliminated=True, breaks_dependency=True)
        # Register-register moves: eliminated at rename on IVB+.
        if self.move_elimination and self._is_eliminable_move(instr):
            return InstructionTiming((), eliminated=True)
        timing = self._base_timing(mnemonic)
        timing = self._apply_latency_override(mnemonic, timing)
        # Complex LEA (base + index + displacement) has 3-cycle latency
        # and is restricted to port 1.
        if mnemonic == "LEA" and len(instr.operands) == 2:
            mem = instr.operands[1]
            if (
                isinstance(mem, MemoryOperand)
                and mem.base is not None
                and mem.index is not None
                and mem.displacement != 0
            ):
                return InstructionTiming(_uops(("MUL", 3)))
        # A pure reg<-mem MOV has no compute µop at all: the load µop the
        # scheduler adds is the whole instruction.
        if self._is_pure_move_load(instr):
            return InstructionTiming(())
        # A pure mem<-reg MOV likewise: only store µops.
        if self._is_pure_move_store(instr):
            return InstructionTiming(())
        return timing

    # ------------------------------------------------------------------
    @staticmethod
    def _is_zeroing(instr: Instruction) -> bool:
        ops = instr.operands
        return (
            len(ops) == 2
            and all(isinstance(op, Register) for op in ops)
            and ops[0] == ops[1]
        )

    @staticmethod
    def _is_eliminable_move(instr: Instruction) -> bool:
        if instr.mnemonic not in ("MOV", "MOVAPS", "MOVAPD", "MOVDQA",
                                  "VMOVAPS", "VMOVDQA", "MOVUPS", "MOVDQU",
                                  "VMOVDQU"):
            return False
        ops = instr.operands
        return (
            len(ops) == 2
            and all(isinstance(op, Register) for op in ops)
            and ops[0].width >= 32
        )

    _PURE_MOVES = frozenset({
        "MOV", "MOVAPS", "MOVAPD", "MOVDQA", "MOVDQU", "MOVUPS",
        "VMOVAPS", "VMOVDQA", "VMOVDQU", "MOVQ", "MOVD",
    })

    def _is_pure_move_load(self, instr: Instruction) -> bool:
        return (
            instr.mnemonic in self._PURE_MOVES
            and len(instr.operands) == 2
            and isinstance(instr.operands[1], MemoryOperand)
        )

    def _is_pure_move_store(self, instr: Instruction) -> bool:
        return (
            instr.mnemonic in self._PURE_MOVES
            and len(instr.operands) == 2
            and isinstance(instr.operands[0], MemoryOperand)
        )
