"""Instruction IR and instruction-set metadata.

An :class:`Instruction` is the unit of code everywhere in the library: the
assembler produces them, the encoder serialises them, the functional
simulator executes them and the timing model schedules their µops.

The :data:`INSTRUCTION_SET` catalogue records the architectural metadata
the simulator needs per mnemonic: which status flags are read and written
(including partial-flag behaviour such as INC preserving CF, which case
study I's latency measurements depend on), implicit register operands
(e.g. RDMSR's ECX/EDX:EAX), privilege requirements, and serialization
properties (CPUID, LFENCE, WBINVD — Section IV-A1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from .operands import MemoryOperand, operand_shape

ALL_FLAGS = frozenset({"CF", "PF", "AF", "ZF", "SF", "OF"})
#: Flags written by INC/DEC (everything except CF).
NO_CARRY_FLAGS = frozenset({"PF", "AF", "ZF", "SF", "OF"})

#: Condition code -> flags read.  Used by Jcc, CMOVcc and SETcc.
CONDITION_FLAGS: Dict[str, FrozenSet[str]] = {
    "O": frozenset({"OF"}),
    "NO": frozenset({"OF"}),
    "B": frozenset({"CF"}),
    "C": frozenset({"CF"}),
    "NAE": frozenset({"CF"}),
    "AE": frozenset({"CF"}),
    "NB": frozenset({"CF"}),
    "NC": frozenset({"CF"}),
    "E": frozenset({"ZF"}),
    "Z": frozenset({"ZF"}),
    "NE": frozenset({"ZF"}),
    "NZ": frozenset({"ZF"}),
    "BE": frozenset({"CF", "ZF"}),
    "NA": frozenset({"CF", "ZF"}),
    "A": frozenset({"CF", "ZF"}),
    "NBE": frozenset({"CF", "ZF"}),
    "S": frozenset({"SF"}),
    "NS": frozenset({"SF"}),
    "P": frozenset({"PF"}),
    "NP": frozenset({"PF"}),
    "L": frozenset({"SF", "OF"}),
    "NGE": frozenset({"SF", "OF"}),
    "GE": frozenset({"SF", "OF"}),
    "NL": frozenset({"SF", "OF"}),
    "LE": frozenset({"ZF", "SF", "OF"}),
    "NG": frozenset({"ZF", "SF", "OF"}),
    "G": frozenset({"ZF", "SF", "OF"}),
    "NLE": frozenset({"ZF", "SF", "OF"}),
}


@dataclass(frozen=True)
class InstructionSpec:
    """Architectural metadata for one mnemonic."""

    mnemonic: str
    flags_read: FrozenSet[str] = frozenset()
    flags_written: FrozenSet[str] = frozenset()
    implicit_reads: Tuple[str, ...] = ()
    implicit_writes: Tuple[str, ...] = ()
    privileged: bool = False
    serializing: bool = False
    is_branch: bool = False
    is_load: bool = False
    is_store: bool = False
    #: Pseudo-instructions are nanoBench directives, not real x86.
    pseudo: bool = False


def _spec(mnemonic: str, **kwargs) -> Tuple[str, InstructionSpec]:
    return mnemonic, InstructionSpec(mnemonic=mnemonic, **kwargs)


def _alu(mnemonic: str, reads=frozenset(), writes=ALL_FLAGS, **kw):
    return _spec(mnemonic, flags_read=frozenset(reads), flags_written=frozenset(writes), **kw)


def _build_instruction_set() -> Dict[str, InstructionSpec]:
    entries = [
        # --- data movement -------------------------------------------------
        _spec("MOV"),
        _spec("MOVZX"),
        _spec("MOVSX"),
        _spec("MOVSXD"),
        _spec("LEA"),
        _spec("XCHG"),
        _spec("PUSH", implicit_reads=("RSP",), implicit_writes=("RSP",), is_store=True),
        _spec("POP", implicit_reads=("RSP",), implicit_writes=("RSP",), is_load=True),
        # --- integer ALU ---------------------------------------------------
        _alu("ADD"),
        _alu("SUB"),
        _alu("CMP"),
        _alu("NEG"),
        _alu("ADC", reads={"CF"}),
        _alu("SBB", reads={"CF"}),
        _alu("INC", writes=NO_CARRY_FLAGS),
        _alu("DEC", writes=NO_CARRY_FLAGS),
        _alu("AND"),
        _alu("OR"),
        _alu("XOR"),
        _alu("TEST"),
        _spec("NOT"),
        _alu("SHL"),
        _alu("SHR"),
        _alu("SAR"),
        _alu("ROL", writes=frozenset({"CF", "OF"})),
        _alu("ROR", writes=frozenset({"CF", "OF"})),
        _alu("IMUL"),
        _alu("MUL", implicit_reads=("RAX",), implicit_writes=("RAX", "RDX")),
        _alu("DIV", implicit_reads=("RAX", "RDX"), implicit_writes=("RAX", "RDX")),
        _alu("IDIV", implicit_reads=("RAX", "RDX"), implicit_writes=("RAX", "RDX")),
        _alu("BSF", writes=frozenset({"ZF"})),
        _alu("BSR", writes=frozenset({"ZF"})),
        _alu("POPCNT", writes=ALL_FLAGS),
        _alu("BT", writes=frozenset({"CF"})),
        _alu("BTS", writes=frozenset({"CF"})),
        _alu("BTR", writes=frozenset({"CF"})),
        _spec("CDQ", implicit_reads=("RAX",), implicit_writes=("RDX",)),
        _spec("CQO", implicit_reads=("RAX",), implicit_writes=("RDX",)),
        # --- control flow ---------------------------------------------------
        _spec("JMP", is_branch=True),
        _spec("NOP"),
        # --- vector (SSE/AVX/AVX-512 representatives) -----------------------
        _spec("MOVAPS"), _spec("MOVAPD"), _spec("MOVDQA"), _spec("MOVDQU"),
        _spec("MOVUPS"), _spec("MOVQ"), _spec("MOVD"),
        _spec("PXOR"), _spec("PAND"), _spec("POR"),
        _spec("PADDB"), _spec("PADDW"), _spec("PADDD"), _spec("PADDQ"),
        _spec("PSUBD"), _spec("PMULLD"),
        _spec("ADDPS"), _spec("ADDPD"), _spec("SUBPS"), _spec("SUBPD"),
        _spec("MULPS"), _spec("MULPD"), _spec("DIVPS"), _spec("DIVPD"),
        _spec("ADDSS"), _spec("ADDSD"), _spec("MULSS"), _spec("MULSD"),
        _spec("DIVSD"), _spec("SQRTPD"), _spec("SQRTSD"),
        _spec("VADDPS"), _spec("VADDPD"), _spec("VMULPS"), _spec("VMULPD"),
        _spec("VPADDD"), _spec("VPADDQ"), _spec("VPXOR"), _spec("VPAND"),
        _spec("VFMADD231PS"), _spec("VFMADD231PD"),
        _spec("VMOVAPS"), _spec("VMOVDQA"), _spec("VMOVDQU"),
        _spec("VXORPS"),
        # --- fences & serialization (Section IV-A1) --------------------------
        _spec("LFENCE", serializing=True),
        _spec("MFENCE", serializing=True),
        _spec("SFENCE"),
        _spec(
            "CPUID",
            serializing=True,
            implicit_reads=("RAX", "RCX"),
            implicit_writes=("RAX", "RBX", "RCX", "RDX"),
        ),
        # --- counters / MSRs (Section II) ------------------------------------
        _spec(
            "RDPMC",
            implicit_reads=("RCX",),
            implicit_writes=("RAX", "RDX"),
        ),
        _spec(
            "RDMSR",
            privileged=True,
            implicit_reads=("RCX",),
            implicit_writes=("RAX", "RDX"),
        ),
        _spec(
            "WRMSR",
            privileged=True,
            serializing=True,
            implicit_reads=("RCX", "RAX", "RDX"),
        ),
        _spec("RDTSC", implicit_writes=("RAX", "RDX")),
        _spec("RDTSCP", implicit_writes=("RAX", "RCX", "RDX")),
        # --- cache control ----------------------------------------------------
        _spec("WBINVD", privileged=True, serializing=True),
        _spec("INVD", privileged=True, serializing=True),
        _spec("CLFLUSH"),
        _spec("CLFLUSHOPT"),
        _spec("PREFETCHT0", is_load=True),
        _spec("PREFETCHT1", is_load=True),
        _spec("PREFETCHT2", is_load=True),
        _spec("PREFETCHNTA", is_load=True),
        # --- interrupt control (kernel mode) ----------------------------------
        _spec("CLI", privileged=True),
        _spec("STI", privileged=True),
        _spec("HLT", privileged=True),
        # --- nanoBench pseudo-instructions (Section III-I magic sequences) ----
        _spec("PAUSE_COUNTING", pseudo=True),
        _spec("RESUME_COUNTING", pseudo=True),
    ]
    table = dict(entries)
    # Conditional families share flag-read metadata derived from the
    # condition code.
    for cc, flags in CONDITION_FLAGS.items():
        table["J%s" % cc] = InstructionSpec(
            mnemonic="J%s" % cc, flags_read=flags, is_branch=True
        )
        table["CMOV%s" % cc] = InstructionSpec(
            mnemonic="CMOV%s" % cc, flags_read=flags
        )
        table["SET%s" % cc] = InstructionSpec(
            mnemonic="SET%s" % cc, flags_read=flags
        )
    return table


#: Metadata for every supported mnemonic.
INSTRUCTION_SET: Dict[str, InstructionSpec] = _build_instruction_set()


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction: a mnemonic, operands and optional label.

    ``target`` names a label for branch instructions; labels themselves
    are tracked by :class:`Program`.
    """

    mnemonic: str
    operands: Tuple = ()
    target: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mnemonic", self.mnemonic.upper())
        object.__setattr__(self, "operands", tuple(self.operands))
        if self.mnemonic not in INSTRUCTION_SET:
            raise ValueError("unsupported mnemonic: %r" % (self.mnemonic,))

    @property
    def spec(self) -> InstructionSpec:
        return INSTRUCTION_SET[self.mnemonic]

    @property
    def shape(self) -> str:
        """Operand-shape key for timing lookup, e.g. ``ADD r64 r64``."""
        parts = [self.mnemonic]
        parts.extend(operand_shape(op) for op in self.operands)
        return " ".join(parts)

    @property
    def memory_operands(self) -> Tuple[MemoryOperand, ...]:
        return tuple(op for op in self.operands if isinstance(op, MemoryOperand))

    @property
    def reads_memory(self) -> bool:
        """Whether the instruction loads from memory.

        For most two-operand instructions a memory operand in any source
        position is a load; a memory destination of MOV is store-only.
        """
        if self.spec.is_load:
            return True
        if self.mnemonic in ("CLFLUSH", "CLFLUSHOPT", "LEA", "NOP"):
            return False
        mems = self.memory_operands
        if not mems:
            return False
        if self.mnemonic in ("MOV", "MOVAPS", "MOVAPD", "MOVDQA", "MOVDQU",
                             "MOVUPS", "VMOVAPS", "VMOVDQA", "VMOVDQU",
                             "MOVQ", "MOVD"):
            # Pure moves only load when the memory operand is a source.
            return len(self.operands) >= 2 and isinstance(
                self.operands[1], MemoryOperand
            )
        # Read-modify-write and mem-source ALU ops all load.
        return True

    @property
    def writes_memory(self) -> bool:
        if self.spec.is_store:
            return True
        if self.mnemonic in ("CMP", "TEST", "LEA", "NOP", "CLFLUSH",
                             "CLFLUSHOPT") or self.mnemonic.startswith("PREFETCH"):
            return False
        return bool(self.operands) and isinstance(self.operands[0], MemoryOperand)

    def __str__(self) -> str:
        if self.target is not None:
            return "%s %s" % (self.mnemonic, self.target)
        if not self.operands:
            return self.mnemonic
        return "%s %s" % (self.mnemonic, ", ".join(str(op) for op in self.operands))


@dataclass
class Program:
    """A straight-line instruction sequence with branch labels.

    ``labels`` maps a label name to the index of the instruction it
    precedes (an index equal to ``len(instructions)`` refers to the end).
    """

    instructions: Tuple[Instruction, ...] = ()
    labels: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.instructions = tuple(self.instructions)
        for name, idx in self.labels.items():
            if not 0 <= idx <= len(self.instructions):
                raise ValueError("label %r out of range: %d" % (name, idx))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __add__(self, other: "Program") -> "Program":
        offset = len(self.instructions)
        labels = dict(self.labels)
        for name, idx in other.labels.items():
            if name in labels:
                raise ValueError("duplicate label: %r" % (name,))
            labels[name] = idx + offset
        return Program(self.instructions + other.instructions, labels)

    def __str__(self) -> str:
        by_index: Dict[int, list] = {}
        for name, idx in self.labels.items():
            by_index.setdefault(idx, []).append(name)
        lines = []
        for i, instr in enumerate(self.instructions):
            for name in by_index.get(i, ()):
                lines.append("%s:" % name)
            lines.append(str(instr))
        for name in by_index.get(len(self.instructions), ()):
            lines.append("%s:" % name)
        return "\n".join(lines)
