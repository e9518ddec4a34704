"""Register/flag dataflow extraction for the timing model.

Case study I measures instruction latencies "considering dependencies
between different pairs of input and output operands ... explicit and
implicit dependencies, such as, e.g., dependencies on status flags"
(Section V).  The scheduler therefore needs, per instruction, exactly
which architectural resources it reads and writes.  Resources are
canonical register names (``"RAX"``, ``"ZMM3"``) and individual flag
names (``"CF"`` ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..x86.instructions import Instruction
from ..x86.operands import MemoryOperand, Register

#: Mnemonics whose first (destination) operand is write-only.
_WRITE_ONLY_DEST = frozenset({
    "MOV", "MOVZX", "MOVSX", "MOVSXD", "LEA", "POP",
    "MOVAPS", "MOVAPD", "MOVDQA", "MOVDQU", "MOVUPS",
    "VMOVAPS", "VMOVDQA", "VMOVDQU", "MOVQ", "MOVD",
    "POPCNT", "BSF", "BSR",
})

#: Mnemonics that never write their first operand.
_READ_ONLY_DEST = frozenset({
    "CMP", "TEST", "PUSH", "BT", "JMP",
    "CLFLUSH", "CLFLUSHOPT",
    "PREFETCHT0", "PREFETCHT1", "PREFETCHT2", "PREFETCHNTA",
})


@dataclass(frozen=True)
class Dataflow:
    """Resources read and written by one instruction."""

    sources: FrozenSet[str]
    destinations: FrozenSet[str]
    #: Memory operands that are loaded from / stored to.
    loads: Tuple[MemoryOperand, ...]
    stores: Tuple[MemoryOperand, ...]


def analyze(instr: Instruction) -> Dataflow:
    """Extract the dataflow of *instr*."""
    spec = instr.spec
    mnemonic = instr.mnemonic
    sources = set()
    destinations = set()

    # Explicit operands.
    for position, operand in enumerate(instr.operands):
        # Address registers of memory operands are always read.
        if isinstance(operand, MemoryOperand):
            sources.update(operand.registers_read)
        if position == 0:
            if isinstance(operand, Register):
                writes = mnemonic not in _READ_ONLY_DEST
                reads = mnemonic not in _WRITE_ONLY_DEST
                # SETcc writes a fresh byte but merges into the register.
                if mnemonic.startswith("SET"):
                    writes, reads = True, True
                if writes:
                    destinations.add(operand.base)
                if reads:
                    sources.add(operand.base)
            continue
        if isinstance(operand, Register):
            sources.add(operand.base)
        # Memory reads are modelled as load µops, not register sources.

    # AVX three-operand forms: the first operand is write-only — but it
    # stays a source if the same register also appears as src1/src2.
    if len(instr.operands) == 3 and mnemonic.startswith("V"):
        first = instr.operands[0]
        if isinstance(first, Register):
            destinations.add(first.base)
            read_elsewhere = any(
                isinstance(op, Register) and op.base == first.base
                for op in instr.operands[1:]
            )
            if not read_elsewhere:
                sources.discard(first.base)
    # FMA reads its destination as the accumulator.
    if mnemonic.startswith("VFMADD"):
        first = instr.operands[0]
        if isinstance(first, Register):
            sources.add(first.base)

    # Implicit operands and flags.
    sources.update(spec.implicit_reads)
    destinations.update(spec.implicit_writes)
    sources.update(spec.flags_read)
    destinations.update(spec.flags_written)

    # Memory operands -> load/store µop lists.
    loads = []
    stores = []
    mems = instr.memory_operands
    if mems:
        if instr.reads_memory:
            source_mem = mems[-1] if len(mems) > 1 else mems[0]
            loads.append(source_mem)
        if instr.writes_memory:
            stores.append(mems[0])
    if mnemonic == "PUSH":
        # The store goes to the post-decrement stack slot.
        stores.append(
            MemoryOperand(base=Register("RSP"), displacement=-8, size=8)
        )
    elif mnemonic == "POP":
        loads.append(MemoryOperand(base=Register("RSP"), size=8))

    return Dataflow(
        sources=frozenset(sources),
        destinations=frozenset(destinations),
        loads=tuple(loads),
        stores=tuple(stores),
    )
