"""Code generation for microbenchmarks (Algorithm 1 / Section IV-B).

nanoBench runs a microbenchmark by generating a function::

    saveRegs
    codeInit
    m1 <- readPerfCtrs            # no function calls, no branches
    for j in 0..loopCount:        # omitted when loopCount == 0
        code  (x localUnrollCount copies)
    m2 <- readPerfCtrs
    restoreRegs
    return (m2 - m1) / (max(1, loopCount) * localUnrollCount)

This module builds the measured part of that function as a
:class:`~repro.x86.instructions.Program`: counter-read sequences
(LFENCE- or CPUID-serialized, registers preserved via the scratch area),
the unrolled/looped benchmark body, and the noMem register-resident
variant.  Register save/restore is performed by the runner through an
architectural snapshot, which is observationally equivalent (it happens
strictly outside the measured region).

Magic pause/resume byte sequences inside the benchmark code are
replaced here (Section IV-B): the pause toggle is fenced so that
straddling µops cannot leak across the boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import NanoBenchError
from ..x86.instructions import Instruction, Program
from ..x86.operands import Immediate, MemoryOperand, Register
from .options import NanoBenchOptions

# ----------------------------------------------------------------------
# Scratch memory areas (Section III-G): nanoBench initializes RSP, RBP,
# RDI, RSI and R14 to point into dedicated 1 MB areas.
# ----------------------------------------------------------------------
AREA_SIZE = 1 << 20

R14_AREA_BASE = 0x1000_0000
RSP_AREA_BASE = 0x2000_0000
RBP_AREA_BASE = 0x3000_0000
RDI_AREA_BASE = 0x4000_0000
RSI_AREA_BASE = 0x5000_0000
#: Internal area for counter values and register spills (not visible to
#: the benchmark).
MEASUREMENT_AREA_BASE = 0x6000_0000
MEASUREMENT_AREA_SIZE = 1 << 16

#: Byte offsets inside the measurement area.
_SPILL_OFFSET = 0x0         # RAX/RCX/RDX spill slots
_M1_OFFSET = 0x100          # first counter-read results
_M2_OFFSET = 0x800          # second counter-read results
#: Post-measurement dump of the noMem registers.  Deliberately NOT
#: congruent (mod L1 sets) with the spill line: the entire point of
#: noMem mode is that nothing the measurement does conflicts with the
#: benchmark's cache sets beyond what the user can see (Section III-I).
_NOMEM_OUT_OFFSET = 0x1040

SCRATCH_REGISTERS = {
    "R14": R14_AREA_BASE,
    "RSP": RSP_AREA_BASE + AREA_SIZE // 2,
    "RBP": RBP_AREA_BASE + AREA_SIZE // 2,
    "RDI": RDI_AREA_BASE,
    "RSI": RSI_AREA_BASE,
}

#: Registers holding accumulated counter values in noMem mode; the
#: benchmark must not modify them (Section III-I).
NOMEM_REGISTERS = ("R8", "R9", "R10", "R11", "R12", "R13")

#: The pseudo-instructions the magic byte sequences decode to
#: (Section IV-B).
MAGIC_MNEMONICS = ("PAUSE_COUNTING", "RESUME_COUNTING")

#: The loop counter register the benchmark must not modify when
#: loop_count > 0 (Section III-B).
LOOP_REGISTER = "R15"


@dataclass(frozen=True)
class CounterRead:
    """One counter to read in the measurement sequence."""

    name: str
    kind: str  # "fixed", "programmable", "msr"
    index: int  # RDPMC index or MSR address

    @property
    def rdpmc_index(self) -> int:
        if self.kind == "fixed":
            return (1 << 30) | self.index
        if self.kind == "programmable":
            return self.index
        raise NanoBenchError("%s is not RDPMC-readable" % (self.name,))


@dataclass
class GeneratedCode:
    """The generated measurement function plus its result layout."""

    program: Program
    counters: Tuple[CounterRead, ...]
    local_unroll_count: int
    loop_count: int
    no_mem: bool
    #: ``(start_index, body_length, copies)`` of the unrolled benchmark
    #: body inside ``program.instructions``, or ``None`` when the body
    #: is not eligible for the simulator's clean-body semantics skip
    #: (internal labels, or it clobbers registers the generated
    #: loop/measurement code reads).
    unroll_region: Optional[Tuple[int, int, int]] = None

    @property
    def m1_addresses(self) -> List[int]:
        return [MEASUREMENT_AREA_BASE + _M1_OFFSET + 8 * i
                for i in range(len(self.counters))]

    @property
    def m2_addresses(self) -> List[int]:
        return [MEASUREMENT_AREA_BASE + _M2_OFFSET + 8 * i
                for i in range(len(self.counters))]

    @property
    def nomem_addresses(self) -> List[int]:
        return [MEASUREMENT_AREA_BASE + _NOMEM_OUT_OFFSET + 8 * i
                for i in range(len(self.counters))]


# ----------------------------------------------------------------------
# Measurement-block instructions.  Every generated program shares the
# same instruction objects, so the simulator decodes each one once per
# process (by identity, without hashing its value).  The per-counter
# and per-address memos are bounded.
# ----------------------------------------------------------------------

#: Bound on each memo of shared measurement-block instructions.
SHARED_INSTRUCTION_LIMIT = 256


def _mem(address: int, size: int = 8) -> MemoryOperand:
    return MemoryOperand(displacement=address, size=size)


@functools.lru_cache(maxsize=SHARED_INSTRUCTION_LIMIT)
def _mov_imm(register: str, value: int) -> Instruction:
    return Instruction("MOV", (Register(register), Immediate(value, width=64)))


@functools.lru_cache(maxsize=SHARED_INSTRUCTION_LIMIT)
def _store(address: int, register: str) -> Instruction:
    """``MOV [address], register``: a result store."""
    return Instruction("MOV", (_mem(address), Register(register)))


_LFENCE = Instruction("LFENCE")
#: CPUID: set RAX to a fixed value first, which removes the
#: input-dependent µop-count variation (but not the latency jitter).
_CPUID_SERIALIZER = (
    Instruction("MOV", (Register("RAX"), Immediate(0))),
    Instruction("CPUID"),
)


def _serializer_instructions(serializer: str) -> Tuple[Instruction, ...]:
    """Serialization barrier around counter reads (Section IV-A1)."""
    return (_LFENCE,) if serializer == "lfence" else _CPUID_SERIALIZER


#: Status flags a counter read leaves holding a function of the counter
#: value: its last instruction, ``OR RAX, RDX``, sets them from the
#: value and clears CF, OF and AF.
COUNTER_READ_FLAGS = frozenset({"ZF", "SF", "PF"})


def counter_read_flags(value: int) -> Dict[str, bool]:
    """``COUNTER_READ_FLAGS`` as a counter read of *value* leaves them."""
    return {"ZF": value == 0, "SF": value >> 63 == 1,
            "PF": bin(value & 0xFF).count("1") % 2 == 0}


_RDPMC = Instruction("RDPMC")
_RDMSR = Instruction("RDMSR")
_COUNTER_COMBINE = (
    Instruction("SHL", (Register("RDX"), Immediate(32))),
    Instruction("OR", (Register("RAX"), Register("RDX"))),
)


@functools.lru_cache(maxsize=SHARED_INSTRUCTION_LIMIT)
def _read_one_counter(counter: CounterRead) -> Tuple[Instruction, ...]:
    """RDPMC/RDMSR one counter into RAX (clobbers RCX/RDX)."""
    if counter.kind == "msr":
        read, index = _RDMSR, counter.index
    else:
        read, index = _RDPMC, counter.rdpmc_index
    return (_mov_imm("RCX", index), read) + _COUNTER_COMBINE


_SPILL_ADDRESS = MEASUREMENT_AREA_BASE + _SPILL_OFFSET
_SPILL_REGS = tuple(_store(_SPILL_ADDRESS + 8 * i, register)
                    for i, register in enumerate(("RAX", "RCX", "RDX")))
_RESTORE_REGS = tuple(
    Instruction("MOV", (Register(register), _mem(_SPILL_ADDRESS + 8 * i)))
    for i, register in enumerate(("RAX", "RCX", "RDX"))
)


def read_perf_ctrs_to_memory(
    counters: Sequence[CounterRead], out_offset: int, serializer: str
) -> List[Instruction]:
    """The readPerfCtrs block, storing results to the measurement area.

    "Stores results in memory, does not modify registers" (Algorithm 1):
    RAX/RCX/RDX are spilled first and restored afterwards.
    """
    instructions: List[Instruction] = []
    instructions += _SPILL_REGS
    instructions += _serializer_instructions(serializer)
    for i, counter in enumerate(counters):
        instructions += _read_one_counter(counter)
        instructions.append(
            _store(MEASUREMENT_AREA_BASE + out_offset + 8 * i, "RAX")
        )
    instructions += _serializer_instructions(serializer)
    instructions += _RESTORE_REGS
    return instructions


def check_nomem_counter_limit(n_counters: int) -> None:
    """noMem mode keeps each counter in its own register (Section III-I)."""
    if n_counters > len(NOMEM_REGISTERS):
        raise NanoBenchError(
            "noMem mode supports at most %d counters, got %d"
            % (len(NOMEM_REGISTERS), n_counters)
        )


def read_perf_ctrs_nomem(
    counters: Sequence[CounterRead], serializer: str, *, first: bool
) -> List[Instruction]:
    """The noMem readPerfCtrs block (Section III-I).

    The first read negates the counter value into R8..; the second adds
    the new value, leaving the difference in the register.  RAX/RCX/RDX
    are clobbered (noMem's documented register constraints).
    """
    check_nomem_counter_limit(len(counters))
    instructions: List[Instruction] = []
    instructions += _serializer_instructions(serializer)
    for register, counter in zip(NOMEM_REGISTERS, counters):
        instructions += _read_one_counter(counter)
        if first:
            instructions += _NOMEM_NEGATE[register]  # R = -value
        else:
            instructions.append(_NOMEM_ADD[register])
    instructions += _serializer_instructions(serializer)
    return instructions


_NOMEM_NEGATE = {
    register: (Instruction("XOR", (Register(register), Register(register))),
               Instruction("SUB", (Register(register), Register("RAX"))))
    for register in NOMEM_REGISTERS
}
_NOMEM_ADD = {
    register: Instruction("ADD", (Register(register), Register("RAX")))
    for register in NOMEM_REGISTERS
}


def _dump_nomem_registers(counters: Sequence[CounterRead]) -> List[Instruction]:
    """Store the accumulated noMem registers after the measurement."""
    return [_store(MEASUREMENT_AREA_BASE + _NOMEM_OUT_OFFSET + 8 * i, register)
            for i, register in enumerate(NOMEM_REGISTERS[:len(counters)])]


def _replace_magic_sequences(
    body: List[Instruction], no_mem: bool
) -> List[Instruction]:
    """Expand PAUSE/RESUME pseudo-instructions (Section IV-B).

    Pausing is only supported in noMem mode (Section III-I); the toggle
    is fenced so in-flight µops cannot straddle the boundary.
    """
    if not any(instr.mnemonic in MAGIC_MNEMONICS for instr in body):
        return body
    if not no_mem:
        raise NanoBenchError(
            "pause/resume magic sequences require noMem mode"
        )
    replaced: List[Instruction] = []
    for instr in body:
        if instr.mnemonic == "PAUSE_COUNTING":
            replaced.append(_LFENCE)
            replaced.append(instr)
        elif instr.mnemonic == "RESUME_COUNTING":
            replaced.append(instr)
            replaced.append(_LFENCE)
        else:
            replaced.append(instr)
    return replaced


def _unroll_region_for(
    body: Sequence[Instruction],
    start_index: int,
    copies: int,
    code: Program,
    options: NanoBenchOptions,
    counters: Sequence[CounterRead],
    *,
    looped: bool,
) -> Optional[Tuple[int, int, int]]:
    """Fast-path eligibility of the unrolled body (or ``None``).

    In a clean body (see ``repro.uarch.core._is_clean``) the simulator
    schedules every copy after the first without executing its
    functional semantics.  That is only sound when nothing *outside*
    the region reads a register the body writes: the loop counter
    (``SUB``/``JNZ`` branch on its value) and, in noMem mode, the
    counter-accumulator registers (their values become the measurement
    results).  The generated measurement blocks address
    memory absolutely and regenerate RAX/RCX/RDX themselves, so no
    other register value reaches a counter value, address or branch.
    The one place a body register value lands is the memory-mode
    counter read's spill of RAX/RCX/RDX (``_SPILL_REGS``), restored
    unchanged and read by nothing else; those spill slots may therefore
    differ from exact execution.
    """
    if not body or copies < 2 or code.labels:
        return None
    from ..uarch.core import decode_flow
    protected = set()
    if looped:
        protected.add(LOOP_REGISTER)
    if options.no_mem:
        protected.update(NOMEM_REGISTERS[:len(counters)])
    for instr in body:
        if not protected.isdisjoint(decode_flow(instr).destinations):
            return None
    return (start_index, len(body), copies)


#: The loop's counter update and back-edge (Section III-B).
_LOOP_TAIL = (
    Instruction("SUB", (Register(LOOP_REGISTER), Immediate(1))),
    Instruction("JNZ", (), target="nb_loop"),
)


def ensure_unrollable(code: Program, unroll_count: int) -> None:
    """Refuse to unroll a benchmark with labels: every copy would define
    them again.  Every backend checks this before it measures."""
    if code.labels and unroll_count > 1:
        raise NanoBenchError(
            "benchmarks with labels cannot be unrolled; use loop_count"
        )


def generate(
    code: Program,
    init: Program,
    counters: Sequence[CounterRead],
    options: NanoBenchOptions,
    local_unroll_count: int,
) -> GeneratedCode:
    """Generate the measurement function of Algorithm 1.

    ``local_unroll_count`` may differ from ``options.unroll_count``:
    nanoBench generates two versions (n and 2n, or 0 and n) and reports
    the difference (Section III-C).
    """
    ensure_unrollable(code, local_unroll_count)
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}

    # codeInit (line 3).
    instructions.extend(init.instructions)

    # m1 <- readPerfCtrs (line 4).
    if options.no_mem:
        instructions += read_perf_ctrs_nomem(
            counters, options.serializer, first=True
        )
    else:
        instructions += read_perf_ctrs_to_memory(
            counters, _M1_OFFSET, options.serializer
        )

    # Loop + unrolled copies (lines 5-9).
    body = _replace_magic_sequences(list(code.instructions), options.no_mem)
    unrolled: List[Instruction] = []
    for _ in range(local_unroll_count):
        unrolled.extend(body)
    unroll_region: Optional[Tuple[int, int, int]] = None
    if options.loop_count > 0 and local_unroll_count > 0:
        instructions.append(_mov_imm(LOOP_REGISTER, options.loop_count))
        labels["nb_loop"] = len(instructions)
        if code.labels and local_unroll_count == 1:
            offset = len(instructions)
            for name, index in code.labels.items():
                labels[name] = index + offset
        unroll_region = _unroll_region_for(
            body, len(instructions), local_unroll_count, code, options,
            counters, looped=True,
        )
        instructions.extend(unrolled)
        instructions += _LOOP_TAIL
    else:
        if code.labels and local_unroll_count == 1:
            # A single, un-unrolled copy keeps its internal labels.
            offset = len(instructions)
            for name, index in code.labels.items():
                labels[name] = index + offset
        unroll_region = _unroll_region_for(
            body, len(instructions), local_unroll_count, code, options,
            counters, looped=False,
        )
        instructions.extend(unrolled)

    # m2 <- readPerfCtrs (line 10).
    if options.no_mem:
        instructions += read_perf_ctrs_nomem(
            counters, options.serializer, first=False
        )
        instructions += _dump_nomem_registers(counters)
    else:
        instructions += read_perf_ctrs_to_memory(
            counters, _M2_OFFSET, options.serializer
        )

    program = Program(tuple(instructions), labels)
    return GeneratedCode(
        program=program,
        counters=tuple(counters),
        local_unroll_count=local_unroll_count,
        loop_count=options.loop_count,
        no_mem=options.no_mem,
        unroll_region=unroll_region,
    )
