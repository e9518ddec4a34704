"""A PAPI-style counter API — the paper's second-category baseline.

Section I: "In PAPI ... the calls to start and stop the counters involve
several memory accesses, branches, and for some counters even expensive
system calls.  This leads to unpredictable execution times and might,
e.g., destroy the cache state that was established in the initialization
part of the microbenchmark.  Moreover, these calls will modify
general-purpose registers."

:class:`PapiLikeCounters` reproduces that design on the simulated core:
``start()``/``stop()`` execute a library-call program (prologue, table
walks, branches, counter reads, epilogue) around the benchmark code,
without nanoBench's overhead cancellation.  The overhead-comparison
benchmark (E2) and the noMem experiment (E11) measure its cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import NanoBenchError
from ..perfctr.events import PerfEvent, event_catalog
from ..uarch.core import SimulatedCore
from ..x86.assembler import assemble
from ..x86.instructions import Instruction, Program
from ..x86.operands import Immediate, MemoryOperand, Register

#: Virtual address of the simulated library's internal state.
_LIBRARY_AREA = 0x7000_0000
_LIBRARY_AREA_SIZE = 1 << 16


def _library_call_program(counter_indices: Sequence[int],
                          out_offset: int) -> Program:
    """The instruction stream of one PAPI_start/PAPI_read call.

    Models the real library's work: stack frame setup (PUSH/POP), event-
    table lookups (dependent loads), input validation branches, counter
    reads, and result stores.  Clobbers RAX/RCX/RDX/RBX/RSI — exactly
    the behaviour the paper criticises.
    """
    instructions: List[Instruction] = []
    # Prologue: a call-like stack frame.
    for reg in ("RBX", "RSI", "RDI"):
        instructions.append(Instruction("PUSH", (Register(reg),)))
    # Event-set lookup: pointer chasing through library tables.
    instructions.append(Instruction("MOV", (
        Register("RBX"), Immediate(_LIBRARY_AREA))))
    for _ in range(4):
        instructions.append(Instruction("MOV", (
            Register("RBX"), MemoryOperand(base=Register("RBX")))))
    # Validation branches.
    instructions.append(Instruction("TEST", (Register("RBX"), Register("RBX"))))
    instructions.append(Instruction("JNZ", (), target="papi_ok"))
    instructions.append(Instruction("NOP"))
    label_index = len(instructions)
    # Counter reads + stores to the library's value array.
    for i, index in enumerate(counter_indices):
        instructions.append(Instruction("MOV", (
            Register("RCX"), Immediate(index, width=64))))
        instructions.append(Instruction("RDPMC"))
        instructions.append(Instruction("SHL", (Register("RDX"), Immediate(32))))
        instructions.append(Instruction("OR", (Register("RAX"), Register("RDX"))))
        instructions.append(Instruction("MOV", (
            MemoryOperand(displacement=_LIBRARY_AREA + out_offset + 8 * i),
            Register("RAX"))))
    # Epilogue.
    for reg in ("RDI", "RSI", "RBX"):
        instructions.append(Instruction("POP", (Register(reg),)))
    return Program(tuple(instructions), {"papi_ok": label_index})


class PapiLikeCounters:
    """start/stop counter measurement in the PAPI style."""

    def __init__(self, core: SimulatedCore, events: Sequence[str] = (),
                 *, kernel_mode: bool = False) -> None:
        self.core = core
        self.kernel_mode = kernel_mode
        catalog = event_catalog(core.spec.family, core.spec.n_cboxes)
        self.events: List[PerfEvent] = []
        for name in events:
            if name not in catalog:
                raise NanoBenchError("unknown event %r" % (name,))
            self.events.append(catalog[name])
        if len(self.events) > core.pmu.n_programmable:
            raise NanoBenchError(
                "PAPI-like baseline cannot multiplex: %d events > %d counters"
                % (len(self.events), core.pmu.n_programmable)
            )
        if not core.address_space.is_mapped(_LIBRARY_AREA):
            core.address_space.map_user(_LIBRARY_AREA, _LIBRARY_AREA_SIZE)
            # The event-set table's head pointer points at itself, so the
            # start/stop pointer chase stays inside the library area.
            core.write_memory(_LIBRARY_AREA, 8, _LIBRARY_AREA)
        # The library needs a stack for its call frames.
        stack_base = _LIBRARY_AREA + _LIBRARY_AREA_SIZE
        if not core.address_space.is_mapped(stack_base):
            core.address_space.map_user(stack_base, _LIBRARY_AREA_SIZE)
        if not core.address_space.is_mapped(core.regs.read("RSP")):
            core.regs.write("RSP", stack_base + _LIBRARY_AREA_SIZE - 256)
        self._started: Optional[Dict[str, int]] = None
        self._counter_indices = self._setup_counters()

    def _setup_counters(self) -> List[int]:
        indices = [(1 << 30) | 0, (1 << 30) | 1, (1 << 30) | 2]
        for slot, event in enumerate(self.events):
            self.core.pmu.program(slot, event)
            indices.append(slot)
        return indices

    @property
    def counter_names(self) -> List[str]:
        return ["Instructions retired", "Core cycles", "Reference cycles"] + [
            event.name for event in self.events
        ]

    # ------------------------------------------------------------------
    def _run_library_call(self, out_offset: int) -> Dict[str, int]:
        program = _library_call_program(self._counter_indices, out_offset)
        self.core.run_program(program, kernel_mode=self.kernel_mode)
        values: Dict[str, int] = {}
        for i, name in enumerate(self.counter_names):
            address = self.core.address_space.translate(
                _LIBRARY_AREA + out_offset + 8 * i
            )
            values[name] = self.core.main_memory.read(address, 8)
        return values

    def start(self) -> None:
        """PAPI_start: begin counting (a full library call)."""
        self._started = self._run_library_call(out_offset=0x100)

    def stop(self) -> Dict[str, float]:
        """PAPI_stop: read counters; returns deltas since start()."""
        if self._started is None:
            raise NanoBenchError("stop() without start()")
        stopped = self._run_library_call(out_offset=0x200)
        deltas = {
            name: float(stopped[name] - self._started[name])
            for name in self.counter_names
        }
        self._started = None
        return deltas

    # ------------------------------------------------------------------
    def measure(self, asm: str = "", *, code: Optional[Program] = None,
                repeat: int = 1) -> Dict[str, float]:
        """Measure a code segment PAPI-style (overhead included!).

        Unlike nanoBench there is no unroll differencing and no
        serialization discipline: the reported numbers include the
        start/stop library calls — the paper's point.
        """
        program = code if code is not None else assemble(asm)
        self.start()
        for _ in range(repeat):
            self.core.run_program(program, kernel_mode=self.kernel_mode)
        results = self.stop()
        if repeat > 1:
            results = {k: v / repeat for k, v in results.items()}
        return results
