"""x86-64 register model.

Provides the general-purpose register file with 64/32/16/8-bit aliasing
(``RAX``/``EAX``/``AX``/``AL``/``AH``), the RFLAGS status bits that the
timing model tracks as individual dependency-carrying resources, and a
small vector register file (XMM/YMM/ZMM viewed as integers).

nanoBench microbenchmarks "may use and modify any general-purpose and
vector registers, including the stack pointer" (Section III); the
:class:`RegisterFile` therefore supports save/restore snapshots, which the
generated code of Algorithm 1 uses in its ``saveRegs``/``restoreRegs``
steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

#: Canonical 64-bit general-purpose register names, in encoding order.
GPR64 = (
    "RAX", "RCX", "RDX", "RBX", "RSP", "RBP", "RSI", "RDI",
    "R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15",
)

_GPR32 = (
    "EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI",
    "R8D", "R9D", "R10D", "R11D", "R12D", "R13D", "R14D", "R15D",
)

_GPR16 = (
    "AX", "CX", "DX", "BX", "SP", "BP", "SI", "DI",
    "R8W", "R9W", "R10W", "R11W", "R12W", "R13W", "R14W", "R15W",
)

_GPR8 = (
    "AL", "CL", "DL", "BL", "SPL", "BPL", "SIL", "DIL",
    "R8B", "R9B", "R10B", "R11B", "R12B", "R13B", "R14B", "R15B",
)

#: High-byte registers, aliasing bits 8..15 of the first four GPRs.
_GPR8_HIGH = ("AH", "CH", "DH", "BH")

#: Individual status flags modelled as separate dependency resources.
#: Partial flag updates (e.g. INC leaving CF intact) create distinct
#: dependency chains, which case study I measures explicitly.
FLAGS = ("CF", "PF", "AF", "ZF", "SF", "OF")

#: RFLAGS bit positions for the modelled flags.
FLAG_BITS = {"CF": 0, "PF": 2, "AF": 4, "ZF": 6, "SF": 7, "OF": 11}

#: Vector registers.  ZMM registers alias YMM which alias XMM.
VEC_COUNT = 32
XMM = tuple("XMM%d" % i for i in range(VEC_COUNT))
YMM = tuple("YMM%d" % i for i in range(VEC_COUNT))
ZMM = tuple("ZMM%d" % i for i in range(VEC_COUNT))

@dataclass(frozen=True)
class RegisterView:
    """A named view onto part of a canonical register.

    ``base`` is the canonical 64-bit register (or vector register),
    ``width`` the view width in bits and ``shift`` the bit offset inside
    the base register (8 for the legacy high-byte registers).
    """

    name: str
    base: str
    width: int
    shift: int = 0

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.shift


def _build_views() -> Dict[str, RegisterView]:
    views: Dict[str, RegisterView] = {}
    for i, base in enumerate(GPR64):
        views[base] = RegisterView(base, base, 64)
        views[_GPR32[i]] = RegisterView(_GPR32[i], base, 32)
        views[_GPR16[i]] = RegisterView(_GPR16[i], base, 16)
        views[_GPR8[i]] = RegisterView(_GPR8[i], base, 8)
    for i, name in enumerate(_GPR8_HIGH):
        views[name] = RegisterView(name, GPR64[i], 8, shift=8)
    for i in range(VEC_COUNT):
        base = ZMM[i]
        views[base] = RegisterView(base, base, 512)
        views[YMM[i]] = RegisterView(YMM[i], base, 256)
        views[XMM[i]] = RegisterView(XMM[i], base, 128)
    views["RIP"] = RegisterView("RIP", "RIP", 64)
    return views


#: Mapping from every accepted register name to its view descriptor.
REGISTER_VIEWS: Dict[str, RegisterView] = _build_views()

_VECTOR_BASES = frozenset(ZMM)

Reader = Callable[["RegisterFile"], int]
Writer = Callable[["RegisterFile", int], None]


def _view_accessors(view: RegisterView) -> Tuple[Reader, Writer]:
    """Read and write *view* in a :class:`RegisterFile`, with the x86-64
    aliasing rules: vector writes zero the upper lanes (VEX/EVEX
    semantics), 32-bit writes zero-extend into the full register, and
    16- and 8-bit writes keep the other bits."""
    base, shift, mask = view.base, view.shift, (1 << view.width) - 1
    if base in _VECTOR_BASES:
        def write(regs, value):
            regs.vec[base] = value & mask
        return (lambda regs: regs.vec[base] & mask), write
    if view.width >= 32:
        def write(regs, value):
            regs.gpr[base] = value & mask
        return (lambda regs: regs.gpr[base] & mask), write
    keep = ~view.mask

    def write(regs, value):
        gpr = regs.gpr
        gpr[base] = (gpr[base] & keep) | ((value & mask) << shift)
    return (lambda regs: (regs.gpr[base] >> shift) & mask), write


_ACCESSORS = {name: _view_accessors(view)
              for name, view in REGISTER_VIEWS.items()}


def _lookup(table: dict, name: str):
    """*table*'s entry for register *name*.  Operand names are
    upper-case already, so the name is upper-cased only on a miss."""
    entry = table.get(name)
    if entry is None:
        entry = table.get(name.upper())
        if entry is None:
            raise KeyError("unknown register: %r" % (name,))
    return entry


def register_view(name: str) -> RegisterView:
    """The view of register *name* (case-insensitive)."""
    return _lookup(REGISTER_VIEWS, name)


def register_accessors(name: str) -> Tuple[Reader, Writer]:
    """The reader and writer of register *name* (case-insensitive) over
    a :class:`RegisterFile`: the one place its aliasing rules live."""
    return _lookup(_ACCESSORS, name)


def is_register_name(name: str) -> bool:
    """Return whether *name* (case-insensitive) names a register."""
    return name.upper() in REGISTER_VIEWS


def canonical_register(name: str) -> str:
    """Return the canonical full-width register backing *name*.

    >>> canonical_register("eax")
    'RAX'
    """
    return register_view(name).base


def register_width(name: str) -> int:
    """Return the width of register *name* in bits."""
    return register_view(name).width


class RegisterFile:
    """The architectural register state of one simulated logical core.

    Values are stored per canonical register as Python ints; sub-register
    reads and writes go through :class:`RegisterView` masks, with the
    x86-64 rule that 32-bit writes zero the upper half of the register
    while 16- and 8-bit writes preserve it.
    """

    def __init__(self) -> None:
        #: Values per canonical register and per flag; the bound
        #: executors of :mod:`repro.x86.semantics` use these slots.
        self.gpr: Dict[str, int] = {r: 0 for r in GPR64}
        self.gpr["RIP"] = 0
        self.vec: Dict[str, int] = {r: 0 for r in ZMM}
        self.flags: Dict[str, bool] = {f: False for f in FLAGS}

    # ------------------------------------------------------------------
    # General reads/writes
    # ------------------------------------------------------------------
    def read(self, name: str) -> int:
        """Read register *name*, returning its unsigned value."""
        return register_accessors(name)[0](self)

    def write(self, name: str, value: int) -> None:
        """Write *value* to register *name* with x86-64 aliasing rules."""
        register_accessors(name)[1](self, value)

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    def read_flag(self, flag: str) -> bool:
        return self.flags[flag]

    def write_flag(self, flag: str, value: bool) -> None:
        self.flags[flag] = bool(value)

    def read_rflags(self) -> int:
        """Return the RFLAGS value (modelled bits only, bit 1 set)."""
        value = 1 << 1  # reserved, always 1
        for flag, bit in FLAG_BITS.items():
            if self.flags[flag]:
                value |= 1 << bit
        return value

    def write_rflags(self, value: int) -> None:
        for flag, bit in FLAG_BITS.items():
            self.flags[flag] = bool(value & (1 << bit))

    # ------------------------------------------------------------------
    # Snapshots (saveRegs / restoreRegs of Algorithm 1)
    # ------------------------------------------------------------------
    def snapshot(self) -> "RegisterSnapshot":
        """Capture the full architectural state."""
        return RegisterSnapshot(
            gpr=dict(self.gpr), vec=dict(self.vec), flags=dict(self.flags)
        )

    def restore(self, snap: "RegisterSnapshot") -> None:
        """Restore a previously captured state."""
        self.gpr = dict(snap.gpr)
        self.vec = dict(snap.vec)
        self.flags = dict(snap.flags)

    def fingerprint(self) -> tuple:
        """The full architectural state as one comparable value."""
        return (tuple(self.gpr.items()), tuple(self.vec.items()),
                tuple(self.flags.items()))

    def differing_registers(self, snap: "RegisterSnapshot") -> Tuple[str, ...]:
        """Return canonical registers whose value differs from *snap*."""
        diffs = [r for r, v in self.gpr.items() if snap.gpr.get(r) != v]
        diffs += [r for r, v in self.vec.items() if snap.vec.get(r) != v]
        return tuple(diffs)


@dataclass
class RegisterSnapshot:
    """Immutable-by-convention copy of a :class:`RegisterFile` state."""

    gpr: Dict[str, int] = field(default_factory=dict)
    vec: Dict[str, int] = field(default_factory=dict)
    flags: Dict[str, bool] = field(default_factory=dict)
