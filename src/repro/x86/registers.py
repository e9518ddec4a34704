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
from typing import Dict, Tuple

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

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK16 = (1 << 16) - 1
_MASK8 = (1 << 8) - 1


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

#: All names the assembler accepts as registers.
REGISTER_NAMES = frozenset(REGISTER_VIEWS)


def is_register_name(name: str) -> bool:
    """Return whether *name* (case-insensitive) names a register."""
    return name.upper() in REGISTER_VIEWS


def canonical_register(name: str) -> str:
    """Return the canonical full-width register backing *name*.

    >>> canonical_register("eax")
    'RAX'
    """
    view = REGISTER_VIEWS.get(name.upper())
    if view is None:
        raise KeyError("unknown register: %r" % (name,))
    return view.base


def register_width(name: str) -> int:
    """Return the width of register *name* in bits."""
    view = REGISTER_VIEWS.get(name.upper())
    if view is None:
        raise KeyError("unknown register: %r" % (name,))
    return view.width


def is_vector_register(name: str) -> bool:
    """Return whether *name* is an XMM/YMM/ZMM register."""
    upper = name.upper()
    return upper.startswith(("XMM", "YMM", "ZMM")) and upper in REGISTER_VIEWS


class RegisterFile:
    """The architectural register state of one simulated logical core.

    Values are stored per canonical register as Python ints; sub-register
    reads and writes go through :class:`RegisterView` masks, with the
    x86-64 rule that 32-bit writes zero the upper half of the register
    while 16- and 8-bit writes preserve it.
    """

    def __init__(self) -> None:
        self._gpr: Dict[str, int] = {r: 0 for r in GPR64}
        self._gpr["RIP"] = 0
        self._vec: Dict[str, int] = {r: 0 for r in ZMM}
        self._flags: Dict[str, bool] = {f: False for f in FLAGS}

    # ------------------------------------------------------------------
    # General reads/writes
    # ------------------------------------------------------------------
    def read(self, name: str) -> int:
        """Read register *name*, returning its unsigned value."""
        view = REGISTER_VIEWS[name.upper()]
        store = self._vec if view.base in self._vec else self._gpr
        return (store[view.base] >> view.shift) & ((1 << view.width) - 1)

    def write(self, name: str, value: int) -> None:
        """Write *value* to register *name* with x86-64 aliasing rules."""
        view = REGISTER_VIEWS[name.upper()]
        value &= (1 << view.width) - 1
        if view.base in self._vec:
            if view.width in (128, 256):
                # Vector writes zero the upper lanes (VEX/EVEX semantics).
                self._vec[view.base] = value
            else:
                self._vec[view.base] = value
            return
        if view.width == 64:
            self._gpr[view.base] = value
        elif view.width == 32:
            # 32-bit writes zero-extend into the full register.
            self._gpr[view.base] = value
        else:
            old = self._gpr[view.base]
            self._gpr[view.base] = (old & ~view.mask) | (value << view.shift)

    # ------------------------------------------------------------------
    # Flags
    # ------------------------------------------------------------------
    def read_flag(self, flag: str) -> bool:
        return self._flags[flag]

    def write_flag(self, flag: str, value: bool) -> None:
        self._flags[flag] = bool(value)

    def read_rflags(self) -> int:
        """Return the RFLAGS value (modelled bits only, bit 1 set)."""
        value = 1 << 1  # reserved, always 1
        for flag, bit in FLAG_BITS.items():
            if self._flags[flag]:
                value |= 1 << bit
        return value

    def write_rflags(self, value: int) -> None:
        for flag, bit in FLAG_BITS.items():
            self._flags[flag] = bool(value & (1 << bit))

    # ------------------------------------------------------------------
    # Snapshots (saveRegs / restoreRegs of Algorithm 1)
    # ------------------------------------------------------------------
    def snapshot(self) -> "RegisterSnapshot":
        """Capture the full architectural state."""
        return RegisterSnapshot(
            gpr=dict(self._gpr), vec=dict(self._vec), flags=dict(self._flags)
        )

    def restore(self, snap: "RegisterSnapshot") -> None:
        """Restore a previously captured state."""
        self._gpr = dict(snap.gpr)
        self._vec = dict(snap.vec)
        self._flags = dict(snap.flags)

    def fingerprint(self) -> tuple:
        """The full architectural state as one comparable value."""
        return (tuple(self._gpr.items()), tuple(self._vec.items()),
                tuple(self._flags.items()))

    def differing_registers(self, snap: "RegisterSnapshot") -> Tuple[str, ...]:
        """Return canonical registers whose value differs from *snap*."""
        diffs = [r for r, v in self._gpr.items() if snap.gpr.get(r) != v]
        diffs += [r for r, v in self._vec.items() if snap.vec.get(r) != v]
        return tuple(diffs)


@dataclass
class RegisterSnapshot:
    """Immutable-by-convention copy of a :class:`RegisterFile` state."""

    gpr: Dict[str, int] = field(default_factory=dict)
    vec: Dict[str, int] = field(default_factory=dict)
    flags: Dict[str, bool] = field(default_factory=dict)
