"""Functional semantics for the supported x86 subset.

Each supported mnemonic has a *binder* ``instr -> executor`` in one
table.  A binder resolves the instruction's operands once: a register
operand becomes its view's accessor (``registers.register_accessors``),
an immediate its value, and a memory operand an effective-address
closure.
The executor it returns, ``(ctx) -> Optional[str]``, then updates
architectural state through an :class:`ExecutionContext` with no
per-call dispatch.  The simulated core binds each distinct instruction
once, at decode (gem5 binds ``execute`` to its decoded ``StaticInst``
the same way); :func:`execute` binds and runs in one call.

The context abstracts the machine a benchmark runs on: the simulated
core provides one backed by the cache hierarchy, the PMU, and the
privilege model, so that e.g. ``RDMSR`` faults in user mode and
``WBINVD`` really flushes the simulated caches.

Executors return ``None`` to fall through, or a label name to branch to.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable, Dict, Optional, Protocol, Tuple

from ..errors import ExecutionError, PrivilegeError
from .instructions import Instruction
from .operands import Immediate, MemoryOperand, Register
from .registers import ZMM, RegisterFile, register_accessors


class ExecutionContext(Protocol):
    """Machine interface the executors run against."""

    regs: RegisterFile

    def read_memory(self, address: int, size: int) -> int: ...

    def write_memory(self, address: int, size: int, value: int) -> None: ...

    def is_kernel_mode(self) -> bool: ...

    def rdmsr(self, index: int) -> int: ...

    def wrmsr(self, index: int, value: int) -> None: ...

    def rdpmc(self, index: int) -> int: ...

    def rdtsc(self) -> int: ...

    def cpuid(self, eax: int, ecx: int) -> Tuple[int, int, int, int]: ...

    def wbinvd(self) -> None: ...

    def clflush(self, address: int) -> None: ...

    def prefetch(self, address: int, level: int) -> None: ...


#: A bound instruction: runs it against a context, returns a label or None.
Executor = Callable[[ExecutionContext], Optional[str]]
Reader = Callable[[ExecutionContext], int]
Writer = Callable[[ExecutionContext, int], None]

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_VECTOR = frozenset(ZMM)
#: PF per low result byte: even parity.
_PARITY = tuple(bin(i).count("1") % 2 == 0 for i in range(256))


def _fault(error: Exception):
    """An accessor or executor that raises a fresh *error* when called.

    Binding happens at decode, before the timing model and memory have
    seen the instruction, so an operand its semantics reject faults
    where it executes, as it always did.
    """
    kind, args = type(error), error.args

    def fault(*_):
        raise kind(*args)
    return fault


def _nothing(ctx) -> None:
    return None


# ----------------------------------------------------------------------
# Operand accessors
# ----------------------------------------------------------------------

def bind_address(mem: MemoryOperand) -> Reader:
    """The effective-address function of memory operand *mem*.

    Address registers are read at their full canonical width.
    """
    disp = mem.displacement
    base = mem.base.base if mem.base is not None else None
    index = mem.index.base if mem.index is not None else None
    scale = mem.scale
    if base in _VECTOR or index in _VECTOR:
        def address(ctx):
            value = disp
            if base is not None:
                value += ctx.regs.read(base)
            if index is not None:
                value += ctx.regs.read(index) * scale
            return value & _M64
    elif base is None and index is None:
        constant = disp & _M64

        def address(ctx):
            return constant
    elif index is None:
        def address(ctx):
            return (ctx.regs.gpr[base] + disp) & _M64
    elif base is None:
        def address(ctx):
            return (ctx.regs.gpr[index] * scale + disp) & _M64
    else:
        def address(ctx):
            gpr = ctx.regs.gpr
            return (gpr[base] + gpr[index] * scale + disp) & _M64
    return address


def _reader(op) -> Reader:
    if isinstance(op, Register):
        read = register_accessors(op.name)[0]
        return lambda ctx: read(ctx.regs)
    if isinstance(op, Immediate):
        value = op.value & _M64
        return lambda ctx: value
    if isinstance(op, MemoryOperand):
        address, size = bind_address(op), op.size
        return lambda ctx: ctx.read_memory(address(ctx), size)
    return _fault(ExecutionError("cannot read operand: %r" % (op,)))


def _writer(op) -> Writer:
    if isinstance(op, Register):
        write_register = register_accessors(op.name)[1]

        def write(ctx, value):
            write_register(ctx.regs, value)
        return write
    if isinstance(op, MemoryOperand):
        address, size = bind_address(op), op.size

        def write(ctx, value):
            ctx.write_memory(address(ctx), size, value)
        return write
    return _fault(ExecutionError("cannot write operand: %r" % (op,)))


def _operand_width(instr: Instruction, position: int = 0) -> int:
    """Width in bits of the operand at *position* (falls back over all)."""
    ops = instr.operands
    if position < len(ops):
        op = ops[position]
        if isinstance(op, Register):
            return op.width
        if isinstance(op, MemoryOperand):
            return op.size * 8
    for op in ops:
        if isinstance(op, Register):
            return op.width
        if isinstance(op, MemoryOperand):
            return op.size * 8
    return 64


def _mask(width: int) -> int:
    return (1 << width) - 1


def _to_signed(value: int, width: int) -> int:
    value &= _mask(width)
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


# ----------------------------------------------------------------------
# Flag updates (on ``RegisterFile.flags``)
# ----------------------------------------------------------------------

def _add_flags(flags, a: int, b: int, carry_in: int, width: int) -> int:
    raw = a + b + carry_in
    result = raw & _mask(width)
    flags["CF"] = raw > _mask(width)
    sa, sb = _to_signed(a, width), _to_signed(b, width)
    signed = sa + sb + carry_in
    flags["OF"] = not -(1 << (width - 1)) <= signed < (1 << (width - 1))
    flags["AF"] = ((a & 0xF) + (b & 0xF) + carry_in) > 0xF
    flags["ZF"] = result == 0
    flags["SF"] = bool(result & (1 << (width - 1)))
    flags["PF"] = _PARITY[result & 0xFF]
    return result


def _sub_flags(flags, a: int, b: int, borrow_in: int, width: int) -> int:
    raw = a - b - borrow_in
    result = raw & _mask(width)
    flags["CF"] = raw < 0
    sa, sb = _to_signed(a, width), _to_signed(b, width)
    signed = sa - sb - borrow_in
    flags["OF"] = not -(1 << (width - 1)) <= signed < (1 << (width - 1))
    flags["AF"] = ((a & 0xF) - (b & 0xF) - borrow_in) < 0
    flags["ZF"] = result == 0
    flags["SF"] = bool(result & (1 << (width - 1)))
    flags["PF"] = _PARITY[result & 0xFF]
    return result


#: Condition code -> predicate over the flags.
_CONDITIONS: Dict[str, Callable[[Dict[str, bool]], bool]] = {
    code: predicate
    for codes, predicate in (
        (("O",), lambda f: f["OF"]),
        (("NO",), lambda f: not f["OF"]),
        (("B", "C", "NAE"), lambda f: f["CF"]),
        (("AE", "NB", "NC"), lambda f: not f["CF"]),
        (("E", "Z"), lambda f: f["ZF"]),
        (("NE", "NZ"), lambda f: not f["ZF"]),
        (("BE", "NA"), lambda f: f["CF"] or f["ZF"]),
        (("A", "NBE"), lambda f: not (f["CF"] or f["ZF"])),
        (("S",), lambda f: f["SF"]),
        (("NS",), lambda f: not f["SF"]),
        (("P",), lambda f: f["PF"]),
        (("NP",), lambda f: not f["PF"]),
        (("L", "NGE"), lambda f: f["SF"] != f["OF"]),
        (("GE", "NL"), lambda f: f["SF"] == f["OF"]),
        (("LE", "NG"), lambda f: f["ZF"] or (f["SF"] != f["OF"])),
        (("G", "NLE"), lambda f: not f["ZF"] and f["SF"] == f["OF"]),
    )
    for code in codes
}


def condition_holds(regs: RegisterFile, cc: str) -> bool:
    """Whether condition code *cc* (``"NZ"``, ``"L"`` ...) holds."""
    return _CONDITIONS[cc](regs.flags)


# ----------------------------------------------------------------------
# Vector lane helpers
# ----------------------------------------------------------------------

def _lanes(value: int, total_bits: int, lane_bits: int):
    count = total_bits // lane_bits
    return [(value >> (i * lane_bits)) & _mask(lane_bits) for i in range(count)]


def _pack_lanes(lanes, lane_bits: int) -> int:
    value = 0
    for i, lane in enumerate(lanes):
        value |= (lane & _mask(lane_bits)) << (i * lane_bits)
    return value


def _float_from_bits(bits: int, lane_bits: int) -> float:
    fmt = "<f" if lane_bits == 32 else "<d"
    packer = "<I" if lane_bits == 32 else "<Q"
    return struct.unpack(fmt, struct.pack(packer, bits))[0]


def _float_to_bits(value: float, lane_bits: int) -> int:
    fmt = "<f" if lane_bits == 32 else "<d"
    packer = "<I" if lane_bits == 32 else "<Q"
    try:
        return struct.unpack(packer, struct.pack(fmt, value))[0]
    except (OverflowError, ValueError):
        # Overflow to infinity of the right sign.
        inf = math.inf if value > 0 else -math.inf
        return struct.unpack(packer, struct.pack(fmt, inf))[0]


def _vector_sources(instr: Instruction):
    """``(width, read_a, read_b, write)`` of a 2-operand SSE or
    3-operand AVX form."""
    ops = instr.operands
    dst = ops[0]
    width = _operand_width(instr, 0)
    if len(ops) == 3:
        read_a, read_b = _reader(ops[1]), _reader(ops[2])
    else:
        read_a, read_b = _reader(dst), _reader(ops[1])
    return width, read_a, read_b, _writer(dst)


def _vector_int(lane_bits: int, fn, bitwise: bool = False):
    """Lane-wise integer op.  A bitwise op over whole lanes is one
    operation on the full value."""
    lane_mask = _mask(lane_bits)

    def bind_vector(instr):
        width, read_a, read_b, write = _vector_sources(instr)
        count = width // lane_bits
        if bitwise and count * lane_bits == width:
            mask = _mask(width)

            def execute(ctx):
                write(ctx, fn(read_a(ctx), read_b(ctx)) & mask)
            return execute

        def execute(ctx):
            a, b = read_a(ctx), read_b(ctx)
            value = 0
            for shift in range(0, count * lane_bits, lane_bits):
                lane = fn((a >> shift) & lane_mask, (b >> shift) & lane_mask)
                value |= (lane & lane_mask) << shift
            write(ctx, value)
        return execute
    return bind_vector


def _vector_float(lane_bits: int, fn, scalar: bool = False):
    def bind_vector(instr):
        width, read_a, read_b, write = _vector_sources(instr)

        def execute(ctx):
            lanes_a = _lanes(read_a(ctx), width, lane_bits)
            lanes_b = _lanes(read_b(ctx), width, lane_bits)
            result = []
            for i, (x, y) in enumerate(zip(lanes_a, lanes_b)):
                if scalar and i > 0:
                    result.append(x)
                    continue
                fx = _float_from_bits(x, lane_bits)
                fy = _float_from_bits(y, lane_bits)
                try:
                    value = fn(fx, fy)
                except ZeroDivisionError:
                    value = (math.inf if fx > 0
                             else (-math.inf if fx < 0 else math.nan))
                result.append(_float_to_bits(value, lane_bits))
            write(ctx, _pack_lanes(result, lane_bits))
        return execute
    return bind_vector


def _fma(lane_bits: int):
    def bind_fma(instr):
        dst = instr.operands[0]
        width = _operand_width(instr, 0)
        read_a, write = _reader(dst), _writer(dst)
        read_b, read_c = _reader(instr.operands[1]), _reader(instr.operands[2])

        def execute(ctx):
            a, b, c = read_a(ctx), read_b(ctx), read_c(ctx)
            result = []
            for la, lb, lc in zip(
                _lanes(a, width, lane_bits),
                _lanes(b, width, lane_bits),
                _lanes(c, width, lane_bits),
            ):
                fa = _float_from_bits(la, lane_bits)
                fb = _float_from_bits(lb, lane_bits)
                fc = _float_from_bits(lc, lane_bits)
                result.append(_float_to_bits(fb * fc + fa, lane_bits))
            write(ctx, _pack_lanes(result, lane_bits))
        return execute
    return bind_fma


# ----------------------------------------------------------------------
# Binders
# ----------------------------------------------------------------------

Binder = Callable[[Instruction], Executor]
_BINDERS: Dict[str, Binder] = {}


def _binds(*mnemonics: str):
    def wrap(binder: Binder) -> Binder:
        for mnemonic in mnemonics:
            _BINDERS[mnemonic] = binder
        return binder
    return wrap


@_binds("MOV", "MOVQ", "MOVD", "MOVAPS", "MOVAPD", "MOVDQA", "MOVDQU",
        "MOVUPS", "VMOVAPS", "VMOVDQA", "VMOVDQU", "MOVZX")
def _bind_mov(instr):
    read, write = _reader(instr.operands[1]), _writer(instr.operands[0])

    def mov(ctx):
        write(ctx, read(ctx))
    return mov


@_binds("MOVSX", "MOVSXD")
def _bind_movsx(instr):
    read = _reader(instr.operands[1])
    src_width = _operand_width(instr, 1)
    mask = _mask(_operand_width(instr, 0))
    write = _writer(instr.operands[0])

    def movsx(ctx):
        write(ctx, _to_signed(read(ctx), src_width) & mask)
    return movsx


@_binds("LEA")
def _bind_lea(instr):
    mem = instr.operands[1]
    if not isinstance(mem, MemoryOperand):
        return _fault(ExecutionError("LEA needs a memory source"))
    mask = _mask(_operand_width(instr, 0))
    write, address = _writer(instr.operands[0]), bind_address(mem)

    def lea(ctx):
        write(ctx, address(ctx) & mask)
    return lea


@_binds("XCHG")
def _bind_xchg(instr):
    a, b = instr.operands
    read_a, read_b = _reader(a), _reader(b)
    write_a, write_b = _writer(a), _writer(b)

    def xchg(ctx):
        va, vb = read_a(ctx), read_b(ctx)
        write_a(ctx, vb)
        write_b(ctx, va)
    return xchg


@_binds("PUSH")
def _bind_push(instr):
    read = _reader(instr.operands[0])

    def push(ctx):
        rsp = (ctx.regs.read("RSP") - 8) & _M64
        ctx.regs.write("RSP", rsp)
        ctx.write_memory(rsp, 8, read(ctx))
    return push


@_binds("POP")
def _bind_pop(instr):
    write = _writer(instr.operands[0])

    def pop(ctx):
        rsp = ctx.regs.read("RSP")
        write(ctx, ctx.read_memory(rsp, 8))
        ctx.regs.write("RSP", (rsp + 8) & _M64)
    return pop


def _arith(flag_update, carry: bool = False, writes: bool = True):
    """ADD/ADC/SUB/SBB/CMP: ``op0 = op0 (+|-) op1 (+|-) CF``."""
    def bind_arith(instr):
        width = _operand_width(instr)
        mask = _mask(width)
        read_a, read_b = _reader(instr.operands[0]), _reader(instr.operands[1])
        write = _writer(instr.operands[0])

        def execute(ctx):
            a = read_a(ctx) & mask
            b = read_b(ctx) & mask
            flags = ctx.regs.flags
            result = flag_update(flags, a, b, int(flags["CF"]) if carry
                                 else 0, width)
            if writes:
                write(ctx, result)
        return execute
    return bind_arith


_binds("ADD")(_arith(_add_flags))
_binds("ADC")(_arith(_add_flags, carry=True))
_binds("SUB")(_arith(_sub_flags))
_binds("SBB")(_arith(_sub_flags, carry=True))
_binds("CMP")(_arith(_sub_flags, writes=False))


@_binds("NEG")
def _bind_neg(instr):
    width = _operand_width(instr)
    mask = _mask(width)
    read, write = _reader(instr.operands[0]), _writer(instr.operands[0])

    def neg(ctx):
        a = read(ctx) & mask
        flags = ctx.regs.flags
        result = _sub_flags(flags, 0, a, 0, width)
        flags["CF"] = a != 0
        write(ctx, result)
    return neg


def _step(flag_update):
    """INC/DEC: like ADD/SUB 1, but CF is preserved."""
    def bind_step(instr):
        width = _operand_width(instr)
        mask = _mask(width)
        read, write = _reader(instr.operands[0]), _writer(instr.operands[0])

        def execute(ctx):
            flags = ctx.regs.flags
            cf = flags["CF"]
            result = flag_update(flags, read(ctx) & mask, 1, 0, width)
            flags["CF"] = cf
            write(ctx, result)
        return execute
    return bind_step


_binds("INC")(_step(_add_flags))
_binds("DEC")(_step(_sub_flags))


def _logic(fn, writes: bool = True):
    def bind_logic(instr):
        width = _operand_width(instr)
        mask, sign = _mask(width), 1 << (width - 1)
        read_a, read_b = _reader(instr.operands[0]), _reader(instr.operands[1])
        write = _writer(instr.operands[0])

        def execute(ctx):
            result = fn(read_a(ctx) & mask, read_b(ctx) & mask) & mask
            flags = ctx.regs.flags
            flags["CF"] = flags["OF"] = flags["AF"] = False
            flags["ZF"] = result == 0
            flags["SF"] = result & sign != 0
            flags["PF"] = _PARITY[result & 0xFF]
            if writes:
                write(ctx, result)
        return execute
    return bind_logic


_binds("AND")(_logic(operator.and_))
_binds("OR")(_logic(operator.or_))
_binds("XOR")(_logic(operator.xor))
_binds("TEST")(_logic(operator.and_, writes=False))


@_binds("NOT")
def _bind_not(instr):
    mask = _mask(_operand_width(instr))
    read, write = _reader(instr.operands[0]), _writer(instr.operands[0])

    def not_(ctx):
        write(ctx, ~read(ctx) & mask)
    return not_


def _shift(kind: str):
    def bind_shift(instr):
        width = _operand_width(instr)
        mask, sign = _mask(width), 1 << (width - 1)
        count_mask = 0x3F if width == 64 else 0x1F
        read_a, read_count = (_reader(instr.operands[0]),
                              _reader(instr.operands[1]))
        write = _writer(instr.operands[0])

        def execute(ctx):
            a = read_a(ctx) & mask
            count = read_count(ctx) & count_mask
            if count == 0:
                return None
            if kind == "SHL":
                result = (a << count) & mask
                carry = (bool((a >> (width - count)) & 1) if count <= width
                         else False)
            elif kind == "SHR":
                result = a >> count
                carry = bool((a >> (count - 1)) & 1)
            else:
                signed = _to_signed(a, width)
                result = (signed >> count) & mask
                carry = bool((signed >> (count - 1)) & 1)
            flags = ctx.regs.flags
            flags["CF"] = carry
            flags["ZF"] = result == 0
            flags["SF"] = result & sign != 0
            flags["PF"] = _PARITY[result & 0xFF]
            flags["OF"] = False
            write(ctx, result)
        return execute
    return bind_shift


_binds("SHL")(_shift("SHL"))
_binds("SHR")(_shift("SHR"))
_binds("SAR")(_shift("SAR"))


def _rotate(left: bool):
    def bind_rotate(instr):
        width = _operand_width(instr)
        mask = _mask(width)
        read_a, read_count = (_reader(instr.operands[0]),
                              _reader(instr.operands[1]))
        write = _writer(instr.operands[0])

        def execute(ctx):
            a = read_a(ctx) & mask
            count = read_count(ctx) % width
            if count:
                if left:
                    result = ((a << count) | (a >> (width - count))) & mask
                    ctx.regs.flags["CF"] = bool(result & 1)
                else:
                    result = ((a >> count) | (a << (width - count))) & mask
                    ctx.regs.flags["CF"] = bool(result & (1 << (width - 1)))
                write(ctx, result)
        return execute
    return bind_rotate


_binds("ROL")(_rotate(left=True))
_binds("ROR")(_rotate(left=False))


@_binds("IMUL")
def _bind_imul(instr):
    width = _operand_width(instr)
    mask = _mask(width)
    ops = instr.operands
    if len(ops) == 1:
        read_b = _reader(ops[0])

        def product_of(ctx):
            product = (_to_signed(ctx.regs.read("RAX"), width)
                       * _to_signed(read_b(ctx), width))
            ctx.regs.write("RAX", product & mask)
            ctx.regs.write("RDX", (product >> width) & mask)
            return product
    else:
        write = _writer(ops[0])
        if len(ops) == 2:
            read_a, read_b = _reader(ops[0]), _reader(ops[1])
        else:
            read_a, read_b = _reader(ops[1]), _reader(ops[2])

        def product_of(ctx):
            a = _to_signed(read_a(ctx), width)
            product = a * _to_signed(read_b(ctx), width)
            write(ctx, product & mask)
            return product

    def imul(ctx):
        product = product_of(ctx)
        overflow = not -(1 << (width - 1)) <= product < (1 << (width - 1))
        flags = ctx.regs.flags
        flags["CF"] = overflow
        flags["OF"] = overflow
    return imul


@_binds("MUL")
def _bind_mul(instr):
    width = _operand_width(instr)
    mask = _mask(width)
    read = _reader(instr.operands[0])

    def mul(ctx):
        a = ctx.regs.read("RAX") & mask
        product = a * (read(ctx) & mask)
        ctx.regs.write("RAX", product & mask)
        ctx.regs.write("RDX", (product >> width) & mask)
        high = product >> width
        ctx.regs.flags["CF"] = high != 0
        ctx.regs.flags["OF"] = high != 0
    return mul


@_binds("DIV")
def _bind_div(instr):
    width = _operand_width(instr)
    mask = _mask(width)
    read = _reader(instr.operands[0])

    def div(ctx):
        divisor = read(ctx) & mask
        if divisor == 0:
            raise ExecutionError("DIV by zero")
        dividend = (ctx.regs.read("RDX") << width) | (ctx.regs.read("RAX") & mask)
        quotient, remainder = divmod(dividend, divisor)
        if quotient > mask:
            raise ExecutionError("DIV overflow")
        ctx.regs.write("RAX", quotient)
        ctx.regs.write("RDX", remainder)
    return div


@_binds("IDIV")
def _bind_idiv(instr):
    width = _operand_width(instr)
    mask = _mask(width)
    read = _reader(instr.operands[0])

    def idiv(ctx):
        divisor = _to_signed(read(ctx), width)
        if divisor == 0:
            raise ExecutionError("IDIV by zero")
        dividend = _to_signed(
            (ctx.regs.read("RDX") << width) | (ctx.regs.read("RAX") & mask),
            2 * width,
        )
        quotient = int(dividend / divisor)
        remainder = dividend - quotient * divisor
        if not -(1 << (width - 1)) <= quotient < (1 << (width - 1)):
            raise ExecutionError("IDIV overflow")
        ctx.regs.write("RAX", quotient & mask)
        ctx.regs.write("RDX", remainder & mask)
    return idiv


def _bit_scan(result_of):
    """BSF/BSR: ZF tells a zero source; the destination is kept then."""
    def bind_scan(instr):
        mask = _mask(_operand_width(instr))
        read, write = _reader(instr.operands[1]), _writer(instr.operands[0])

        def execute(ctx):
            src = read(ctx) & mask
            ctx.regs.flags["ZF"] = src == 0
            if src:
                write(ctx, result_of(src))
        return execute
    return bind_scan


_binds("BSF")(_bit_scan(lambda src: (src & -src).bit_length() - 1))
_binds("BSR")(_bit_scan(lambda src: src.bit_length() - 1))


@_binds("POPCNT")
def _bind_popcnt(instr):
    mask = _mask(_operand_width(instr))
    read, write = _reader(instr.operands[1]), _writer(instr.operands[0])

    def popcnt(ctx):
        result = bin(read(ctx) & mask).count("1")
        write(ctx, result)
        flags = ctx.regs.flags
        for flag in ("CF", "OF", "SF", "AF", "PF"):
            flags[flag] = False
        flags["ZF"] = result == 0
    return popcnt


def _bit_test(update):
    def bind_bit_test(instr):
        width = _operand_width(instr)
        mask = _mask(width)
        read_value, read_bit = (_reader(instr.operands[0]),
                                _reader(instr.operands[1]))
        write = _writer(instr.operands[0])

        def execute(ctx):
            value = read_value(ctx) & mask
            bit = read_bit(ctx) % width
            ctx.regs.flags["CF"] = bool(value & (1 << bit))
            new = update(value, bit)
            if new is not None:
                write(ctx, new & mask)
        return execute
    return bind_bit_test


_binds("BT")(_bit_test(lambda v, b: None))
_binds("BTS")(_bit_test(lambda v, b: v | (1 << b)))
_binds("BTR")(_bit_test(lambda v, b: v & ~(1 << b)))


@_binds("CDQ")
def _bind_cdq(instr):
    def cdq(ctx):
        eax = ctx.regs.read("EAX")
        ctx.regs.write("EDX", 0xFFFFFFFF if eax & (1 << 31) else 0)
    return cdq


@_binds("CQO")
def _bind_cqo(instr):
    def cqo(ctx):
        rax = ctx.regs.read("RAX")
        ctx.regs.write("RDX", _M64 if rax & (1 << 63) else 0)
    return cqo


# Fence ordering is handled by the timing model; a raw pause/resume
# pseudo reaching the core is a no-op architecturally (nanoBench's code
# generator replaces the magic sequences).
_binds("NOP", "LFENCE", "MFENCE", "SFENCE", "PAUSE_COUNTING",
       "RESUME_COUNTING")(lambda instr: _nothing)


@_binds("JMP")
def _bind_jmp(instr):
    target = instr.target
    return lambda ctx: target


# --- system ---------------------------------------------------------------

@_binds("CPUID")
def _bind_cpuid(instr):
    def cpuid(ctx):
        eax, ebx, ecx, edx = ctx.cpuid(ctx.regs.read("EAX"),
                                       ctx.regs.read("ECX"))
        ctx.regs.write("RAX", eax)
        ctx.regs.write("RBX", ebx)
        ctx.regs.write("RCX", ecx)
        ctx.regs.write("RDX", edx)
    return cpuid


@_binds("RDPMC")
def _bind_rdpmc(instr):
    def rdpmc(ctx):
        value = ctx.rdpmc(ctx.regs.gpr["RCX"] & _M32)
        gpr = ctx.regs.gpr
        gpr["RAX"] = value & _M32
        gpr["RDX"] = (value >> 32) & _M32
    return rdpmc


@_binds("RDMSR")
def _bind_rdmsr(instr):
    def rdmsr(ctx):
        if not ctx.is_kernel_mode():
            raise PrivilegeError("RDMSR requires kernel mode")
        value = ctx.rdmsr(ctx.regs.read("ECX"))
        ctx.regs.write("RAX", value & _M32)
        ctx.regs.write("RDX", (value >> 32) & _M32)
    return rdmsr


@_binds("WRMSR")
def _bind_wrmsr(instr):
    def wrmsr(ctx):
        if not ctx.is_kernel_mode():
            raise PrivilegeError("WRMSR requires kernel mode")
        value = (ctx.regs.read("EDX") << 32) | ctx.regs.read("EAX")
        ctx.wrmsr(ctx.regs.read("ECX"), value)
    return wrmsr


@_binds("RDTSC", "RDTSCP")
def _bind_rdtsc(instr):
    clears_rcx = instr.mnemonic == "RDTSCP"

    def rdtsc(ctx):
        value = ctx.rdtsc()
        ctx.regs.write("RAX", value & _M32)
        ctx.regs.write("RDX", (value >> 32) & _M32)
        if clears_rcx:
            ctx.regs.write("RCX", 0)
    return rdtsc


@_binds("WBINVD", "INVD", "CLI", "STI", "HLT")
def _bind_privileged(instr):
    message = "%s requires kernel mode" % instr.mnemonic
    flushes = instr.mnemonic in ("WBINVD", "INVD")

    def privileged(ctx):
        if not ctx.is_kernel_mode():
            raise PrivilegeError(message)
        if flushes:
            ctx.wbinvd()
    return privileged


@_binds("CLFLUSH", "CLFLUSHOPT")
def _bind_clflush(instr):
    mem = instr.operands[0]
    if not isinstance(mem, MemoryOperand):
        return _fault(ExecutionError("CLFLUSH needs a memory operand"))
    address = bind_address(mem)
    return lambda ctx: ctx.clflush(address(ctx))


@_binds("PREFETCHT0", "PREFETCHT1", "PREFETCHT2", "PREFETCHNTA")
def _bind_prefetch(instr):
    mem = instr.operands[0]
    if not isinstance(mem, MemoryOperand):
        return _fault(ExecutionError("prefetch needs a memory operand"))
    level = {"PREFETCHT0": 1, "PREFETCHT1": 2, "PREFETCHT2": 3,
             "PREFETCHNTA": 1}[instr.mnemonic]
    address = bind_address(mem)
    return lambda ctx: ctx.prefetch(address(ctx), level)


# --- vector ---------------------------------------------------------------

_binds("PXOR", "VPXOR", "VXORPS")(_vector_int(64, operator.xor, bitwise=True))
_binds("PAND", "VPAND")(_vector_int(64, operator.and_, bitwise=True))
_binds("POR")(_vector_int(64, operator.or_, bitwise=True))
_binds("PADDB")(_vector_int(8, operator.add))
_binds("PADDW")(_vector_int(16, operator.add))
_binds("PADDD", "VPADDD")(_vector_int(32, operator.add))
_binds("PADDQ", "VPADDQ")(_vector_int(64, operator.add))
_binds("PSUBD")(_vector_int(32, operator.sub))
_binds("PMULLD")(_vector_int(32, operator.mul))

_binds("ADDPS", "VADDPS")(_vector_float(32, operator.add))
_binds("ADDPD", "VADDPD")(_vector_float(64, operator.add))
_binds("SUBPS")(_vector_float(32, operator.sub))
_binds("SUBPD")(_vector_float(64, operator.sub))
_binds("MULPS", "VMULPS")(_vector_float(32, operator.mul))
_binds("MULPD", "VMULPD")(_vector_float(64, operator.mul))
_binds("DIVPS")(_vector_float(32, operator.truediv))
_binds("DIVPD")(_vector_float(64, operator.truediv))
_binds("ADDSS")(_vector_float(32, operator.add, scalar=True))
_binds("ADDSD")(_vector_float(64, operator.add, scalar=True))
_binds("MULSS")(_vector_float(32, operator.mul, scalar=True))
_binds("MULSD")(_vector_float(64, operator.mul, scalar=True))
_binds("DIVSD")(_vector_float(64, operator.truediv, scalar=True))


def _sqrt(a, b):
    return math.sqrt(b) if b >= 0 else math.nan


_binds("SQRTPD")(_vector_float(64, _sqrt))
_binds("SQRTSD")(_vector_float(64, _sqrt, scalar=True))
_binds("VFMADD231PS")(_fma(32))
_binds("VFMADD231PD")(_fma(64))


# --- conditional ----------------------------------------------------------

def _bind_cmov(instr):
    holds = _CONDITIONS[instr.mnemonic[4:]]
    read, write = _reader(instr.operands[1]), _writer(instr.operands[0])

    def cmov(ctx):
        if holds(ctx.regs.flags):
            write(ctx, read(ctx))
    return cmov


def _bind_set(instr):
    holds = _CONDITIONS[instr.mnemonic[3:]]
    write = _writer(instr.operands[0])

    def set_(ctx):
        write(ctx, int(holds(ctx.regs.flags)))
    return set_


def _bind_jcc(instr):
    holds, target = _CONDITIONS[instr.mnemonic[1:]], instr.target

    def jcc(ctx):
        return target if holds(ctx.regs.flags) else None
    return jcc


for _cc in _CONDITIONS:
    _BINDERS["J%s" % _cc] = _bind_jcc
    _BINDERS["CMOV%s" % _cc] = _bind_cmov
    _BINDERS["SET%s" % _cc] = _bind_set


def bind(instr: Instruction) -> Executor:
    """The executor of *instr*, its operands resolved once."""
    binder = _BINDERS.get(instr.mnemonic)
    if binder is None:
        return _fault(ExecutionError("no semantics for %s" % (instr.mnemonic,)))
    try:
        return binder(instr)
    except Exception as exc:  # a malformed operand list faults at execution
        return _fault(exc)


def execute(ctx: ExecutionContext, instr: Instruction) -> Optional[str]:
    """Execute *instr* against *ctx*; return a branch-target label or None."""
    return bind(instr)(ctx)


def supported_mnemonics() -> Tuple[str, ...]:
    """All mnemonics with functional semantics."""
    return tuple(sorted(_BINDERS))
