"""Decoder for the byte format produced by :mod:`repro.x86.encoder`.

The simulated front end (and nanoBench's code generator, which must
recognise the magic pause/resume sequences inside user-provided binary
code, Section IV-B) uses this module to turn byte buffers back into
:class:`~repro.x86.instructions.Program` objects.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from ..errors import DecodingError
from .encoder import (
    MAGIC_PAUSE,
    MAGIC_RESUME,
    _HEADER,
    mnemonic_table,
    register_table,
)
from .instructions import Instruction, Program
from .operands import Immediate, MemoryOperand, Register

_TAG_REG = 0
_TAG_IMM = 1
_TAG_MEM = 2


def _ascii(raw: bytes, what: str, pos: int) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise DecodingError(
            "non-ASCII %s at offset %d" % (what, pos)
        ) from None


def _decode_operand(data: bytes, pos: int):
    tag = data[pos]
    if tag == _TAG_REG:
        (reg_id,) = struct.unpack_from("<H", data, pos + 1)
        return Register(register_table()[reg_id]), pos + 3
    if tag == _TAG_IMM:
        width, value = struct.unpack_from("<Bq", data, pos + 1)
        return Immediate(value, width=width), pos + 10
    if tag == _TAG_MEM:
        flags, base_id, index_id, scale, disp, size = struct.unpack_from(
            "<BHHBqB", data, pos + 1
        )
        base = Register(register_table()[base_id]) if flags & 1 else None
        index = Register(register_table()[index_id]) if flags & 2 else None
        return (
            MemoryOperand(base, index, scale, disp, size),
            pos + 16,
        )
    raise DecodingError("unknown operand tag %d at offset %d" % (tag, pos))


def decode_instruction(data: bytes, pos: int = 0):
    """Decode one instruction at *pos*; return ``(instruction, next_pos)``.

    Magic pause/resume sequences decode to their pseudo-instructions.
    Bytes that do not form an instruction raise :class:`DecodingError`.
    """
    if data[pos:pos + len(MAGIC_PAUSE)] == MAGIC_PAUSE:
        return Instruction("PAUSE_COUNTING"), pos + len(MAGIC_PAUSE)
    if data[pos:pos + len(MAGIC_RESUME)] == MAGIC_RESUME:
        return Instruction("RESUME_COUNTING"), pos + len(MAGIC_RESUME)
    total = data[pos]
    if total < 5 or pos + total > len(data):
        raise DecodingError("truncated instruction at offset %d" % (pos,))
    cursor = pos + 1
    header = data[cursor]
    if header != _HEADER:
        raise DecodingError("bad instruction header at offset %d" % (pos,))
    (mnemonic_id,) = struct.unpack_from("<H", data, cursor + 1)
    try:
        mnemonic = mnemonic_table()[mnemonic_id]
    except IndexError:
        raise DecodingError("unknown mnemonic id %d" % (mnemonic_id,))
    cursor += 3
    target_len = data[cursor]
    cursor += 1
    target = _ascii(
        data[cursor:cursor + target_len], "branch target", pos
    ) or None
    cursor += target_len
    operands = []
    try:
        n_operands = data[cursor]
        cursor += 1
        for _ in range(n_operands):
            operand, cursor = _decode_operand(data, cursor)
            operands.append(operand)
    except (IndexError, struct.error, ValueError) as exc:
        # Operand bytes running past the buffer, a register id out of
        # range, or a field no operand can have (a scale of 3, say).
        raise DecodingError(
            "malformed operand at offset %d: %s" % (pos, exc)
        ) from None
    if cursor != pos + total:
        raise DecodingError(
            "instruction length mismatch at offset %d" % (pos,)
        )
    return Instruction(mnemonic, tuple(operands), target=target), cursor


def _decode_label(data: bytes, pos: int):
    """Decode the label record at *pos*; return ``(name, next_pos)``."""
    if pos + 2 > len(data) or pos + 2 + data[pos + 1] > len(data):
        raise DecodingError("truncated label at offset %d" % (pos,))
    end = pos + 2 + data[pos + 1]
    return _ascii(data[pos + 2:end], "label name", pos), end


def decode_code(data: bytes) -> Tuple[Program, Tuple[int, ...]]:
    """Decode a byte buffer; return the program and each instruction's
    byte offset in *data*.

    The only reader of the code format: label records, magic
    pause/resume sequences and instructions are all recognised here.
    On malformed bytes the :class:`DecodingError` carries ``offset``,
    the first byte of the record that failed, and ``index``, the
    number of instructions decoded before it.
    """
    instructions: List[Instruction] = []
    offsets: List[int] = []
    labels: Dict[str, int] = {}
    pos = 0
    while pos < len(data):
        try:
            if data[pos] == 0:
                # A label record; no instruction or magic sequence
                # starts with a zero byte.
                name, next_pos = _decode_label(data, pos)
                if name in labels:
                    raise DecodingError("duplicate label: %r" % (name,))
                labels[name] = len(instructions)
            else:
                instruction, next_pos = decode_instruction(data, pos)
                offsets.append(pos)
                instructions.append(instruction)
        except DecodingError as exc:
            exc.offset, exc.index = pos, len(instructions)
            raise
        pos = next_pos
    return Program(tuple(instructions), labels), tuple(offsets)


def decode_program(data: bytes) -> Program:
    """Decode a full byte buffer to a :class:`Program`."""
    return decode_code(data)[0]
