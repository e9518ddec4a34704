"""Intel-syntax assembler for the supported x86 subset.

This is the parser behind nanoBench's ``-asm`` command-line options
(Section III-E): microbenchmark code is given as a semicolon- or
newline-separated Intel-syntax sequence such as::

    mov R14, [R14]; add RAX, 1
    loop_start: dec R15; jnz loop_start

Supported operand forms: registers (any width, GPR or XMM/YMM/ZMM),
immediates (decimal, hex ``0x..``, negative), and memory operands
``[base + index*scale + disp]`` with an optional ``qword ptr`` style size
prefix.  Labels may be defined with ``name:`` and used as branch targets.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..errors import AssemblerError
from .instructions import INSTRUCTION_SET, Instruction, Program
from .operands import Immediate, MemoryOperand, Register
from .registers import is_register_name

_SIZE_PREFIXES = {
    "BYTE": 1,
    "WORD": 2,
    "DWORD": 4,
    "QWORD": 8,
    "XMMWORD": 16,
    "YMMWORD": 32,
    "ZMMWORD": 64,
}

_LABEL_RE = re.compile(r"^[A-Za-z_.][A-Za-z0-9_.]*$")
_NUMBER_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")


def _parse_number(text: str) -> int:
    text = text.strip()
    if not _NUMBER_RE.match(text):
        raise AssemblerError("invalid number: %r" % (text,))
    return int(text, 0)


def _split_statements(source: str) -> List[str]:
    """Split source into statements on semicolons and newlines."""
    parts: List[str] = []
    for line in source.replace("\r", "\n").split("\n"):
        # '#' starts a comment (nanoBench config style).
        line = line.split("#", 1)[0]
        parts.extend(p.strip() for p in line.split(";"))
    return [p for p in parts if p]


def _split_operands(text: str) -> List[str]:
    """Split an operand list on commas not inside brackets."""
    operands: List[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise AssemblerError("unbalanced ']' in %r" % (text,))
        if ch == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise AssemblerError("unbalanced '[' in %r" % (text,))
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return operands


def _parse_memory(text: str, size: Optional[int]) -> MemoryOperand:
    inner = text.strip()[1:-1].replace(" ", "").replace("\t", "")
    if not inner:
        raise AssemblerError("empty memory operand")
    # Normalise to '+'-separated signed terms.
    inner = inner.replace("-", "+-")
    base: Optional[Register] = None
    index: Optional[Register] = None
    scale = 1
    displacement = 0
    for term in (t.strip() for t in inner.split("+")):
        if not term:
            continue
        if "*" in term:
            left, right = (s.strip() for s in term.split("*", 1))
            if is_register_name(left):
                reg_name, factor = left, right
            elif is_register_name(right):
                reg_name, factor = right, left
            else:
                raise AssemblerError("invalid scaled-index term: %r" % (term,))
            if index is not None:
                raise AssemblerError("multiple index registers in %r" % (text,))
            index = Register(reg_name)
            scale = _parse_number(factor)
        elif is_register_name(term):
            if base is None:
                base = Register(term)
            elif index is None:
                index = Register(term)
            else:
                raise AssemblerError("too many registers in %r" % (text,))
        else:
            displacement += _parse_number(term)
    try:
        return MemoryOperand(
            base=base,
            index=index,
            scale=scale,
            displacement=displacement,
            size=size if size is not None else 8,
        )
    except ValueError as exc:
        raise AssemblerError(str(exc))


def _parse_operand(text: str):
    text = text.strip()
    size: Optional[int] = None
    upper = text.upper()
    for prefix, nbytes in _SIZE_PREFIXES.items():
        for form in ("%s PTR " % prefix, "%s " % prefix):
            if upper.startswith(form):
                size = nbytes
                text = text[len(form):].strip()
                upper = text.upper()
                break
        if size is not None:
            break
    if text.startswith("["):
        if not text.endswith("]"):
            raise AssemblerError("malformed memory operand: %r" % (text,))
        return _parse_memory(text, size)
    if is_register_name(text):
        return Register(text)
    if _NUMBER_RE.match(text):
        value = _parse_number(text)
        width = 32 if -(1 << 31) <= value < (1 << 32) else 64
        return Immediate(value, width=width)
    return None  # possibly a label reference


def _infer_memory_sizes(instr: Instruction) -> Instruction:
    """Fill in memory-operand sizes from the register operand width."""
    reg_width: Optional[int] = None
    for op in instr.operands:
        if isinstance(op, Register):
            reg_width = op.width
            break
    if reg_width is None:
        return instr
    new_ops = []
    changed = False
    for op in instr.operands:
        if isinstance(op, MemoryOperand) and op.size == 8 and reg_width != 64:
            new_ops.append(
                MemoryOperand(op.base, op.index, op.scale, op.displacement,
                              size=max(1, reg_width // 8))
            )
            changed = True
        else:
            new_ops.append(op)
    if not changed:
        return instr
    return Instruction(instr.mnemonic, tuple(new_ops), instr.target)


def parse_statement(text: str) -> Instruction:
    """Parse a single instruction statement (no label definitions)."""
    text = text.strip()
    if not text:
        raise AssemblerError("empty statement")
    parts = text.split(None, 1)
    mnemonic = parts[0].upper()
    if mnemonic not in INSTRUCTION_SET:
        raise AssemblerError("unsupported mnemonic: %r" % (parts[0],))
    spec = INSTRUCTION_SET[mnemonic]
    if len(parts) == 1:
        return Instruction(mnemonic)
    operand_texts = _split_operands(parts[1])
    if spec.is_branch:
        if len(operand_texts) != 1:
            raise AssemblerError("branch needs exactly one target: %r" % (text,))
        target = operand_texts[0]
        if not _LABEL_RE.match(target):
            raise AssemblerError("invalid branch target: %r" % (target,))
        return Instruction(mnemonic, (), target=target)
    operands = []
    for op_text in operand_texts:
        op = _parse_operand(op_text)
        if op is None:
            raise AssemblerError(
                "cannot parse operand %r in %r" % (op_text, text)
            )
        operands.append(op)
    return _infer_memory_sizes(Instruction(mnemonic, tuple(operands)))


def assemble(source: str) -> Program:
    """Assemble Intel-syntax *source* into a :class:`Program`.

    >>> prog = assemble("mov R14, [R14]")
    >>> len(prog)
    1
    """
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    for statement in _split_statements(source):
        # A statement may carry a leading 'label:' definition.
        while True:
            match = re.match(r"^([A-Za-z_.][A-Za-z0-9_.]*)\s*:\s*", statement)
            if not match:
                break
            name = match.group(1)
            if name.upper() in INSTRUCTION_SET:
                break
            if name in labels:
                raise AssemblerError("duplicate label: %r" % (name,))
            labels[name] = len(instructions)
            statement = statement[match.end():]
        if statement.strip():
            instructions.append(parse_statement(statement))
    program = Program(tuple(instructions), labels)
    _check_branch_targets(program)
    return program


def _check_branch_targets(program: Program) -> None:
    for instr in program.instructions:
        if instr.target is not None and instr.target not in program.labels:
            raise AssemblerError("undefined label: %r" % (instr.target,))
