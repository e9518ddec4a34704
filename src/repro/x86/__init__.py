"""x86 ISA subset: registers, operands, assembler, encoder and semantics."""

from .assembler import assemble, parse_statement
from .decoder import decode_code, decode_instruction, decode_program
from .encoder import (
    MAGIC_PAUSE,
    MAGIC_RESUME,
    contains_magic_sequences,
    encode_instruction,
    encode_program,
)
from .instructions import INSTRUCTION_SET, Instruction, InstructionSpec, Program
from .operands import Immediate, MemoryOperand, Register
from .registers import FLAGS, GPR64, RegisterFile, RegisterSnapshot

__all__ = [
    "assemble",
    "parse_statement",
    "decode_code",
    "decode_instruction",
    "decode_program",
    "encode_instruction",
    "encode_program",
    "contains_magic_sequences",
    "MAGIC_PAUSE",
    "MAGIC_RESUME",
    "INSTRUCTION_SET",
    "Instruction",
    "InstructionSpec",
    "Program",
    "Immediate",
    "MemoryOperand",
    "Register",
    "FLAGS",
    "GPR64",
    "RegisterFile",
    "RegisterSnapshot",
]
