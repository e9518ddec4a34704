"""Unit tests for the register model."""

import pytest

from repro.x86.registers import (
    FLAGS,
    GPR64,
    RegisterFile,
    canonical_register,
    is_register_name,
    register_width,
)


class TestRegisterNaming:
    def test_all_gpr64_present(self):
        assert len(GPR64) == 16

    @pytest.mark.parametrize("name,base", [
        ("EAX", "RAX"), ("AX", "RAX"), ("AL", "RAX"), ("AH", "RAX"),
        ("R8D", "R8"), ("R8W", "R8"), ("R8B", "R8"),
        ("SPL", "RSP"), ("XMM3", "ZMM3"), ("YMM3", "ZMM3"),
    ])
    def test_canonical(self, name, base):
        assert canonical_register(name) == base

    @pytest.mark.parametrize("name,width", [
        ("RAX", 64), ("EAX", 32), ("AX", 16), ("AL", 8), ("AH", 8),
        ("XMM0", 128), ("YMM0", 256), ("ZMM0", 512),
    ])
    def test_width(self, name, width):
        assert register_width(name) == width

    def test_case_insensitive(self):
        assert is_register_name("rax")
        assert is_register_name("xmm15")
        assert not is_register_name("rq7")

    def test_unknown_register_raises(self):
        with pytest.raises(KeyError):
            canonical_register("BOGUS")

    def test_lower_case_names_resolve(self):
        # Names are looked up as given and upper-cased only on a miss.
        regs = RegisterFile()
        regs.write("eax", 0x1234)
        regs.write("ah", 0x56)
        assert regs.read("rax") == 0x5634
        assert canonical_register("r8b") == "R8"
        assert register_width("ymm2") == 256


class TestRegisterFile:
    def test_read_write_64(self):
        regs = RegisterFile()
        regs.write("RAX", 0x1122334455667788)
        assert regs.read("RAX") == 0x1122334455667788

    def test_32_bit_write_zero_extends(self):
        regs = RegisterFile()
        regs.write("RAX", 0xFFFFFFFFFFFFFFFF)
        regs.write("EAX", 0x12345678)
        assert regs.read("RAX") == 0x12345678

    def test_16_bit_write_preserves_upper(self):
        regs = RegisterFile()
        regs.write("RAX", 0xAABBCCDDEEFF0011)
        regs.write("AX", 0x2233)
        assert regs.read("RAX") == 0xAABBCCDDEEFF2233

    def test_8_bit_low_and_high(self):
        regs = RegisterFile()
        regs.write("RAX", 0)
        regs.write("AL", 0xCD)
        regs.write("AH", 0xAB)
        assert regs.read("AX") == 0xABCD
        assert regs.read("AL") == 0xCD
        assert regs.read("AH") == 0xAB

    def test_write_masks_value(self):
        regs = RegisterFile()
        regs.write("AL", 0x1FF)
        assert regs.read("AL") == 0xFF
        assert regs.read("AH") == 0

    def test_vector_aliasing(self):
        regs = RegisterFile()
        regs.write("ZMM1", (1 << 511) | 0xABCD)
        assert regs.read("XMM1") == 0xABCD
        regs.write("XMM1", 0x1234)
        assert regs.read("XMM1") == 0x1234

    def test_flags(self):
        regs = RegisterFile()
        for flag in FLAGS:
            assert regs.read_flag(flag) is False
            regs.write_flag(flag, True)
            assert regs.read_flag(flag) is True

    def test_rflags_roundtrip(self):
        regs = RegisterFile()
        regs.write_flag("CF", True)
        regs.write_flag("ZF", True)
        value = regs.read_rflags()
        assert value & 1  # CF is bit 0
        assert value & (1 << 6)  # ZF is bit 6
        assert value & (1 << 1)  # reserved bit always set
        other = RegisterFile()
        other.write_rflags(value)
        assert other.read_flag("CF") and other.read_flag("ZF")
        assert not other.read_flag("SF")

    def test_snapshot_restore(self):
        regs = RegisterFile()
        regs.write("RAX", 42)
        regs.write("XMM2", 99)
        regs.write_flag("OF", True)
        snap = regs.snapshot()
        regs.write("RAX", 7)
        regs.write("XMM2", 1)
        regs.write_flag("OF", False)
        regs.restore(snap)
        assert regs.read("RAX") == 42
        assert regs.read("XMM2") == 99
        assert regs.read_flag("OF") is True

    def test_differing_registers(self):
        regs = RegisterFile()
        snap = regs.snapshot()
        regs.write("R9", 5)
        assert regs.differing_registers(snap) == ("R9",)
