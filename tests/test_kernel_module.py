"""Tests for the simulated kernel module's virtual-file interface."""

import pytest

from repro.errors import DecodingError, NanoBenchError
from repro.kernel.module import PROC_PATH, SYS_PREFIX, KernelModule
from repro.x86.assembler import assemble
from repro.x86.encoder import encode_program


@pytest.fixture()
def module():
    return KernelModule("Skylake", seed=0)


class TestVirtualFiles:
    def test_option_files_roundtrip(self, module):
        module.write_file(SYS_PREFIX + "unroll_count", 32)
        assert module.read_file(SYS_PREFIX + "unroll_count") == "32\n"
        assert module.nanobench.options.unroll_count == 32

    def test_string_option(self, module):
        module.write_file(SYS_PREFIX + "agg", "min")
        assert module.nanobench.options.aggregate == "min"

    def test_bool_option(self, module):
        module.write_file(SYS_PREFIX + "no_mem", "1")
        assert module.nanobench.options.no_mem is True

    def test_invalid_option_value(self, module):
        with pytest.raises(NanoBenchError):
            module.write_file(SYS_PREFIX + "unroll_count", 0)

    def test_unknown_file(self, module):
        with pytest.raises(NanoBenchError):
            module.write_file(SYS_PREFIX + "bogus", 1)
        with pytest.raises(NanoBenchError):
            module.read_file("/sys/other")

    def test_available_files(self, module):
        files = module.available_files()
        assert PROC_PATH in files
        assert SYS_PREFIX + "loop_count" in files


class TestRunningViaProc:
    def test_asm_benchmark(self, module):
        module.write_file(SYS_PREFIX + "asm", "mov R14, [R14]")
        module.write_file(SYS_PREFIX + "asm_init", "mov [R14], R14")
        output = module.read_file(PROC_PATH)
        assert "Core cycles: 4.00" in output

    def test_binary_code_benchmark(self, module):
        code = encode_program(assemble("imul RAX, RAX"))
        module.write_file(SYS_PREFIX + "code", code)
        output = module.read_file(PROC_PATH)
        assert "Core cycles: 3.00" in output

    def test_non_ascii_label_is_a_decoding_error(self, module):
        module.write_file(SYS_PREFIX + "code", bytes((0x00, 0x02, 0xFF, 0xFE)))
        with pytest.raises(DecodingError, match="non-ASCII label name"):
            module.read_file(PROC_PATH)

    def test_config_file(self, module):
        module.write_file(SYS_PREFIX + "asm", "mov R14, [R14]")
        module.write_file(SYS_PREFIX + "asm_init", "mov [R14], R14")
        module.write_file(
            SYS_PREFIX + "config",
            "D1.01 MEM_LOAD_RETIRED.L1_HIT\n",
        )
        output = module.read_file(PROC_PATH)
        assert "MEM_LOAD_RETIRED.L1_HIT: 1.00" in output

    def test_r14_size(self, module):
        module.write_file(SYS_PREFIX + "r14_size", 8 << 20)
        assert module.nanobench.r14_size == 8 << 20
        assert module.nanobench.r14_physical_base is not None

    def test_reset(self, module):
        module.write_file(SYS_PREFIX + "asm", "nop")
        module.write_file(SYS_PREFIX + "unroll_count", 7)
        module.write_file(SYS_PREFIX + "reset", 1)
        assert module.read_file(SYS_PREFIX + "asm") == ""
        assert module.nanobench.options.unroll_count == 100

    def test_unload(self, module):
        module.unload()
        with pytest.raises(NanoBenchError):
            module.read_file(PROC_PATH)
