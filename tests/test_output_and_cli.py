"""Tests for output formatting and the remaining CLI paths."""

import os
import re
import subprocess
import sys

import pytest

from repro.core.cli import build_parser, main as cli_main
from repro.core.output import format_results, format_table
from repro.perfctr.config import format_config, example_skylake_config
from repro.x86.assembler import assemble
from repro.x86.encoder import encode_program


class TestFormatResults:
    def test_two_decimals(self):
        text = format_results({"Core cycles": 4.0, "X": 0.5})
        assert text == "Core cycles: 4.00\nX: 0.50"

    def test_precision_override(self):
        assert format_results({"A": 1.2345}, precision=3) == "A: 1.234"

    def test_empty(self):
        assert format_results({}) == ""


class TestFormatTable:
    def test_alignment(self):
        table = format_table(
            [["a", 1], ["long-name", 22]], headers=["col", "n"]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
        assert all(len(line) == len(lines[0]) or True for line in lines)
        assert "long-name" in lines[3]

    def test_empty_rows(self):
        table = format_table([], headers=["a"])
        assert "a" in table


class TestCli:
    def test_warnings_print_as_one_line_each(self):
        # A skipped event is reported in the CLI's own words, with no
        # library file name, line number or source line.
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_FAULTS")}
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "-asm", "add RAX, RAX",
             "-backend", "analytic"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0
        assert completed.stderr == "".join(
            "warning: skipping unschedulable event %r: event %r requires "
            "the 'cache_events' capability, which backend 'analytic' does "
            "not provide (no per-cycle memory hierarchy)\n" % (name, name)
            for name in ("MEM_LOAD_RETIRED.L1_HIT", "MEM_LOAD_RETIRED.L1_MISS")
        )

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.uarch == "Skylake"
        assert args.kernel is True
        assert args.unroll_count == 100

    def test_binary_code_files(self, tmp_path, capsys):
        code_path = tmp_path / "bench.bin"
        init_path = tmp_path / "init.bin"
        code_path.write_bytes(encode_program(assemble("mov R14, [R14]")))
        init_path.write_bytes(encode_program(assemble("mov [R14], R14")))
        exit_code = cli_main([
            "-code", str(code_path),
            "-code_init", str(init_path),
            "-n_measurements", "3",
        ])
        assert exit_code == 0
        assert "Core cycles: 4.00" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["-code", "-code_init"])
    @pytest.mark.parametrize("content, message", [
        (None, "error: cannot read code file %s: "),
        (b"\x05\x00\x00", "error: %s: truncated instruction at offset 0\n"),
        (b"\x00\x02\xff\xfe", "error: %s: non-ASCII label name at offset 0\n"),
    ])
    def test_bad_binary_code_file_is_one_error_line(self, tmp_path, capsys,
                                                   flag, content, message):
        path = tmp_path / "bench.bin"
        if content is not None:
            path.write_bytes(content)
        assert cli_main(["-asm", "nop", flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message % path)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text_flag, text, code_flag, names", [
        ("-asm", "mov R14, [R14]", "-code", "asm and code"),
        ("-asm_init", "mov [R14], R14", "-code_init", "asm_init and init"),
    ])
    def test_asm_and_code_together_is_one_error_line(
            self, tmp_path, capsys, text_flag, text, code_flag, names):
        path = tmp_path / "imul.bin"
        path.write_bytes(encode_program(assemble("imul RAX, RAX")))
        assert cli_main([text_flag, text, code_flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: both %s are given; give one of them\n" % names
        )

    def test_config_file(self, tmp_path, capsys):
        config_path = tmp_path / "cfg_Skylake.txt"
        config_path.write_text(format_config(example_skylake_config()))
        exit_code = cli_main([
            "-asm", "mov R14, [R14]",
            "-asm_init", "mov [R14], R14",
            "-config", str(config_path),
            "-n_measurements", "3",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "MEM_LOAD_RETIRED.L1_HIT: 1.00" in out

    # The counts are fault-free accounting: run-level replay is refused
    # under any active fault plan.
    @pytest.mark.no_chaos
    def test_verbose_report(self, capsys):
        exit_code = cli_main([
            "-asm", "nop", "-verbose", "-n_measurements", "2",
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "# 8 runs, 2 counter groups, " in err
        # Kernel mode is the default, so runs at a fixed point replay,
        # and every copy of the clean body after the first skips its
        # semantics.
        assert re.search(r"# sim: 1848 instructions \(1192 fast-path, "
                         r"0 fallbacks\) in [0-9.]+ s host, "
                         r"3 replayed runs\n", err)

    def test_options_flow_through(self, capsys):
        exit_code = cli_main([
            "-asm", "imul RAX, RAX",
            "-agg", "min",
            "-serializer", "lfence",
            "-unroll_count", "20",
            "-loop_count", "5",
            "-n_measurements", "3",
            "-no_fixed_counters",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        # Without fixed counters and without a config on SKL, the
        # default example config still prints event lines.
        assert "Core cycles" not in out or "UOPS" in out

    def test_other_uarch(self, capsys):
        exit_code = cli_main([
            "-asm", "add RAX, RAX", "-uarch", "Zen",
            "-n_measurements", "2",
        ])
        assert exit_code == 0
        assert "Core cycles: 1.00" in capsys.readouterr().out

    def test_max_n_measurements_turns_stability_on(self, capsys):
        exit_code = cli_main([
            "-asm", "nop", "-n_measurements", "4", "-unroll_count", "5",
            "-max_n_measurements", "20",
        ])
        assert exit_code == 0
        assert "# quality:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, cap", [
        ([], None),
        (["-stability"], 80),
        (["-max_n_measurements", "20"], 20),
        (["-stability", "-max_n_measurements", "20"], 20),
    ])
    def test_stability_cap(self, flags, cap):
        from repro.core.cli import _stability_cap

        args = build_parser().parse_args(["-asm", "nop"] + flags)
        assert _stability_cap(args) == cap

    @pytest.mark.parametrize("outer", [None, "1"])
    def test_no_fast_path_is_scoped_to_the_invocation(self, capsys,
                                                      monkeypatch, outer):
        from repro.uarch.core import SimulatedCore

        if outer is None:
            monkeypatch.delenv("NANOBENCH_FAST_PATH", raising=False)
        else:
            monkeypatch.setenv("NANOBENCH_FAST_PATH", outer)
        exit_code = cli_main([
            "-asm", "add RAX, RAX", "-no_fast_path", "-verbose",
        ])
        assert exit_code == 0
        # In force for the invocation: nothing ran on the fast path ...
        assert "(0 fast-path, 0 fallbacks)" in capsys.readouterr().err
        # ... and gone after it, for every core built later.
        assert os.environ.get("NANOBENCH_FAST_PATH") == outer
        assert SimulatedCore("Skylake").fast_path_enabled
