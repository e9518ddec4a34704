"""Tests for the related-work baseline implementations."""

import pytest

from repro.baselines import (
    AgnerLikeFramework,
    PapiLikeCounters,
    RESERVED_REGISTERS,
    WholeProgramProfiler,
)
from repro.core.nanobench import NanoBench
from repro.errors import NanoBenchError
from repro.uarch.core import SimulatedCore


@pytest.fixture()
def core():
    return SimulatedCore("Skylake", seed=0)


class TestWholeProgram:
    def test_empty_main_overhead(self, core):
        """Section I: an empty main executes > 500k instructions."""
        profiler = WholeProgramProfiler(core, seed=1)
        result = profiler.run(asm="")
        assert result["Instructions retired"] > 400_000
        assert result["Branches"] > 50_000

    def test_run_to_run_variance(self, core):
        profiler = WholeProgramProfiler(core, seed=2)
        counts = {profiler.run("")["Instructions retired"]
                  for _ in range(5)}
        assert len(counts) > 1  # "varies significantly from run to run"

    def test_tiny_benchmark_swamped(self, core):
        """The measured kernel is invisible next to startup noise."""
        profiler = WholeProgramProfiler(core, seed=3)
        empty = profiler.run("")
        with_code = profiler.run("add RAX, RAX")
        noise = abs(with_code["Instructions retired"]
                    - empty["Instructions retired"])
        assert noise > 100  # the 1-instruction signal is unrecoverable


class TestPapiLike:
    def test_measures_with_overhead(self, core):
        core.address_space.map_user(0x100000, 4096)
        papi = PapiLikeCounters(core, ["UOPS_ISSUED.ANY"])
        result = papi.measure(asm="add RAX, RAX", repeat=10)
        # Values include the start/stop library calls: way above the
        # true 1 instruction / 1 cycle per repetition.
        assert result["Instructions retired"] > 1.5
        assert result["Core cycles"] > 2.0

    def test_overhead_vs_nanobench(self):
        """nanoBench's differencing removes what PAPI cannot."""
        nb = NanoBench.kernel("Skylake", seed=0)
        nano = nb.run(asm="add RAX, RAX")["Core cycles"]
        core = SimulatedCore("Skylake", seed=0)
        papi = PapiLikeCounters(core, [])
        papi_cycles = papi.measure(asm="add RAX, RAX", repeat=100)["Core cycles"]
        assert abs(nano - 1.0) < 0.05
        assert papi_cycles > nano + 0.2

    def test_stop_without_start(self, core):
        papi = PapiLikeCounters(core, [])
        with pytest.raises(NanoBenchError):
            papi.stop()

    def test_clobbers_registers(self, core):
        """The start call modifies GPRs — the paper's complaint that an
        init-phase register value cannot survive into the main part."""
        papi = PapiLikeCounters(core, [])
        core.regs.write("RBX", 0xDEAD)
        core.regs.write("RCX", 0xBEEF)
        papi.start()
        assert (core.regs.read("RBX") != 0xDEAD
                or core.regs.read("RCX") != 0xBEEF)

    def test_too_many_events(self, core):
        with pytest.raises(NanoBenchError):
            PapiLikeCounters(core, ["UOPS_ISSUED.ANY"] * 9)


class TestAgnerLike:
    def test_measures_basic_latency(self, core):
        framework = AgnerLikeFramework(core, n_measurements=5)
        result = framework.measure(asm="imul RAX, RAX")
        # CPUID serialization: the right ballpark but noisy.
        assert 1.0 < result["Core cycles"] < 8.0

    def test_reserved_registers_enforced(self, core):
        framework = AgnerLikeFramework(core)
        with pytest.raises(NanoBenchError):
            framework.measure(asm="mov R14, [R14]")

    def test_no_uncore_events(self, core):
        framework = AgnerLikeFramework(core)
        with pytest.raises(NanoBenchError):
            framework.measure(asm="nop", events=["CBOX0_LLC_LOOKUP.ANY"])

    def test_reserved_set_documented(self):
        assert "R15" in RESERVED_REGISTERS
