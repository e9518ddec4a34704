"""Tests for the case-study-I instruction-characterization tools."""

import pytest

from repro.core.nanobench import NanoBench
from repro.tools.instr import (
    build_corpus,
    characterize_corpus_batched,
    characterize_variant,
    corpus_for_family,
    format_port_usage,
)


@pytest.fixture(scope="module")
def nb():
    return NanoBench.kernel("Skylake", seed=1)


@pytest.fixture(scope="module")
def variants():
    return {v.name: v for v in build_corpus()}


class TestCorpus:
    def test_size_and_axes(self, variants):
        corpus = build_corpus()
        assert len(corpus) >= 90
        mnemonics = {v.mnemonic for v in corpus}
        # Coverage across the paper's axes.
        assert {"ADD", "IMUL", "DIV", "MOV", "LEA"} <= mnemonics
        assert any(v.mnemonic.startswith("CMOV") for v in corpus)
        assert any("XMM" in v.name for v in corpus)
        assert any("YMM" in v.name for v in corpus)
        assert any("ZMM" in v.name for v in corpus)  # AVX-512 extension
        assert any(v.kernel_only for v in corpus)    # privileged

    def test_family_filtering(self):
        skl = corpus_for_family("SKL")
        nhm = corpus_for_family("NHM")
        assert len(nhm) < len(skl)
        assert not any("ZMM" in v.name for v in nhm)

    def test_no_reserved_registers(self, variants):
        for variant in variants.values():
            # R15 is the loop register; R8-R13 are noMem registers.
            assert "R15" not in variant.throughput_asm


class TestMeasurements:
    @pytest.mark.parametrize("name,latency", [
        ("ADD (R64, R64)", 1.0),
        ("IMUL (R64, R64)", 3.0),
        ("MOV (R64, M64) [load]", 4.0),
        ("MULSD (XMM, XMM)", 4.0),
    ])
    def test_latency_values(self, nb, variants, name, latency):
        profile = characterize_variant(nb, variants[name])
        assert profile.latency == pytest.approx(latency, abs=0.15)

    @pytest.mark.parametrize("name,throughput", [
        ("ADD (R64, R64)", 0.25),
        ("IMUL (R64, R64)", 1.0),
        ("MOV (R64, M64) [load]", 0.5),
        ("SHL (R64, I)", 0.5),
    ])
    def test_throughput_values(self, nb, variants, name, throughput):
        profile = characterize_variant(nb, variants[name])
        assert profile.throughput == pytest.approx(throughput, abs=0.1)

    def test_port_usage_load(self, nb, variants):
        profile = characterize_variant(nb, variants["MOV (R64, M64) [load]"])
        assert profile.ports == {"2": pytest.approx(0.5, abs=0.05),
                                 "3": pytest.approx(0.5, abs=0.05)}

    def test_port_usage_mul_restricted(self, nb, variants):
        profile = characterize_variant(nb, variants["IMUL (R64, R64)"])
        assert set(profile.ports) == {"1"}

    def test_uops_rmw_memory(self, nb, variants):
        profile = characterize_variant(nb, variants["ADD (R64, M64)"])
        assert profile.uops == pytest.approx(2.0, abs=0.1)

    def test_latency_flags_to_reg_via_helper(self, nb, variants):
        profile = characterize_variant(nb, variants["CMOVZ (R64, R64)"])
        assert profile.latency == pytest.approx(1.0, abs=0.2)

    def test_mov_elimination_visible(self, nb, variants):
        profile = characterize_variant(nb, variants["MOV (R64, R64)"])
        assert profile.ports == {}  # no execution port used
        # Eliminated moves still consume front-end slots, so the chain
        # runs at front-end speed (4 µops/cycle), not at 1 cycle/link.
        assert profile.latency <= 0.5


class TestCharacterize:
    def test_profile_success(self, nb, variants):
        profile = characterize_variant(nb, variants["ADD (R64, R64)"])
        assert profile.error is None
        assert profile.latency == 1.0
        assert profile.port_string == "1*p0156"

    def test_kernel_only_variant_in_user_mode(self, variants):
        nb_user = NanoBench.user("Skylake", seed=2)
        profile = characterize_variant(
            nb_user, variants["RDMSR (IA32_APERF)"]
        )
        assert profile.error is not None

    def test_unsupported_instruction_recorded(self, variants):
        nb_old = NanoBench.kernel("SandyBridge", seed=2)
        profile = characterize_variant(
            nb_old, variants["VFMADD231PS (XMM, XMM, XMM)"]
        )
        assert profile.error is not None

    def test_family_differences_measured(self, variants):
        """MULSD: 4 cycles on Skylake, 5 on Haswell (public numbers)."""
        nb_skl = NanoBench.kernel("Skylake", seed=2)
        nb_hsw = NanoBench.kernel("Haswell", seed=2)
        variant = variants["MULSD (XMM, XMM)"]
        assert characterize_variant(nb_skl, variant).latency == \
            pytest.approx(4.0, abs=0.1)
        assert characterize_variant(nb_hsw, variant).latency == \
            pytest.approx(5.0, abs=0.1)

    def test_shared_core_equals_batched_sweep(self):
        """One shared core gives the fresh-core batch profiles (CPUID
        aside: its latency draws from the core's RNG state)."""
        names = [
            "ADD (R64, R64)", "ADD (R64, M64)", "IMUL (R64, R64)",
            "DIV (R64)", "MOV (R64, R64)", "MOV (R64, M64) [load]",
            "CMOVZ (R64, R64)", "MULSD (XMM, XMM)", "LFENCE",
            "RDMSR (IA32_APERF)",
        ]
        corpus = {v.name: v for v in corpus_for_family("SKL")}
        chosen = [corpus[name] for name in names]
        nb = NanoBench.kernel("Skylake", seed=0)
        shared = [characterize_variant(nb, v) for v in chosen]
        assert shared == characterize_corpus_batched(
            "Skylake", chosen, seed=0, kernel_mode=True, jobs=1
        )
        assert all(p.error is None for p in shared)


class TestPortFormatting:
    def test_uniform_group(self):
        assert format_port_usage(
            {"0": 0.25, "1": 0.25, "5": 0.25, "6": 0.25}
        ) == "1*p0156"

    def test_mixed_groups(self):
        text = format_port_usage({"2": 0.5, "3": 0.5, "4": 1.0})
        assert "1*p4" in text and "1*p23" in text

    def test_empty(self):
        assert format_port_usage({}) == "-"

    def test_fractional_total(self):
        assert format_port_usage({"0": 0.4}) == "0.40*p0"
