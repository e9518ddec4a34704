"""Full-corpus characterization sweeps (the uops.info pipeline).

Sweeps the instruction corpus over one or more simulated
microarchitectures and renders the results as the interactive-table
rows of www.uops.info (Section V) or as machine-readable XML.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence
from xml.etree import ElementTree

from ...batch import BatchRunner
from ...core.output import format_table
from ...uarch.specs import get_spec
from .corpus import InstructionVariant, corpus_for_family
from .measure import InstructionProfile, profile_from_results, variant_specs


def characterize_corpus_batched(
    uarch: str = "Skylake",
    variants: Optional[Sequence[InstructionVariant]] = None,
    *,
    seed: int = 0,
    kernel_mode: bool = True,
    jobs: Optional[int] = 1,
    backend: str = "sim",
    store=None,
) -> List[InstructionProfile]:
    """The corpus sweep through the batch engine (``repro.batch``).

    Expands every variant to its four measurement specs, shards the
    whole list over a :class:`~repro.batch.BatchRunner`, and reassembles
    the per-variant profiles.  Results are identical for any ``jobs``
    value, since every spec runs on a fresh core.  They equal
    :func:`~repro.tools.instr.measure.characterize_variant` on one
    shared core for every corpus variant except CPUID (see
    :func:`~repro.tools.instr.measure.variant_specs`).

    With *store* (a :class:`repro.store.ResultStore` or its path), the
    sweep is incremental: specs whose digest is already stored are
    answered from the store without re-simulation — resubmitting a
    characterized corpus costs no measurement at all — and fresh
    results are durably recorded for the next sweep.
    """
    if variants is None:
        variants = corpus_for_family(get_spec(uarch).family)
    variants = list(variants)
    kept: List[InstructionVariant] = []
    skipped: Dict[str, InstructionProfile] = {}
    specs = []
    for variant in variants:
        if variant.kernel_only and not kernel_mode:
            skipped[variant.name] = InstructionProfile(
                variant.name, None, None, None, {},
                error="requires the kernel-space version",
            )
            continue
        kept.append(variant)
        specs.extend(
            variant_specs(variant, uarch, seed=seed, kernel_mode=kernel_mode,
                          backend=backend)
        )
    runner = BatchRunner(jobs, store=store)
    results = runner.run(specs)
    profiles: List[InstructionProfile] = []
    cursor = 0
    for variant in variants:
        if variant.name in skipped:
            profiles.append(skipped[variant.name])
            continue
        profiles.append(
            profile_from_results(variant, results[cursor:cursor + 4])
        )
        cursor += 4
    return profiles


def profiles_to_table(profiles: Sequence[InstructionProfile]) -> str:
    """Render profiles as an aligned text table (the HTML-table stand-in)."""
    rows = []
    for profile in profiles:
        if profile.error is not None:
            row = [profile.name, "-", "-", "-", profile.error]
        else:
            row = [
                profile.name,
                "%.2f" % profile.latency,
                "%.2f" % profile.throughput,
                "%.2f" % profile.uops,
                profile.port_string,
            ]
        rows.append(row)
    return format_table(
        rows, headers=["Instruction", "Lat", "TP", "Uops", "Ports"]
    )


def profiles_to_xml(profiles: Sequence[InstructionProfile],
                    uarch: str) -> str:
    """Render profiles as a uops.info-style XML document."""
    root = ElementTree.Element("root")
    arch = ElementTree.SubElement(root, "architecture", name=uarch)
    for profile in profiles:
        instr = ElementTree.SubElement(
            arch, "instruction", string=profile.name
        )
        if profile.error is not None:
            instr.set("error", profile.error)
            continue
        measurement = ElementTree.SubElement(
            instr, "measurement",
            latency="%.2f" % profile.latency,
            throughput="%.2f" % profile.throughput,
            uops="%.2f" % profile.uops,
            ports=profile.port_string,
        )
        for port, value in sorted(profile.ports.items()):
            ElementTree.SubElement(
                measurement, "port", name=port, usage="%.3f" % value
            )
    return ElementTree.tostring(root, encoding="unicode")


def compare_uarches(
    uarch_names: Sequence[str],
    variants: Optional[Sequence[InstructionVariant]] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> Dict[str, List[InstructionProfile]]:
    """Characterize the corpus on several microarchitectures.

    Goes through the batch engine; ``jobs`` shards each uarch's
    measurement specs across worker processes.
    """
    results: Dict[str, List[InstructionProfile]] = {}
    for name in uarch_names:
        family = get_spec(name).family
        family_variants = variants
        if family_variants is not None:
            family_variants = [
                v for v in family_variants if v.supported_on(family)
            ]
        results[name] = characterize_corpus_batched(
            name, family_variants, seed=seed, jobs=jobs
        )
    return results
