"""Case study I: instruction latency / throughput / port usage."""

from .characterize import (
    characterize_corpus_batched,
    compare_uarches,
    profiles_to_table,
    profiles_to_xml,
)
from .corpus import InstructionVariant, build_corpus, corpus_for_family
from .measure import (
    InstructionProfile,
    characterize_variant,
    format_port_usage,
    profile_from_results,
    variant_specs,
)

__all__ = [
    "InstructionProfile",
    "InstructionVariant",
    "build_corpus",
    "characterize_corpus_batched",
    "characterize_variant",
    "compare_uarches",
    "corpus_for_family",
    "format_port_usage",
    "profile_from_results",
    "profiles_to_table",
    "profiles_to_xml",
    "variant_specs",
]
