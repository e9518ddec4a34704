"""Latency / throughput / port-usage measurement (case study I).

"Of particular use is nanoBench's ability to benchmark privileged
instructions, the ability to unroll the code multiple times, and the
support for microbenchmarks to have an initialization sequence that is
not part of the performance measurement." (Section V.)

One variant is four benchmark specs (:func:`variant_specs`), combined
into a profile in exactly one place (:func:`profile_from_results`):

* latency — the variant's dependency chain; the cycles per link (minus
  helper latency) is the latency of the chained operand pair;
* throughput — independent instances; cycles per instruction is the
  reciprocal throughput;
* µops — ``UOPS_ISSUED.ANY`` per instruction instance;
* ports — the UOPS_DISPATCHED_PORT events per instance, multiplexed
  over counter groups automatically.

:func:`characterize_variant` runs the four specs on one caller-owned
core; the batch sweep (``characterize_corpus_batched``) runs each on a
fresh core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...batch.spec import BatchResult, BenchmarkSpec, spec_from_run_kwargs
from ...core.nanobench import NanoBench
from ...uarch.ports import PORT_LAYOUTS
from ...uarch.specs import get_spec
from .corpus import InstructionVariant

#: Measurement parameters tuned for the deterministic kernel variant.
_LATENCY_KW = dict(unroll_count=50, n_measurements=3, aggregate="med")
_THROUGHPUT_KW = dict(unroll_count=25, n_measurements=3, aggregate="med")


def format_port_usage(usage: Dict[str, float]) -> str:
    """Render port usage in the uops.info style, e.g. ``1*p0156``.

    Ports with (approximately) equal per-instruction usage are grouped;
    the multiplier is the total µop count of the group.
    """
    if not usage:
        return "-"
    groups: Dict[float, List[str]] = {}
    for port, value in sorted(usage.items()):
        key = round(value, 2)
        groups.setdefault(key, []).append(port)
    parts = []
    for value, ports in sorted(groups.items(), reverse=True):
        total = value * len(ports)
        total_str = ("%d" % round(total)
                     if abs(total - round(total)) < 0.05 else "%.2f" % total)
        parts.append("%s*p%s" % (total_str, "".join(ports)))
    return "+".join(parts)


@dataclass
class InstructionProfile:
    """The characterization result for one variant (a uops.info row)."""

    name: str
    latency: Optional[float]
    throughput: Optional[float]
    uops: Optional[float]
    ports: Dict[str, float]
    latency_pair: str = ""
    error: Optional[str] = None

    @property
    def port_string(self) -> str:
        return format_port_usage(self.ports)


#: The per-variant measurements, in the order they run (the first
#: failing one supplies the profile's error string).
_MEASUREMENT_ORDER = ("latency", "throughput", "uops", "ports")


def _port_events(uarch: str) -> List[str]:
    ports = PORT_LAYOUTS[get_spec(uarch).family].ports
    return ["UOPS_DISPATCHED_PORT.PORT_%s" % p for p in ports]


def variant_specs(
    variant: InstructionVariant,
    uarch: str = "Skylake",
    seed: int = 0,
    kernel_mode: bool = True,
    backend: str = "sim",
) -> List[BenchmarkSpec]:
    """The four benchmark specs behind one :class:`InstructionProfile`.

    The batch engine runs each spec on a fresh deterministically-seeded
    core; :func:`characterize_variant` runs them in order on one shared
    core.  The two agree wherever a measurement only consumes
    overhead-cancelled counter differences, which holds for every
    corpus variant except CPUID, whose latency draws from the core's
    RNG state and so depends on what ran on the core before.
    """
    common = dict(uarch=uarch, seed=seed, kernel_mode=kernel_mode,
                  backend=backend)
    return [
        spec_from_run_kwargs(
            asm=variant.latency_asm, asm_init=variant.init_asm,
            label="latency:%s" % variant.name, **common, **_LATENCY_KW,
        ),
        spec_from_run_kwargs(
            asm=variant.throughput_asm, asm_init=variant.init_asm,
            label="throughput:%s" % variant.name, **common, **_THROUGHPUT_KW,
        ),
        spec_from_run_kwargs(
            asm=variant.throughput_asm, asm_init=variant.init_asm,
            events=["UOPS_ISSUED.ANY"],
            label="uops:%s" % variant.name, **common, **_THROUGHPUT_KW,
        ),
        spec_from_run_kwargs(
            asm=variant.throughput_asm, asm_init=variant.init_asm,
            events=_port_events(uarch),
            label="ports:%s" % variant.name, **common, **_THROUGHPUT_KW,
        ),
    ]


def profile_from_results(
    variant: InstructionVariant,
    results: Sequence[BatchResult],
) -> InstructionProfile:
    """Combine the four :func:`variant_specs` results into a profile.

    The first failing measurement (in latency, throughput, µops,
    ports order) determines the recorded error; results after it may
    be missing.
    """
    by_kind = {
        result.spec.label.split(":", 1)[0]: result for result in results
    }
    for kind in _MEASUREMENT_ORDER:
        result = by_kind[kind]
        if not result.ok:
            return InstructionProfile(
                variant.name, None, None, None, {}, error=result.error
            )
    per_link = by_kind["latency"].values["Core cycles"]
    latency = (
        max(0.0, per_link - variant.latency_adjust) / variant.latency_divisor
    )
    throughput = (
        by_kind["throughput"].values["Core cycles"]
        / variant.throughput_instances
    )
    uops = (
        by_kind["uops"].values["UOPS_ISSUED.ANY"]
        / variant.throughput_instances
    )
    ports: Dict[str, float] = {}
    port_result = by_kind["ports"]
    prefix = "UOPS_DISPATCHED_PORT.PORT_"
    for name, value in port_result.values.items():
        if not name.startswith(prefix):
            continue
        value /= variant.throughput_instances
        if value > 0.005:
            ports[name[len(prefix):]] = round(value, 3)
    return InstructionProfile(
        name=variant.name,
        latency=round(latency, 2),
        throughput=round(throughput, 2),
        uops=round(uops, 2),
        ports=ports,
        latency_pair=variant.latency_pair,
    )


def characterize_variant(nb: NanoBench,
                         variant: InstructionVariant) -> InstructionProfile:
    """Measure one variant on *nb*; failures are recorded, not raised.

    Runs the :func:`variant_specs` on *nb* in order, stopping at the
    first failure.
    """
    if variant.kernel_only and not nb.kernel_mode:
        return InstructionProfile(
            variant.name, None, None, None, {},
            error="requires the kernel-space version",
        )
    results: List[BatchResult] = []
    for spec in variant_specs(variant, nb.core.spec.name,
                              kernel_mode=nb.kernel_mode):
        results.append(spec.execute(nb))
        if not results[-1].ok:
            break
    return profile_from_results(variant, results)
