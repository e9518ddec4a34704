"""The performance-monitoring unit: fixed, programmable and uncore counters.

Mirrors the register-level interface of Section II:

* three fixed-function counters (instructions retired, core cycles,
  reference cycles), readable with RDPMC index ``(1 << 30) | n``;
* N programmable counters configured through ``IA32_PERFEVTSELx`` MSRs
  and readable with RDPMC or the ``IA32_PMCx`` MSRs;
* APERF / MPERF, readable *only* via RDMSR (kernel space);
* per-C-Box uncore counters, also MSR-only on Intel.

User-space RDPMC is gated on the CR4.PCE flag, exactly as on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import CounterError, PrivilegeError
from .events import PerfEvent

_WRAP = 1 << 48  # architectural counter width

#: Wrap moduli used by the chaos plane's ``counter.overflow`` fault
#: class: 48-bit programmable counters, 40-bit fixed counters.
PROGRAMMABLE_WRAP = _WRAP
FIXED_WRAP = 1 << 40

#: Any per-run delta at or beyond this magnitude is physically
#: impossible in the simulation and is treated as a wraparound artefact
#: (alongside negative deltas) by the self-healing measurement loop.
OVERFLOW_SUSPECT_THRESHOLD = 1 << 39


def delta_suspicious(delta: float) -> bool:
    """Is a per-run ``m2 - m1`` delta a counter-wraparound artefact?"""
    return delta < 0 or delta >= OVERFLOW_SUSPECT_THRESHOLD

# MSR addresses (Intel SDM).
MSR_IA32_PMC0 = 0xC1
MSR_IA32_PERFEVTSEL0 = 0x186
MSR_IA32_FIXED_CTR0 = 0x309
MSR_IA32_MPERF = 0xE7
MSR_IA32_APERF = 0xE8
MSR_MISC_FEATURE_CONTROL = 0x1A4  # prefetcher-disable bits
#: Synthetic base for per-C-Box uncore counter MSRs.
MSR_UNCORE_CBOX_BASE = 0x700

FIXED_INSTRUCTIONS = 0
FIXED_CORE_CYCLES = 1
FIXED_REF_CYCLES = 2

_FIXED_METRICS = ("instructions_retired", "core_cycles", "ref_cycles")


class MetricStore:
    """Monotone raw metric totals maintained by the simulated core."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def add(self, metric: str, amount: float = 1.0) -> None:
        self._values[metric] = self._values.get(metric, 0.0) + amount

    def get(self, metric: str) -> float:
        return self._values.get(metric, 0.0)

    def set(self, metric: str, value: float) -> None:
        self._values[metric] = value

    def snapshot(self) -> Dict[str, float]:
        return dict(self._values)

    def load(self, values: Dict[str, float]) -> None:
        """Replace every value (a run replay's read points)."""
        self._values = values


@dataclass
class _ProgrammableCounter:
    event: Optional[PerfEvent] = None
    base: float = 0.0  # metric value when the counter was programmed


class PerformanceMonitoringUnit:
    """Counter state of one logical core (plus uncore access)."""

    def __init__(self, metrics: MetricStore, n_programmable: int = 4,
                 n_cboxes: int = 0) -> None:
        self.metrics = metrics
        self.n_programmable = n_programmable
        self.n_cboxes = n_cboxes
        self._programmable: List[_ProgrammableCounter] = [
            _ProgrammableCounter() for _ in range(n_programmable)
        ]
        #: CR4.PCE: user-space RDPMC permission (set by nanoBench setup).
        self.user_rdpmc_enabled = True
        #: Counting gate for the Section III-I pause/resume feature.
        self.counting_paused = False
        self._pause_base: Dict[str, float] = {}
        self._paused_totals: Dict[str, float] = {}
        # Chaos plane: active wrap biases (counter id -> bias) modelling
        # a counter whose hidden start offset sits just below its wrap
        # boundary (installed via :meth:`inject_wrap_faults`).
        self._wrap_bias: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Pause / resume (magic byte sequences)
    # ------------------------------------------------------------------
    def pause_counting(self) -> None:
        """Stop attributing metric increments to the counters."""
        if self.counting_paused:
            return
        self.counting_paused = True
        self._pause_base = self.metrics.snapshot()

    def resume_counting(self) -> None:
        """Resume counting; increments made while paused are discarded."""
        if not self.counting_paused:
            return
        self.counting_paused = False
        current = self.metrics.snapshot()
        for metric, value in current.items():
            skipped = value - self._pause_base.get(metric, 0.0)
            if skipped:
                self._paused_totals[metric] = (
                    self._paused_totals.get(metric, 0.0) + skipped
                )

    def _counted(self, metric: str) -> float:
        """Metric value as seen by counters (paused increments removed)."""
        value = self.metrics.get(metric) - self._paused_totals.get(metric, 0.0)
        if self.counting_paused:
            value -= self.metrics.get(metric) - self._pause_base.get(metric, 0.0)
        return value

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def program(self, slot: int, event: Optional[PerfEvent]) -> None:
        """Program (or clear) one programmable counter slot."""
        if not 0 <= slot < self.n_programmable:
            raise CounterError(
                "counter slot %d out of range (have %d)"
                % (slot, self.n_programmable)
            )
        counter = self._programmable[slot]
        counter.event = event
        counter.base = self._counted(event.metric) if event else 0.0
        # Reprogramming starts a fresh counter session: pending chaos
        # wrap biases belong to the previous session and are dropped.
        self._wrap_bias.clear()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def inject_wrap_faults(self, plan, key: str) -> None:
        """Install near-wrap start offsets on all counting counters.

        The chaos plane's ``counter.overflow`` fault pretends each
        counter's hidden start offset sat just below the wrap boundary.
        The caller invokes this *between* measurement runs, so the next
        run's first read lands near the top of the range and its second
        read wraps to a small value: exactly one ``m2 - m1`` delta goes
        negative, and every later delta (both reads past the boundary)
        stays exact.  A negative delta is exact modulo the wrap width,
        so the measurement layer recovers it losslessly.
        """
        targets = [
            ("fixed%d" % index, _FIXED_METRICS[index], 0.0, FIXED_WRAP)
            for index in range(len(_FIXED_METRICS))
        ]
        targets.extend(
            ("pmc%d" % slot, counter.event.metric, counter.base,
             PROGRAMMABLE_WRAP)
            for slot, counter in enumerate(self._programmable)
            if counter.event is not None
        )
        for counter_id, metric, base, wrap in targets:
            if counter_id in self._wrap_bias:
                continue
            margin = int(
                plan.fraction("counter.overflow", "%s|%s" % (key, counter_id))
                * 255
            ) + 1
            raw = int(self._counted(metric) - base)
            self._wrap_bias[counter_id] = (wrap - (raw % wrap) - margin) % wrap

    def _read_with_wrap(self, counter_id: str, raw: int, wrap: int) -> int:
        """Apply the counter's wrap modulus, plus any injected bias."""
        bias = self._wrap_bias.get(counter_id)
        if bias is not None:
            return (raw + bias) % wrap
        return raw % wrap

    def read_fixed(self, index: int) -> int:
        if not 0 <= index < len(_FIXED_METRICS):
            raise CounterError("fixed counter %d does not exist" % (index,))
        raw = int(self._counted(_FIXED_METRICS[index]))
        return self._read_with_wrap("fixed%d" % index, raw, FIXED_WRAP)

    def read_programmable(self, slot: int) -> int:
        if not 0 <= slot < self.n_programmable:
            raise CounterError("no programmable counter %d" % (slot,))
        counter = self._programmable[slot]
        if counter.event is None:
            return 0
        raw = int(self._counted(counter.event.metric) - counter.base)
        return self._read_with_wrap("pmc%d" % slot, raw, PROGRAMMABLE_WRAP)

    def rdpmc(self, ecx: int, *, kernel_mode: bool) -> int:
        """The RDPMC instruction (fixed counters via bit 30)."""
        if not kernel_mode and not self.user_rdpmc_enabled:
            raise PrivilegeError(
                "RDPMC in user mode requires CR4.PCE (run the nanoBench "
                "setup, or use the kernel-space version)"
            )
        if ecx & (1 << 30):
            return self.read_fixed(ecx & 0x3FFFFFFF)
        return self.read_programmable(ecx)

    def read_uncore(self, cbox: int, metric_suffix: str = "lookups") -> int:
        if not 0 <= cbox < self.n_cboxes:
            raise CounterError("no C-Box %d" % (cbox,))
        return int(self._counted("cbox%d_%s" % (cbox, metric_suffix))) % _WRAP

    # ------------------------------------------------------------------
    # MSR interface (used by RDMSR/WRMSR)
    # ------------------------------------------------------------------
    def read_msr(self, index: int) -> Optional[int]:
        """Handle PMU-owned MSRs; None if the MSR is not a counter MSR."""
        if index == MSR_IA32_APERF:
            return int(self._counted("aperf")) % _WRAP
        if index == MSR_IA32_MPERF:
            return int(self._counted("mperf")) % _WRAP
        if MSR_IA32_FIXED_CTR0 <= index < MSR_IA32_FIXED_CTR0 + 3:
            return self.read_fixed(index - MSR_IA32_FIXED_CTR0)
        if MSR_IA32_PMC0 <= index < MSR_IA32_PMC0 + self.n_programmable:
            return self.read_programmable(index - MSR_IA32_PMC0)
        if (MSR_UNCORE_CBOX_BASE <= index
                < MSR_UNCORE_CBOX_BASE + 16 * max(self.n_cboxes, 1)):
            offset = index - MSR_UNCORE_CBOX_BASE
            cbox, which = divmod(offset, 16)
            suffix = {0: "lookups", 1: "misses", 2: "evictions"}.get(which)
            if suffix is not None and cbox < self.n_cboxes:
                return self.read_uncore(cbox, suffix)
        return None
