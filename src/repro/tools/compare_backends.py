"""Cross-backend fidelity comparison (the A6 workflow).

Runs the same instruction corpus through two measurement backends —
by default the cycle-accurate ``sim`` core and the OSACA-style
``analytic`` estimator — and reports, per instruction variant, how far
the candidate's latency / throughput / µop numbers deviate from the
reference, plus the wall-clock speedup the cheaper backend buys.

This is the calibration loop for analytic backends: a deviation table
over the E6 corpus tells you exactly which instruction classes the
closed-form model gets wrong (and by how much) before you trust it for
a large sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..backends import DEFAULT_BACKEND
from .instr.characterize import characterize_corpus_batched
from .instr.corpus import InstructionVariant
from .instr.measure import InstructionProfile


class _Skipped:
    """Marker for an event one backend did not measure.

    Capability negotiation legitimately drops events (the analytic
    backend cannot answer cache or uncore questions), so a missing key
    in one backend's results is *not* a deviation — it is explicitly
    ``SKIPPED``, never a ``KeyError`` and never silently zero.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "skipped"

    def __reduce__(self):
        return (_skipped_instance, ())


def _skipped_instance() -> "_Skipped":
    return SKIPPED


#: Singleton marker returned for capability-skipped events.
SKIPPED = _Skipped()

#: An event comparison is either a numeric deviation or ``SKIPPED``.
EventDeviation = Union[float, _Skipped]


@dataclass
class ProfileDeviation:
    """One variant's reference-vs-candidate measurement pair.

    Two modes, sharing the deviation arithmetic:

    * *profile mode* (the A6 corpus sweep) — ``reference``/``candidate``
      are :class:`InstructionProfile`\\ s and the latency/throughput/µops
      metrics are compared;
    * *values mode* (the differential fuzzer) — ``reference_values`` /
      ``candidate_values`` are raw ``{event: value}`` result dicts and
      every shared event is compared, with events absent from one side
      (capability-skipped) reported as :data:`SKIPPED`.
    """

    name: str
    reference: Optional[InstructionProfile] = None
    candidate: Optional[InstructionProfile] = None
    #: Raw per-event results (values mode); events present on only one
    #: side are reported as :data:`SKIPPED`, not raised as KeyErrors.
    reference_values: Optional[Mapping[str, float]] = None
    candidate_values: Optional[Mapping[str, float]] = None

    @staticmethod
    def _delta(a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None or b is None:
            return None
        return abs(a - b)

    @property
    def latency_deviation(self) -> Optional[float]:
        if self.reference is None or self.candidate is None:
            return None
        return self._delta(self.reference.latency, self.candidate.latency)

    @property
    def throughput_deviation(self) -> Optional[float]:
        if self.reference is None or self.candidate is None:
            return None
        return self._delta(self.reference.throughput,
                           self.candidate.throughput)

    @property
    def uops_deviation(self) -> Optional[float]:
        if self.reference is None or self.candidate is None:
            return None
        return self._delta(self.reference.uops, self.candidate.uops)

    # -- per-event comparison (values mode and ports) -------------------
    @property
    def event_names(self) -> List[str]:
        """Union of both sides' event names, sorted."""
        names = set(self.reference_values or ())
        names.update(self.candidate_values or ())
        return sorted(names)

    @property
    def shared_events(self) -> List[str]:
        """Events both backends measured (the comparable set)."""
        if not self.reference_values or not self.candidate_values:
            return []
        return sorted(set(self.reference_values)
                      & set(self.candidate_values))

    @property
    def skipped_events(self) -> List[str]:
        """Events one backend measured and the other skipped."""
        reference = set(self.reference_values or ())
        candidate = set(self.candidate_values or ())
        return sorted(reference ^ candidate)

    def event_deviation(self, name: str) -> EventDeviation:
        """|reference - candidate| for one event, or :data:`SKIPPED`.

        An event missing from either side's results — because a backend
        lacks the capability and degraded gracefully — yields the
        explicit :data:`SKIPPED` marker instead of a ``KeyError``.
        """
        reference = (self.reference_values or {})
        candidate = (self.candidate_values or {})
        if name not in reference or name not in candidate:
            return SKIPPED
        return abs(reference[name] - candidate[name])

    def event_deviations(self) -> Dict[str, EventDeviation]:
        return {name: self.event_deviation(name)
                for name in self.event_names}

    @property
    def port_deviations(self) -> Dict[str, EventDeviation]:
        """Per-port µop deviation over the union of both port maps.

        Ports reported by only one backend (below the other's reporting
        threshold, or capability-skipped) map to :data:`SKIPPED`.
        """
        if self.reference is None or self.candidate is None:
            return {}
        reference, candidate = self.reference.ports, self.candidate.ports
        deviations: Dict[str, EventDeviation] = {}
        for port in sorted(set(reference) | set(candidate)):
            if port not in reference or port not in candidate:
                deviations[port] = SKIPPED
            else:
                deviations[port] = abs(reference[port] - candidate[port])
        return deviations

    @property
    def comparable(self) -> bool:
        """True when both backends produced a usable result."""
        if self.reference is not None and self.candidate is not None:
            return (self.reference.error is None
                    and self.candidate.error is None)
        return bool(self.reference_values is not None
                    and self.candidate_values is not None)

    @property
    def max_deviation(self) -> Optional[float]:
        deltas = [d for d in (self.latency_deviation,
                              self.throughput_deviation,
                              self.uops_deviation) if d is not None]
        deltas.extend(
            deviation for deviation in
            (self.event_deviation(name) for name in self.shared_events)
            if deviation is not SKIPPED
        )
        return max(deltas) if deltas else None

    def exact(self, tolerance: float = 0.01) -> bool:
        """True when every comparable metric agrees within *tolerance*."""
        worst = self.max_deviation
        return worst is not None and worst <= tolerance


@dataclass
class BackendComparison:
    """A corpus-wide comparison of two backends on one machine."""

    uarch: str
    reference_backend: str
    candidate_backend: str
    deviations: List[ProfileDeviation] = field(default_factory=list)
    reference_seconds: float = 0.0
    candidate_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Reference wall time over candidate wall time."""
        if self.candidate_seconds <= 0.0:
            return float("inf")
        return self.reference_seconds / self.candidate_seconds

    @property
    def compared(self) -> List[ProfileDeviation]:
        return [d for d in self.deviations if d.comparable]

    def _stats(self, metric: str):
        values = [getattr(d, metric) for d in self.compared]
        values = [v for v in values if v is not None]
        if not values:
            return (0.0, 0.0)
        return (sum(values) / len(values), max(values))

    @property
    def mean_latency_deviation(self) -> float:
        return self._stats("latency_deviation")[0]

    @property
    def mean_throughput_deviation(self) -> float:
        return self._stats("throughput_deviation")[0]

    @property
    def mean_uops_deviation(self) -> float:
        return self._stats("uops_deviation")[0]

    @property
    def max_deviation(self) -> float:
        worst = [d.max_deviation for d in self.compared]
        worst = [w for w in worst if w is not None]
        return max(worst) if worst else 0.0

    def exact_fraction(self, tolerance: float = 0.01) -> float:
        compared = self.compared
        if not compared:
            return 0.0
        exact = sum(1 for d in compared if d.exact(tolerance))
        return exact / len(compared)


def compare_backends(
    uarch: str = "Skylake",
    variants: Optional[Sequence[InstructionVariant]] = None,
    *,
    reference: str = DEFAULT_BACKEND,
    candidate: str = "analytic",
    seed: int = 0,
    kernel_mode: bool = True,
    jobs: Optional[int] = 1,
    candidate_jobs: Optional[int] = 1,
    stability=None,
) -> BackendComparison:
    """Characterize the corpus on both backends and pair up the rows.

    Both sweeps use the same corpus, seed, and measurement parameters;
    only the backend differs, so every deviation in the table is model
    error, not measurement noise.  The sweeps are configured separately
    (*jobs* vs *candidate_jobs*): the reference simulation amortizes a
    worker pool, while an analytic sweep is cheaper than the pool's own
    startup and defaults to running serially.
    """
    started = time.perf_counter()
    reference_profiles = characterize_corpus_batched(
        uarch, variants, seed=seed, kernel_mode=kernel_mode, jobs=jobs,
        stability=stability, backend=reference,
    )
    reference_seconds = time.perf_counter() - started
    started = time.perf_counter()
    candidate_profiles = characterize_corpus_batched(
        uarch, variants, seed=seed, kernel_mode=kernel_mode,
        jobs=candidate_jobs, stability=stability, backend=candidate,
    )
    candidate_seconds = time.perf_counter() - started
    comparison = BackendComparison(
        uarch=uarch,
        reference_backend=reference,
        candidate_backend=candidate,
        reference_seconds=reference_seconds,
        candidate_seconds=candidate_seconds,
    )
    for ref, cand in zip(reference_profiles, candidate_profiles):
        comparison.deviations.append(
            ProfileDeviation(name=ref.name, reference=ref, candidate=cand)
        )
    return comparison


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else "%.2f" % value


def comparison_to_table(comparison: BackendComparison) -> str:
    """Render the per-instruction deviation report as an aligned table."""
    ref = comparison.reference_backend
    cand = comparison.candidate_backend
    header = (
        "Instruction",
        "Lat(%s)" % ref, "Lat(%s)" % cand,
        "TP(%s)" % ref, "TP(%s)" % cand,
        "Uops(%s)" % ref, "Uops(%s)" % cand,
        "MaxDev",
    )
    rows = [header]
    for deviation in comparison.deviations:
        if not deviation.comparable:
            skipped = (deviation.reference.error
                       or deviation.candidate.error or "")
            rows.append((deviation.name, "skipped: %s" % skipped,
                         "", "", "", "", "", ""))
            continue
        rows.append((
            deviation.name,
            _fmt(deviation.reference.latency),
            _fmt(deviation.candidate.latency),
            _fmt(deviation.reference.throughput),
            _fmt(deviation.candidate.throughput),
            _fmt(deviation.reference.uops),
            _fmt(deviation.candidate.uops),
            _fmt(deviation.max_deviation),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip())
        if index == 0:
            lines.append("-" * len(lines[0]))
    lines.append("")
    compared = comparison.compared
    lines.append(
        "%d/%d variants compared; %.0f%% exact (<=0.01), "
        "mean deviation lat %.3f / tp %.3f / uops %.3f, max %.3f"
        % (len(compared), len(comparison.deviations),
           100.0 * comparison.exact_fraction(),
           comparison.mean_latency_deviation,
           comparison.mean_throughput_deviation,
           comparison.mean_uops_deviation,
           comparison.max_deviation)
    )
    lines.append(
        "wall time: %s %.2f s, %s %.2f s (%.1fx speedup)"
        % (ref, comparison.reference_seconds,
           cand, comparison.candidate_seconds, comparison.speedup)
    )
    return "\n".join(lines)
