"""Cross-backend fidelity comparison (the A6 workflow).

Runs the same instruction corpus through two measurement backends —
the cycle-accurate ``sim`` core and the OSACA-style ``analytic``
estimator — and reports, per instruction variant, how far
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
from typing import Dict, List, Mapping, Optional, Sequence

from ..backends import DEFAULT_BACKEND
from .instr.characterize import characterize_corpus_batched
from .instr.corpus import InstructionVariant
from .instr.measure import InstructionProfile


def band_violations(reference: Mapping[str, float],
                    candidate: Mapping[str, float],
                    abs_tol: float, rel_tol: float) -> Dict[str, float]:
    """The counters outside the agreement band, with their deviations.

    This is the one rule that decides whether a candidate's answer
    agrees with the reference: a counter both sides report is outside
    the band when ``|candidate - reference|`` exceeds
    ``max(abs_tol, rel_tol * |reference|)``.  A counter only one side
    reports (the analytic backend skips cache and uncore events) is not
    compared, so no shared counters means no violation.  The result is
    ``{counter: deviation}``; empty means the two answers agree.
    """
    violations: Dict[str, float] = {}
    for name, value in reference.items():
        if name not in candidate:
            continue
        deviation = abs(candidate[name] - value)
        if deviation > max(abs_tol, rel_tol * abs(value)):
            violations[name] = deviation
    return violations


#: :func:`compare_backends` measures the candidate against the reference.
REFERENCE_BACKEND = DEFAULT_BACKEND
CANDIDATE_BACKEND = "analytic"


@dataclass
class ProfileDeviation:
    """One variant's reference-vs-candidate :class:`InstructionProfile`
    pair: the latency, throughput, µop and per-port deviations."""

    name: str
    reference: InstructionProfile
    candidate: InstructionProfile

    @staticmethod
    def _delta(a: Optional[float], b: Optional[float]) -> Optional[float]:
        if a is None or b is None:
            return None
        return abs(a - b)

    @property
    def latency_deviation(self) -> Optional[float]:
        return self._delta(self.reference.latency, self.candidate.latency)

    @property
    def throughput_deviation(self) -> Optional[float]:
        return self._delta(self.reference.throughput,
                           self.candidate.throughput)

    @property
    def uops_deviation(self) -> Optional[float]:
        return self._delta(self.reference.uops, self.candidate.uops)

    @property
    def port_deviations(self) -> Dict[str, float]:
        """Per-port µop deviation over the ports both backends report.

        A port one backend leaves out (below its reporting threshold)
        is not compared.
        """
        reference, candidate = self.reference.ports, self.candidate.ports
        return {port: abs(reference[port] - candidate[port])
                for port in sorted(set(reference) & set(candidate))}

    @property
    def comparable(self) -> bool:
        """True when both backends produced a usable result."""
        return self.reference.error is None and self.candidate.error is None

    @property
    def max_deviation(self) -> Optional[float]:
        deltas = [d for d in (self.latency_deviation,
                              self.throughput_deviation,
                              self.uops_deviation) if d is not None]
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
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> BackendComparison:
    """Characterize the corpus on both backends and pair up the rows.

    Both sweeps use the same corpus, seed, and measurement parameters
    (kernel mode); only the backend differs, so every deviation in the
    table is model error, not measurement noise.  *jobs* shards the
    reference simulation over a worker pool; the analytic sweep is
    cheaper than the pool's own startup and runs serially.
    """
    started = time.perf_counter()
    reference_profiles = characterize_corpus_batched(
        uarch, variants, seed=seed, jobs=jobs, backend=REFERENCE_BACKEND,
    )
    reference_seconds = time.perf_counter() - started
    started = time.perf_counter()
    candidate_profiles = characterize_corpus_batched(
        uarch, variants, seed=seed, jobs=1, backend=CANDIDATE_BACKEND,
    )
    candidate_seconds = time.perf_counter() - started
    comparison = BackendComparison(
        uarch=uarch,
        reference_backend=REFERENCE_BACKEND,
        candidate_backend=CANDIDATE_BACKEND,
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
