"""Adaptive stability control (integrity pillar 3).

Section III of the paper handles measurement noise with warm-up runs
and min/median aggregation; this module closes the loop: it inspects
the raw per-run series a measurement produced, computes robust
dispersion statistics (median absolute deviation and interquartile
range), and decides whether the chosen aggregate can be trusted.  When
the ``max_n_measurements`` option is set, :meth:`NanoBench.run` uses it
to escalate ``n_measurements`` up to that cap, and stamps the result
with a machine-readable quality verdict:

* ``stable`` — dispersion within thresholds at the requested
  ``n_measurements``;
* ``escalated`` — stable only after ``n_measurements`` was raised;
* ``unstable-quarantined`` — still unstable at the cap; the value is
  reported but flagged so downstream consumers can quarantine it
  instead of silently averaging noise.

The checks are pure arithmetic over the series (no simulator state),
so verdicts are deterministic, and the default (no cap) leaves every
existing result byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

VERDICT_STABLE = "stable"
VERDICT_ESCALATED = "escalated"
VERDICT_QUARANTINED = "unstable-quarantined"


def _median_sorted(values: Sequence[float]) -> float:
    n = len(values)
    mid = n // 2
    if n % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


@dataclass(frozen=True)
class DispersionStats:
    """Robust dispersion of one counter's per-run series."""

    n: int
    median: float
    mad: float  # median absolute deviation
    iqr: float  # interquartile range (Q3 - Q1)

    @property
    def rel_mad(self) -> float:
        """MAD relative to the median magnitude (floored at 1 count)."""
        return self.mad / max(abs(self.median), 1.0)

    @property
    def rel_iqr(self) -> float:
        return self.iqr / max(abs(self.median), 1.0)

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n, "median": self.median, "mad": self.mad,
            "iqr": self.iqr, "rel_mad": self.rel_mad,
            "rel_iqr": self.rel_iqr,
        }


def compute_dispersion(values: Sequence[float]) -> DispersionStats:
    """MAD and IQR of *values* (exact, no sampling)."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        return DispersionStats(0, 0.0, 0.0, 0.0)
    median = _median_sorted(ordered)
    deviations = sorted(abs(v - median) for v in ordered)
    mad = _median_sorted(deviations)
    q1 = _median_sorted(ordered[:(n + 1) // 2])
    q3 = _median_sorted(ordered[n // 2:])
    return DispersionStats(n, median, mad, q3 - q1)


#: A counter's series is unstable when its dispersion is large both
#: absolutely (beyond ``ABS_FLOOR`` counts, so counter granularity noise
#: is never flagged) and relatively (beyond a threshold of the median
#: magnitude).
REL_MAD_THRESHOLD = 0.05
REL_IQR_THRESHOLD = 0.20
ABS_FLOOR = 1.0
#: Each escalation multiplies ``n_measurements`` by this factor, up to
#: the ``max_n_measurements`` cap.
ESCALATION_FACTOR = 2


def is_unstable(stats: DispersionStats) -> bool:
    if stats.n < 3:
        # Too few runs to judge dispersion; never flag.
        return False
    if stats.mad > ABS_FLOOR and stats.rel_mad > REL_MAD_THRESHOLD:
        return True
    return stats.iqr > 2 * ABS_FLOOR and stats.rel_iqr > REL_IQR_THRESHOLD


def worst_offender(
    samples: Iterable[Mapping[str, Sequence[float]]]
) -> Optional[Tuple[str, DispersionStats]]:
    """The unstable counter with the largest relative MAD, or None."""
    worst: Optional[Tuple[str, DispersionStats]] = None
    for series in samples:
        for name, values in series.items():
            stats = compute_dispersion(values)
            if not is_unstable(stats):
                continue
            if worst is None or stats.rel_mad > worst[1].rel_mad:
                worst = (name, stats)
    return worst


def next_n_measurements(current: int, cap: int) -> Optional[int]:
    """The escalated run count, or None when *cap* is reached."""
    if current >= cap:
        return None
    return min(cap, current * ESCALATION_FACTOR)


@dataclass
class QualityVerdict:
    """Machine-readable quality stamp attached to a measurement."""

    verdict: str
    n_measurements: int
    escalations: int = 0
    worst_counter: Optional[str] = None
    worst_stats: Optional[DispersionStats] = None

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "verdict": self.verdict,
            "n_measurements": self.n_measurements,
            "escalations": self.escalations,
        }
        if self.worst_counter is not None:
            record["worst_counter"] = self.worst_counter
        if self.worst_stats is not None:
            record["worst_stats"] = self.worst_stats.as_dict()
        return record

    def describe(self) -> str:
        text = "%s (n=%d, escalations=%d" % (
            self.verdict, self.n_measurements, self.escalations
        )
        if self.worst_counter is not None and self.worst_stats is not None:
            text += ", worst %s rel-MAD %.4f" % (
                self.worst_counter, self.worst_stats.rel_mad
            )
        return text + ")"
