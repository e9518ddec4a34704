"""nanoBench run parameters (the command-line options of Section III)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import NanoBenchError, ValidationError

AGGREGATES = ("min", "med", "avg")
SERIALIZERS = ("lfence", "cpuid")


@dataclass
class NanoBenchOptions:
    """Parameters controlling code generation and measurement.

    Mirrors the options of ``nanoBench.sh`` / ``kernel-nanoBench.sh``:

    * ``unroll_count`` / ``loop_count`` — Section III-F: how often the
      benchmark code is replicated, and how often the copies loop.
    * ``n_measurements`` — how often the generated code is run.
    * ``warm_up_count`` — runs excluded from the result (Section III-H).
    * ``initial_warm_up_count`` — extra warm-up before the very first
      measurement series (e.g. AVX warm-up).
    * ``aggregate`` — ``min`` / ``med`` / ``avg`` (arithmetic mean
      excluding the top and bottom 20 %), Section III-C.
    * ``basic_mode`` — use a localUnrollCount of 0 instead of
      2 x unroll_count for the overhead-cancelling second run.
    * ``no_mem`` — keep counter values in registers (Section III-I).
    * ``serializer`` — LFENCE (default, Section IV-A1) or CPUID.
    * ``fixed_counters`` — measure the three fixed-function counters.
    * ``aperf_mperf`` — also read APERF/MPERF (kernel mode only).
    * ``verbose`` — the ``-verbose`` flag; it changes no measurement
      (the CLI prints its per-run summary from it).
    * ``cycle_budget`` / ``uop_budget`` — runaway-benchmark watchdogs:
      per-run simulated-cycle / issued-µop ceilings; exceeding one
      raises :class:`~repro.errors.RunawayBenchmarkError` with a
      partial-progress report.  ``None`` (the default) disables them.
    * ``max_n_measurements`` — adaptive stability control: while a
      counter's raw per-run series is noisy, ``n_measurements`` is
      doubled up to this cap, and the run's report carries a quality
      verdict (see :mod:`repro.integrity.stability`).  ``None`` (the
      default) disables it.
    """

    unroll_count: int = 100
    loop_count: int = 0
    n_measurements: int = 10
    warm_up_count: int = 0
    initial_warm_up_count: int = 0
    aggregate: str = "avg"
    basic_mode: bool = False
    no_mem: bool = False
    serializer: str = "lfence"
    fixed_counters: bool = True
    aperf_mperf: bool = False
    verbose: bool = False
    cycle_budget: Optional[int] = None
    uop_budget: Optional[int] = None
    max_n_measurements: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, strict: bool = False) -> None:
        """Per-field validity checks; with ``strict``, cross-field
        conflicts (see :meth:`conflicts`) are also errors."""
        if self.unroll_count < 1:
            raise NanoBenchError("unroll_count must be >= 1")
        if self.loop_count < 0:
            raise NanoBenchError("loop_count must be >= 0")
        if self.n_measurements < 1:
            raise NanoBenchError("n_measurements must be >= 1")
        if self.warm_up_count < 0 or self.initial_warm_up_count < 0:
            raise NanoBenchError("warm-up counts must be >= 0")
        if self.aggregate not in AGGREGATES:
            raise NanoBenchError(
                "unknown aggregate %r: must be one of %s"
                % (self.aggregate, AGGREGATES)
            )
        if self.serializer not in SERIALIZERS:
            raise NanoBenchError(
                "serializer must be one of %s" % (SERIALIZERS,)
            )
        if self.cycle_budget is not None and self.cycle_budget < 1:
            raise NanoBenchError("cycle_budget must be >= 1 (or None)")
        if self.uop_budget is not None and self.uop_budget < 1:
            raise NanoBenchError("uop_budget must be >= 1 (or None)")
        if self.max_n_measurements is not None and self.max_n_measurements < 1:
            raise NanoBenchError("max_n_measurements must be >= 1 (or None)")
        if strict:
            conflicts = self.conflicts()
            if conflicts:
                raise ValidationError(
                    "conflicting options: " + "; ".join(conflicts)
                )

    def conflicts(self) -> List[str]:
        """Cross-field conflicts: combinations that are individually
        valid but almost certainly not what the user meant.

        These are advisory by default (the CLI prints them as warnings;
        ``validate(strict=True)`` turns them into a
        :class:`~repro.errors.ValidationError`) so existing library
        callers and results stay byte-identical.
        """
        found: List[str] = []
        if self.n_measurements > 1 and self.warm_up_count >= self.n_measurements:
            found.append(
                "warm_up_count (%d) >= n_measurements (%d): more runs are "
                "discarded as warm-up than are measured"
                % (self.warm_up_count, self.n_measurements)
            )
        if self.cycle_budget is not None and self.cycle_budget < self.unroll_count:
            found.append(
                "cycle_budget (%d) < unroll_count (%d): no run can finish "
                "within the budget" % (self.cycle_budget, self.unroll_count)
            )
        if self.uop_budget is not None and self.uop_budget < self.unroll_count:
            found.append(
                "uop_budget (%d) < unroll_count (%d): no run can finish "
                "within the budget" % (self.uop_budget, self.unroll_count)
            )
        return found

    @property
    def repetitions(self) -> int:
        """Dynamic executions of the benchmark code per run (Alg. 1 l.12)."""
        return max(1, self.loop_count) * self.unroll_count
