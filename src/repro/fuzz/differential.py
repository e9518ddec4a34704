"""The differential harness: cross-check every backend on fuzzed kernels.

Each generated kernel runs through four arms and three comparisons:

* **fastpath** — exact simulation (steady-state fast path disabled) vs
  the default fast-path simulation.  The fast path is an optimization,
  not a model: results must be byte-identical, any mismatch is a bug.
* **batch** — the serial in-process run vs the same spec executed
  through a :class:`~repro.batch.runner.BatchRunner` worker pool.
  The batch determinism contract says sharding cannot change results:
  byte-identical, any mismatch is a bug.
* **analytic** — simulation vs the closed-form analytic estimator.
  The model is *supposed* to be approximate, so this comparison is
  tolerance-banded: :func:`~repro.tools.compare_backends.band_violations`
  with :data:`ANALYTIC_ABS` / :data:`ANALYTIC_REL` (the rule the
  router's audit applies with its own, tighter band).  Events only the
  simulator counts are not compared.

Every arm runs under the integrity watchdog (cycle/µop budgets): a
generated kernel that runs away is quarantined — counted and reported,
but not treated as a divergence, because *no* arm produced a result to
disagree about.  If the arms disagree about whether the kernel runs
away at all, that asymmetry **is** a divergence.

Confirmed divergences are shrunk to 1-minimal kernels (same oracle that
found them), deduplicated by spec digest, and returned as
:class:`~repro.fuzz.corpus.DivergenceRecord` rows ready for the corpus.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..batch.runner import BatchRunner
from ..batch.spec import BatchResult
from ..core.retry import UnschedulableEventWarning
from ..errors import NanoBenchError, ReproError, ValidationError
from ..stats import Counters
from ..tools.compare_backends import band_violations
from ..uarch.specs import get_spec
from ..uarch.timing import TimingTable
from .corpus import DivergenceRecord, kernel_digest, record_spec
from .generator import GeneratedKernel, KernelGenerator
from .quota import CoverageReport
from .shrink import shrink_kernel, split_statements

#: Events requested on every arm.  The first two are answerable by both
#: backends; the cache event is outside the analytic backend's
#: capability set, so every memory-touching kernel exercises the
#: sim-vs-analytic comparison of an event only one side reports.
DEFAULT_EVENTS = (
    "UOPS_ISSUED.ANY",
    "BR_INST_RETIRED.ALL_BRANCHES",
    "MEM_LOAD_RETIRED.L1_HIT",
)

#: Watchdog budgets applied identically to every arm.  Generous for a
#: <=20-statement kernel at unroll 4 (a legitimate run needs a few
#: thousand cycles), tight enough that a runaway trips in milliseconds.
DEFAULT_CYCLE_BUDGET = 2_000_000
DEFAULT_UOP_BUDGET = 1_000_000

#: Analytic tolerance band per event: ``max(abs, rel * |reference|)``.
#: Calibrated on seed-0/1/2 campaigns over the bundled profiles; the
#: model's observed error is µop-scale (fusion and overlap effects),
#: not order-of-magnitude.
ANALYTIC_ABS = 16.0
ANALYTIC_REL = 0.75


def _values_equal(a: BatchResult, b: BatchResult) -> bool:
    """Byte-identical outcome: same error state and same values."""
    if (a.error is None) != (b.error is None):
        return False
    if a.error is not None:
        return True
    return a.values == b.values


def _max_shared_deviation(reference: Dict[str, float],
                          candidate: Dict[str, float]) -> float:
    """The largest deviation over the events both sides report (a
    zero-width band puts every differing event outside it)."""
    return max(band_violations(reference, candidate, 0.0, 0.0).values(),
               default=0.0)


def _band(category: str) -> Tuple[float, float]:
    """``(abs, rel)`` tolerance a record of *category* is judged by.

    A ``router`` record is an audit failure, so it is re-judged by the
    router's band, read per call like the audit reads it.
    """
    if category == "router":
        from ..router import router

        return router.TOLERANCE, router.REL_TOLERANCE
    return ANALYTIC_ABS, ANALYTIC_REL


def _is_runaway(result: BatchResult) -> bool:
    return result.error is not None and "budget" in result.error


@dataclass
class FuzzStats(Counters):
    """Campaign totals, rendered at the end of ``nanobench fuzz``."""

    kernels: int = 0
    quarantined: int = 0
    invalid: int = 0
    divergences: Dict[str, int] = field(default_factory=dict)
    shrunk_statements: int = 0
    wall_seconds: float = 0.0

    @property
    def total_divergences(self) -> int:
        return sum(self.divergences.values())


@dataclass
class FuzzResult:
    """Everything one fuzzing campaign produced."""

    records: List[DivergenceRecord]
    coverage: CoverageReport
    stats: FuzzStats

    @property
    def exact_divergences(self) -> List[DivergenceRecord]:
        """The must-be-zero categories (fastpath + batch)."""
        return [r for r in self.records if r.category != "analytic"]

    def render(self) -> str:
        stats = self.stats
        lines = [self.coverage.render(), ""]
        lines.append(
            "%d kernels in %.1f s: %d divergence(s), %d quarantined, "
            "%d invalid"
            % (stats.kernels, stats.wall_seconds, stats.total_divergences,
               stats.quarantined, stats.invalid)
        )
        for category in sorted(stats.divergences):
            lines.append("  %-10s %d" % (category, stats.divergences[category]))
        for record in self.records:
            lines.append(
                "  [%s] %s dev=%.3f tol=%.3f: %s"
                % (record.category, record.digest[:12], record.deviation,
                   record.tolerance, record.asm)
            )
        return "\n".join(lines)


class DifferentialFuzzer:
    """Generate kernels against quotas and cross-check every backend."""

    def __init__(
        self,
        seed: int = 0,
        profile: str = "default",
        *,
        uarch: str = "Skylake",
        kernel_mode: bool = True,
        events: Tuple[str, ...] = DEFAULT_EVENTS,
        jobs: int = 2,
        cycle_budget: int = DEFAULT_CYCLE_BUDGET,
        uop_budget: int = DEFAULT_UOP_BUDGET,
        shrink: bool = True,
        check_analytic: bool = True,
    ) -> None:
        self.generator = KernelGenerator(seed=seed, profile=profile)
        self.uarch = uarch
        self.kernel_mode = kernel_mode
        self.events = tuple(events)
        self.jobs = max(1, int(jobs))
        self.cycle_budget = cycle_budget
        self.uop_budget = uop_budget
        self.shrink = shrink
        self.check_analytic = check_analytic
        spec = get_spec(uarch)
        self._timing = TimingTable(
            spec.family, move_elimination=spec.move_elimination
        )

    # -- arm execution --------------------------------------------------
    def _options(self) -> Dict[str, object]:
        return {
            "cycle_budget": self.cycle_budget,
            "uop_budget": self.uop_budget,
        }

    def _spec(self, kernel: GeneratedKernel, *, backend: str = "sim"):
        return record_spec(
            kernel, uarch=self.uarch, kernel_mode=self.kernel_mode,
            events=self.events, options=self._options(), backend=backend,
        )

    def _digest(self, kernel: GeneratedKernel) -> str:
        return kernel_digest(
            kernel, uarch=self.uarch, kernel_mode=self.kernel_mode,
            events=self.events, options=self._options(),
        )

    def run_serial(self, kernel: GeneratedKernel) -> BatchResult:
        """Reference arm: fresh nanoBench, fast path on (the default)."""
        return self._spec(kernel).execute()

    def run_exact(self, kernel: GeneratedKernel) -> BatchResult:
        """Exact arm: identical spec with the fast path disabled."""
        spec = self._spec(kernel)
        nb = spec.make_nanobench()
        nb.core.fast_path_enabled = False
        return spec.execute(nb)

    def run_analytic(self, kernel: GeneratedKernel) -> BatchResult:
        """Model arm: the analytic backend (capability-skips allowed)."""
        spec = self._spec(kernel, backend="analytic")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnschedulableEventWarning)
            return spec.execute()

    # -- divergence predicates (shared with the shrinker oracles) -------
    def fastpath_diverges(self, kernel: GeneratedKernel) -> bool:
        if not self._evaluates(kernel):
            return False
        exact = self.run_exact(kernel)
        fast = self.run_serial(kernel)
        return not _values_equal(exact, fast)

    def batch_diverges(self, kernel: GeneratedKernel) -> bool:
        if not self._evaluates(kernel):
            return False
        serial = self.run_serial(kernel)
        batched = BatchRunner(jobs=self.jobs).run([self._spec(kernel)])[0]
        return not _values_equal(serial, batched)

    def analytic_diverges(self, kernel: GeneratedKernel) -> bool:
        if not self._evaluates(kernel):
            return False
        serial = self.run_serial(kernel)
        analytic = self.run_analytic(kernel)
        if serial.error is not None or analytic.error is not None:
            # The model refusing a kernel the simulator runs (or vice
            # versa) is a capability gap, not a numeric divergence.
            return False
        return bool(band_violations(serial.values, analytic.values,
                                    ANALYTIC_ABS, ANALYTIC_REL))

    def _evaluates(self, kernel: GeneratedKernel) -> bool:
        """Shrinker guard: candidate still assembles and validates."""
        try:
            kernel.validate(kernel_mode=self.kernel_mode,
                            timing_table=self._timing)
        except (ReproError, ValueError):
            # Includes assembler errors: deleting a label definition
            # while its branch survives must read as "no divergence",
            # so the shrinker keeps the pair together.
            return False
        return True

    # -- record construction -------------------------------------------
    def _record(self, category: str, kernel: GeneratedKernel,
                reference: BatchResult, candidate: BatchResult,
                *, tolerance: float, shrunk_from: int) -> DivergenceRecord:
        return DivergenceRecord(
            category=category,
            digest=self._digest(kernel),
            uarch=self.uarch,
            kernel_mode=self.kernel_mode,
            seed=kernel.seed,
            index=kernel.index,
            profile=kernel.profile,
            buckets=kernel.buckets,
            asm=kernel.asm,
            asm_init=kernel.asm_init,
            unroll_count=kernel.unroll_count,
            loop_count=kernel.loop_count,
            events=self.events,
            reference=dict(reference.values),
            candidate=dict(candidate.values),
            deviation=_max_shared_deviation(reference.values,
                                            candidate.values),
            tolerance=tolerance,
            shrunk_from=shrunk_from,
            provenance=kernel.provenance,
        )

    def _pin(self, category: str, kernel: GeneratedKernel,
             oracle, rerun, *, tolerance: float) -> DivergenceRecord:
        original_size = (len(split_statements(kernel.asm))
                         + len(split_statements(kernel.asm_init)))
        if self.shrink:
            kernel = shrink_kernel(kernel, oracle)
        reference, candidate = rerun(kernel)
        return self._record(
            category, kernel, reference, candidate,
            tolerance=tolerance, shrunk_from=original_size,
        )

    # -- the campaign ---------------------------------------------------
    def run(self, budget: int) -> FuzzResult:
        """Fuzz *budget* kernels; cross-check each; shrink + pin hits."""
        started = time.perf_counter()
        stats = FuzzStats()
        records: Dict[str, DivergenceRecord] = {}
        kernels: List[GeneratedKernel] = []

        for _ in range(budget):
            kernel = self.generator.next_kernel()
            stats.kernels += 1
            try:
                kernel.validate(kernel_mode=self.kernel_mode,
                                timing_table=self._timing)
            except (ValidationError, NanoBenchError) as exc:
                # By construction this should not happen; count it so a
                # generator regression is loud instead of silent.
                stats.invalid += 1
                warnings.warn("fuzz generator emitted invalid kernel: %s"
                              % (exc,), stacklevel=2)
                continue
            kernels.append(kernel)

        serial_results = [self.run_serial(kernel) for kernel in kernels]
        exact_results = [self.run_exact(kernel) for kernel in kernels]
        batch_specs = [self._spec(kernel) for kernel in kernels]
        batch_results = BatchRunner(jobs=self.jobs).run(batch_specs)

        def pin(category, kernel, oracle, rerun, tolerance=0.0):
            record = self._pin(category, kernel, oracle, rerun,
                               tolerance=tolerance)
            key = "%s/%s" % (record.category, record.digest)
            if key not in records:
                records[key] = record
                stats.bump("divergences", category)
                stats.shrunk_statements += record.shrunk_from

        for kernel, serial, exact, batched in zip(
                kernels, serial_results, exact_results, batch_results):
            if _is_runaway(serial) and _is_runaway(exact) \
                    and _is_runaway(batched):
                stats.quarantined += 1
                continue
            if not _values_equal(exact, serial):
                pin("fastpath", kernel, self.fastpath_diverges,
                    lambda k: (self.run_exact(k), self.run_serial(k)))
            if not _values_equal(serial, batched):
                pin("batch", kernel, self.batch_diverges,
                    lambda k: (self.run_serial(k),
                               BatchRunner(jobs=self.jobs)
                               .run([self._spec(k)])[0]))
            if self.check_analytic and serial.error is None:
                analytic = self.run_analytic(kernel)
                if analytic.error is None and band_violations(
                        serial.values, analytic.values,
                        ANALYTIC_ABS, ANALYTIC_REL):
                    worst_tol = max(
                        (max(ANALYTIC_ABS, ANALYTIC_REL * abs(value))
                         for value in serial.values.values()), default=0.0,
                    )
                    pin("analytic", kernel, self.analytic_diverges,
                        lambda k: (self.run_serial(k), self.run_analytic(k)),
                        tolerance=worst_tol)

        stats.wall_seconds = time.perf_counter() - started
        return FuzzResult(
            records=sorted(records.values(),
                           key=lambda r: (r.category, r.digest)),
            coverage=self.generator.coverage.report(),
            stats=stats,
        )

    # -- corpus replay (the pinned-regression path) ---------------------
    def recheck_record(self, record: DivergenceRecord) -> Optional[str]:
        """Re-run a pinned record's comparison; describe any divergence.

        Returns ``None`` when the backends now agree (the pinned bug is
        fixed or the tolerance holds) and a human-readable description
        when the kernel still — or again — diverges.  ``analytic`` and
        ``router`` records are re-judged by their own band
        (:func:`_band`).
        """
        kernel = record.kernel()
        if record.category == "fastpath":
            exact = self.run_exact(kernel)
            fast = self.run_serial(kernel)
            if not _values_equal(exact, fast):
                return ("exact vs fast-path: %r != %r"
                        % (exact.values or exact.error,
                           fast.values or fast.error))
            return None
        if record.category == "batch":
            serial = self.run_serial(kernel)
            batched = BatchRunner(jobs=self.jobs).run(
                [self._spec(kernel)])[0]
            if not _values_equal(serial, batched):
                return ("serial vs batched: %r != %r"
                        % (serial.values or serial.error,
                           batched.values or batched.error))
            return None
        serial = self.run_serial(kernel)
        analytic = self.run_analytic(kernel)
        if serial.error is not None or analytic.error is not None:
            return None
        abs_tol, rel_tol = _band(record.category)
        violations = band_violations(serial.values, analytic.values,
                                     abs_tol, rel_tol)
        if violations:
            return ("sim vs analytic out of band %s: %r vs %r"
                    % (sorted(violations), serial.values, analytic.values))
        return None
