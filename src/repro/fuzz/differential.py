"""The differential harness: cross-check every backend on fuzzed kernels.

One table, :data:`COMPARISONS`, says how each divergence category is
compared: a reference arm, a candidate arm (both from :data:`ARMS`) and
a judge.

* **fastpath** — exact simulation (fast path disabled) vs the default
  simulation, whose fast path skips a clean unrolled body's semantics
  after its first copy and replays whole runs at a fixed point.  The
  fast path is an optimization, not a model: results must be
  byte-identical, any mismatch is a bug.
* **batch** — the serial in-process run vs the same spec executed
  through a :class:`~repro.batch.runner.BatchRunner` worker pool.
  The batch determinism contract says sharding cannot change results:
  byte-identical, any mismatch is a bug.
* **analytic** — simulation vs the closed-form analytic estimator.
  The model is *supposed* to be approximate, so this comparison is
  tolerance-banded: :func:`~repro.tools.compare_backends.band_violations`
  with :data:`ANALYTIC_ABS` / :data:`ANALYTIC_REL`.  Events only the
  simulator counts are not compared.
* **router** — the same arms judged by the router's audit band
  (:data:`repro.router.router.TOLERANCE` / ``REL_TOLERANCE``): a
  replayed audit failure is held to the band that flagged it.

A campaign runs the first three on every generated kernel; the
shrinker's oracles and :meth:`DifferentialFuzzer.recheck_record` run
the same table entry on one spec.

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
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..batch.runner import BatchRunner
from ..batch.spec import BatchResult, BenchmarkSpec
from ..core.retry import UnschedulableEventWarning
from ..errors import NanoBenchError, ReproError, ValidationError
from ..router.router import REL_TOLERANCE, TOLERANCE
from ..stats import Counters
from ..tools.compare_backends import band_violations
from ..uarch.specs import get_spec
from ..uarch.timing import TimingTable
from .corpus import DivergenceRecord, sort_records
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

#: Every arm runs the kernel version of nanoBench.
KERNEL_MODE = True

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


def _exact(spec: BenchmarkSpec, jobs: int) -> BatchResult:
    nb = spec.make_nanobench()
    nb.core.fast_path_enabled = False
    return spec.execute(nb)


def _sim(spec: BenchmarkSpec, jobs: int) -> BatchResult:
    return spec.execute()


def _batched(spec: BenchmarkSpec, jobs: int) -> BatchResult:
    return BatchRunner(jobs=jobs).run([spec])[0]


def _analytic(spec: BenchmarkSpec, jobs: int) -> BatchResult:
    # Capability skips are allowed: the judge compares shared events.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnschedulableEventWarning)
        return replace(spec, backend="analytic").execute()


#: The arms a comparison runs, by name.  Each executes one spec on a
#: fresh machine (``jobs`` is the batched arm's worker count): exact
#: simulation, default (fast-path) simulation, the same through a
#: worker pool, and the analytic estimator.
ARMS = {"exact": _exact, "sim": _sim, "batched": _batched,
        "analytic": _analytic}


class Comparison(NamedTuple):
    """How one divergence category is compared."""

    reference: str
    candidate: str
    #: ``(abs, rel)`` band for :func:`band_violations`; ``None`` means
    #: the two arms must be byte-identical.
    band: Optional[Tuple[float, float]]


#: The one category table: every comparison the campaign, the
#: shrinker's oracles and the corpus replay run.
COMPARISONS = {
    "fastpath": Comparison("exact", "sim", None),
    "batch": Comparison("sim", "batched", None),
    "analytic": Comparison("sim", "analytic", (ANALYTIC_ABS, ANALYTIC_REL)),
    "router": Comparison("sim", "analytic", (TOLERANCE, REL_TOLERANCE)),
}


def _values_equal(a: BatchResult, b: BatchResult) -> bool:
    """Byte-identical outcome: same error state and same values."""
    if (a.error is None) != (b.error is None):
        return False
    if a.error is not None:
        return True
    return a.values == b.values


def _disagreement(band: Optional[Tuple[float, float]],
                  reference: BatchResult,
                  candidate: BatchResult) -> Optional[str]:
    """How *candidate* disagrees with *reference* under the judge
    *band* (see :class:`Comparison`), or ``None`` when they agree."""
    if band is None:
        if _values_equal(reference, candidate):
            return None
        return "differ: %r != %r" % (reference.values or reference.error,
                                     candidate.values or candidate.error)
    if reference.error is not None or candidate.error is not None:
        # The model refusing a kernel the simulator runs (or vice
        # versa) is a capability gap, not a numeric divergence.
        return None
    violations = band_violations(reference.values, candidate.values, *band)
    if not violations:
        return None
    return "out of band %s: %r vs %r" % (sorted(violations),
                                         reference.values, candidate.values)


def record_tolerance(category: str, reference: Dict[str, float]) -> float:
    """A record's ``tolerance``: the widest band of *category* over the
    *reference* values, ``max(abs, rel·|ref|)`` (0 for exact ones)."""
    band = COMPARISONS[category].band
    if band is None:
        return 0.0
    abs_tol, rel_tol = band
    return max((max(abs_tol, rel_tol * abs(value))
                for value in reference.values()), default=0.0)


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
        """The must-be-zero categories (those judged by byte equality:
        fastpath + batch)."""
        return [r for r in self.records
                if COMPARISONS[r.category].band is None]

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
                   record.tolerance, record.spec.asm)
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
        jobs: int = 2,
        cycle_budget: int = DEFAULT_CYCLE_BUDGET,
        uop_budget: int = DEFAULT_UOP_BUDGET,
        shrink: bool = True,
        check_analytic: bool = True,
    ) -> None:
        self.generator = KernelGenerator(seed=seed, profile=profile)
        self.uarch = uarch
        self.jobs = max(1, int(jobs))
        self.cycle_budget = cycle_budget
        self.uop_budget = uop_budget
        self.shrink = shrink
        self.check_analytic = check_analytic
        spec = get_spec(uarch)
        self._timing = TimingTable(
            spec.family, move_elimination=spec.move_elimination
        )

    def spec(self, kernel: GeneratedKernel) -> BenchmarkSpec:
        """The reference arm's spec of *kernel* (backend sim, no label:
        campaigns that shrink to the same kernel share its digest)."""
        return BenchmarkSpec(
            asm=kernel.asm,
            asm_init=kernel.asm_init,
            events=DEFAULT_EVENTS,
            uarch=self.uarch,
            seed=kernel.seed,
            kernel_mode=KERNEL_MODE,
            options=dict(kernel.run_options(),
                         cycle_budget=self.cycle_budget,
                         uop_budget=self.uop_budget),
        )

    def compare(self, category: str, spec: BenchmarkSpec
                ) -> Tuple[BatchResult, BatchResult, Optional[str]]:
        """Run *category*'s table entry on *spec*: the reference arm,
        the candidate arm, and the judge's description of any
        disagreement (``None`` when they agree)."""
        reference_arm, candidate_arm, band = COMPARISONS[category]
        reference = ARMS[reference_arm](spec, self.jobs)
        candidate = ARMS[candidate_arm](spec, self.jobs)
        found = _disagreement(band, reference, candidate)
        if found is not None:
            found = "%s vs %s %s" % (reference_arm, candidate_arm, found)
        return reference, candidate, found

    def _diverges(self, category: str, kernel: GeneratedKernel) -> bool:
        """The shrinker's oracle for *category*."""
        try:
            kernel.validate(kernel_mode=KERNEL_MODE,
                            timing_table=self._timing)
        except (ReproError, ValueError):
            # Includes assembler errors: deleting a label definition
            # while its branch survives must read as "no divergence",
            # so the shrinker keeps the pair together.
            return False
        return self.compare(category, self.spec(kernel))[2] is not None

    def _pin(self, category: str, kernel: GeneratedKernel,
             tolerance: float) -> DivergenceRecord:
        original_size = (len(split_statements(kernel.asm))
                         + len(split_statements(kernel.asm_init)))
        if self.shrink:
            kernel = shrink_kernel(
                kernel, lambda k: self._diverges(category, k))
        spec = self.spec(kernel)
        reference, candidate, _ = self.compare(category, spec)
        return DivergenceRecord(
            category=category,
            spec=spec,
            reference=dict(reference.values),
            candidate=dict(candidate.values),
            tolerance=tolerance,
            shrunk_from=original_size,
            index=kernel.index,
            profile=kernel.profile,
            buckets=kernel.buckets,
            provenance=kernel.provenance,
        )

    # -- the campaign ---------------------------------------------------
    def run(self, budget: int) -> FuzzResult:
        """Fuzz *budget* kernels; cross-check each; shrink + pin hits."""
        started = time.perf_counter()
        stats = FuzzStats()
        records: Dict[Tuple[str, str], DivergenceRecord] = {}
        kernels: List[GeneratedKernel] = []

        for _ in range(budget):
            kernel = self.generator.next_kernel()
            stats.kernels += 1
            try:
                kernel.validate(kernel_mode=KERNEL_MODE,
                                timing_table=self._timing)
            except (ValidationError, NanoBenchError) as exc:
                # By construction this should not happen; count it so a
                # generator regression is loud instead of silent.
                stats.invalid += 1
                warnings.warn("fuzz generator emitted invalid kernel: %s"
                              % (exc,), stacklevel=2)
                continue
            kernels.append(kernel)

        categories = ("fastpath", "batch") + (
            ("analytic",) if self.check_analytic else ())
        specs = [self.spec(kernel) for kernel in kernels]
        batch_results = BatchRunner(jobs=self.jobs).run(specs)
        for kernel, spec, batched in zip(kernels, specs, batch_results):
            results = {"exact": _exact(spec, self.jobs),
                       "sim": _sim(spec, self.jobs), "batched": batched}
            if all(_is_runaway(result) for result in results.values()):
                stats.quarantined += 1
                continue
            if self.check_analytic:
                results["analytic"] = _analytic(spec, self.jobs)
            for category in categories:
                reference_arm, candidate_arm, band = COMPARISONS[category]
                reference = results[reference_arm]
                if _disagreement(band, reference,
                                 results[candidate_arm]) is None:
                    continue
                # The band is read over the reference values the
                # divergence was found on, before shrinking.
                record = self._pin(category, kernel, record_tolerance(
                    category, reference.values))
                key = (record.category, record.digest)
                if key not in records:
                    records[key] = record
                    stats.bump("divergences", category)
                    stats.shrunk_statements += record.shrunk_from

        stats.wall_seconds = time.perf_counter() - started
        return FuzzResult(
            records=sort_records(records.values()),
            coverage=self.generator.coverage.report(),
            stats=stats,
        )

    # -- corpus replay (the pinned-regression path) ---------------------
    def recheck_record(self, record: DivergenceRecord) -> Optional[str]:
        """Re-run a pinned record's comparison on its spec; describe any
        divergence.

        Returns ``None`` when the arms now agree (the pinned bug is
        fixed or the tolerance holds) and a human-readable description
        when the spec still — or again — diverges.  The record's
        category picks the :data:`COMPARISONS` entry, so a ``router``
        record is re-judged by the router's band.
        """
        return self.compare(record.category, record.spec)[2]
