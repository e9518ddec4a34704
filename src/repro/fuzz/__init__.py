"""Coverage-quota differential fuzzing of the measurement backends.

``repro.fuzz`` generates adversarial-but-valid benchmark kernels
against per-axis coverage quotas, cross-checks every backend pair on
each kernel (exact vs fast-path simulation, serial vs batched, sim vs
analytic), shrinks any disagreement to a 1-minimal kernel, and pins it
in a JSONL divergence corpus that the regression suite replays.

Entry points: :class:`DifferentialFuzzer` (the campaign driver, also
behind ``nanobench fuzz``), :class:`KernelGenerator` (the deterministic
kernel stream), and :func:`load_corpus` / :func:`save_corpus` (the
pinned-divergence corpus).
"""

from .corpus import (
    CATEGORIES,
    CORPUS_VERSION,
    DivergenceRecord,
    dump_record,
    kernel_digest,
    load_corpus,
    record_spec,
    save_corpus,
    sort_records,
)
from .differential import (
    ANALYTIC_ABS,
    ANALYTIC_REL,
    DEFAULT_CYCLE_BUDGET,
    DEFAULT_EVENTS,
    DEFAULT_UOP_BUDGET,
    DifferentialFuzzer,
    FuzzResult,
    FuzzStats,
)
from .generator import (
    GPR_POOL,
    XMM_POOL,
    GeneratedKernel,
    KernelGenerator,
)
from .quota import (
    AXES,
    CONTROL_PROFILE,
    DEFAULT_PROFILE,
    MEMORY_PROFILE,
    PROFILES,
    BucketCoverage,
    CoverageReport,
    CoverageTracker,
    QuotaProfile,
    QuotaScheduler,
    get_profile,
)
from .shrink import shrink_kernel, split_statements

__all__ = [
    "ANALYTIC_ABS",
    "ANALYTIC_REL",
    "AXES",
    "CATEGORIES",
    "CONTROL_PROFILE",
    "CORPUS_VERSION",
    "DEFAULT_CYCLE_BUDGET",
    "DEFAULT_EVENTS",
    "DEFAULT_PROFILE",
    "DEFAULT_UOP_BUDGET",
    "GPR_POOL",
    "MEMORY_PROFILE",
    "PROFILES",
    "XMM_POOL",
    "BucketCoverage",
    "CoverageReport",
    "CoverageTracker",
    "DifferentialFuzzer",
    "DivergenceRecord",
    "FuzzResult",
    "FuzzStats",
    "GeneratedKernel",
    "KernelGenerator",
    "QuotaProfile",
    "QuotaScheduler",
    "dump_record",
    "get_profile",
    "kernel_digest",
    "load_corpus",
    "record_spec",
    "save_corpus",
    "shrink_kernel",
    "sort_records",
    "split_statements",
]
