"""TLB characterization (the paper's first future-work direction).

Section VIII: "The second direction is to apply nanoBench to additional
use cases. ... This includes, for example, details on how the TLBs or
the branch predictors work."

The classic technique: pointer-chase one load per page over ``n``
distinct pages, in a cyclic chain, and count dTLB miss events per
access.  As long as the working set fits the TLB level the miss rate is
~0; beyond the capacity an LRU-managed TLB thrashes and every access
misses — a sharp step at the capacity.  Using pages that are
``n_sets * page_size`` apart confines the chase to a single TLB set,
which turns the same experiment into an associativity measurement.

The chase chain lives in nanoBench's R14 buffer; each link is placed at
a different cache-line offset so the loads spread over L1 sets and stay
cache-resident (TLB behaviour is then the only variable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..backends import require_sim
from ..core.codegen import R14_AREA_BASE
from ..core.nanobench import NanoBench
from ..errors import AnalysisError
from ..integrity.watchdog import DEFAULT_STEP_BUDGET, tlb_step_budget

_PAGE = 4096
#: A TLB level holds a working set while its per-access miss (or walk)
#: rate stays below this.
MISS_RATE_THRESHOLD = 0.5
#: Laps of the pointer chain per measurement.
CHASE_REPETITIONS = 4


@dataclass
class TlbMeasurement:
    """dTLB miss/walk rates per access as a function of page count."""

    page_counts: Tuple[int, ...]
    miss_rates: Dict[int, float]
    walk_rates: Dict[int, float]

    def capacity_estimate(self) -> Optional[int]:
        """Largest page count whose miss rate stays below
        :data:`MISS_RATE_THRESHOLD`."""
        last_good = None
        for n in self.page_counts:
            if self.miss_rates[n] < MISS_RATE_THRESHOLD:
                last_good = n
            else:
                break
        return last_good


def _build_chain(nb: NanoBench, pages: Sequence[int]) -> None:
    """Write a cyclic pointer chain visiting one line in each page.

    Page ``i`` of the R14 buffer holds, at line offset ``(i * 64) %
    4096`` (spreading the L1 sets), a pointer to the next link.
    """
    core = nb.core

    def link_address(position: int) -> int:
        page = pages[position]
        return R14_AREA_BASE + page * _PAGE + (position * 64) % _PAGE

    for position in range(len(pages)):
        next_address = link_address((position + 1) % len(pages))
        core.write_memory(link_address(position), 8, next_address)


def measure_miss_rates(
    nb: NanoBench,
    page_counts: Sequence[int],
    *,
    page_stride: int = 1,
    step_budget: Optional[int] = DEFAULT_STEP_BUDGET,
) -> TlbMeasurement:
    """Measure dTLB misses/access for cyclic chases over ``n`` pages.

    ``page_stride`` selects every k-th page; a stride equal to the dTLB
    set count maps every page to TLB set 0 (associativity mode).
    ``step_budget`` bounds the TLB lookups of the whole sweep (runaway
    watchdog); ``None`` disables the check.
    """
    require_sim(nb, "the TLB sweep counts dTLB misses of a pointer chase "
                    "it writes into the machine's memory")
    max_pages = max(page_counts) * page_stride
    if max_pages * _PAGE > nb.r14_size:
        raise AnalysisError(
            "R14 buffer too small: need %d pages, have %d"
            % (max_pages, nb.r14_size // _PAGE)
        )
    miss_rates: Dict[int, float] = {}
    walk_rates: Dict[int, float] = {}
    # The sweep reads event counts only, though the core times the chase
    # as it times every run.  A few kernel-space measurements suffice:
    # they are deterministic.
    with tlb_step_budget(nb.core.tlb, step_budget):
        for count in page_counts:
            pages = [i * page_stride for i in range(count)]
            _build_chain(nb, pages)
            nb.core.tlb.flush()
            result = nb.run(
                asm="mov R14, [R14]",
                # Start the chase at the first link.
                asm_init="mov R14, %d" % (R14_AREA_BASE + pages[0] * _PAGE),
                events=["DTLB_LOAD_MISSES.ANY",
                        "DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK"],
                unroll_count=count,
                loop_count=CHASE_REPETITIONS,
                warm_up_count=1,
                n_measurements=3,
                aggregate="med",
            )
            miss_rates[count] = result["DTLB_LOAD_MISSES.ANY"]
            walk_rates[count] = result[
                "DTLB_LOAD_MISSES.MISS_CAUSES_A_WALK"]
    return TlbMeasurement(
        page_counts=tuple(page_counts),
        miss_rates=miss_rates,
        walk_rates=walk_rates,
    )


@dataclass
class TlbProfile:
    """Inferred TLB parameters."""

    dtlb_capacity: Optional[int]
    dtlb_associativity: Optional[int]
    stlb_capacity: Optional[int]


def characterize_tlb(nb: NanoBench, *, max_pages: int = 4096) -> TlbProfile:
    """Infer dTLB capacity/associativity and STLB capacity."""
    # Capacity sweep: powers of two (plus midpoints) up to max_pages.
    counts: List[int] = []
    n = 4
    while n <= max_pages:
        counts.extend([n, n + n // 2] if n + n // 2 <= max_pages else [n])
        n *= 2
    capacity_sweep = measure_miss_rates(nb, sorted(set(counts)))
    dtlb_capacity = capacity_sweep.capacity_estimate()

    # The STLB boundary: where even the second level starts walking.
    stlb_capacity = None
    last_good = None
    for count in capacity_sweep.page_counts:
        if capacity_sweep.walk_rates[count] < MISS_RATE_THRESHOLD:
            last_good = count
        else:
            break
    stlb_capacity = last_good

    # Associativity: strided chases confine the pages to ever fewer TLB
    # sets; the measured capacity halves with each stride doubling until
    # the stride reaches the set count, where it plateaus at the
    # associativity.
    dtlb_associativity = None
    if dtlb_capacity is not None:
        previous: Optional[int] = None
        for stride in (8, 16, 32, 64, 128):
            sweep = measure_miss_rates(
                nb, [2, 3, 4, 6, 8, 12, 16, 24, 32], page_stride=stride
            )
            estimate = sweep.capacity_estimate()
            if estimate is not None and estimate == previous:
                dtlb_associativity = estimate
                break
            previous = estimate
    return TlbProfile(
        dtlb_capacity=dtlb_capacity,
        dtlb_associativity=dtlb_associativity,
        stlb_capacity=stlb_capacity,
    )
