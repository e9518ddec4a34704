"""The multi-level memory hierarchy (L1 / L2 / sliced L3 / DRAM).

Models the structure the cache case study (Section VI) targets:

* inclusive fills — a demand miss installs the line at every level;
* back-invalidation — an L3 eviction removes the line from L1/L2, as on
  real inclusive Intel client parts;
* a next-line hardware prefetcher that can be disabled through the
  model-specific register bit (Section IV-A2 recommends disabling
  prefetchers for cache microbenchmarks — the tools here genuinely need
  to, which the prefetcher ablation benchmark demonstrates);
* the L3 slice of every access that reaches the L3, on
  :class:`AccessResult`, from which the core counts the per-slice C-Box
  events.

An access locates the line once in each level it reaches, and the slice
comes from the L3 lookup itself.  Results are shared and prebuilt: one
per level, plus one hit/miss pair per L3 slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import RunawayBenchmarkError
from ..stats import Counters
from .cache import Cache


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one demand access (shared between accesses, so frozen)."""

    level: int  # 1, 2, 3 = cache level that hit; 4 = DRAM
    latency: int  # cycles
    l3_slice: Optional[int] = None  # slice looked up in the L3 (if any)

    @property
    def l1_hit(self) -> bool:
        return self.level == 1

    @property
    def l2_hit(self) -> bool:
        return self.level == 2

    @property
    def l3_hit(self) -> bool:
        return self.level == 3


@dataclass
class DemandCounters(Counters):
    """Demand hit/miss totals per level, reported by the cache-step
    watchdog.  The ``MEM_LOAD_RETIRED.*`` events are counted separately,
    by :meth:`repro.uarch.core.SimulatedCore._record_memory_metrics`."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l3_hits: int = 0
    l3_misses: int = 0

    def record(self, result: AccessResult) -> None:
        if result.level == 1:
            self.l1_hits += 1
            return
        self.l1_misses += 1
        if result.level == 2:
            self.l2_hits += 1
            return
        self.l2_misses += 1
        if result.level == 3:
            self.l3_hits += 1
        else:
            self.l3_misses += 1


class NextLinePrefetcher:
    """Hardware prefetcher model: next-line streamer + stride detector.

    Two components, mirroring the prefetchers Intel's MSR 0x1A4 bits
    control:

    * a *streamer*: after two sequential demand accesses within a 4 kB
      region, the following line is prefetched;
    * a *stride prefetcher*: a repeated constant address delta (up to
      1 MB) between consecutive demand accesses prefetches one stride
      ahead.  This is the component that corrupts set-targeted cache
      microbenchmarks — a constant-stride walk over same-set blocks
      pulls the *next* block of the set in early — and therefore the
      reason the cache tools must disable prefetching (Section IV-A2)
      and cannot run on AMD parts (Section VI-D).
    """

    MAX_STRIDE = 1 << 20

    def __init__(self) -> None:
        self._last_block_per_page: Dict[int, int] = {}
        self._last_address: Optional[int] = None
        self._last_stride: Optional[int] = None

    def observe(self, block_address: int, line_size: int) -> List[int]:
        """Record a demand access; return block addresses to prefetch."""
        prefetches: List[int] = []
        # Streamer: sequential lines within a page.
        page = block_address >> 12
        previous = self._last_block_per_page.get(page)
        self._last_block_per_page[page] = block_address
        if previous is not None and block_address == previous + line_size:
            prefetches.append(block_address + line_size)
        # Stride detector: the same delta twice in a row.
        if self._last_address is not None:
            stride = block_address - self._last_address
            if (
                stride
                and stride == self._last_stride
                and abs(stride) <= self.MAX_STRIDE
            ):
                target = block_address + stride
                if target >= 0 and target not in prefetches:
                    prefetches.append(target)
            self._last_stride = stride
        self._last_address = block_address
        return prefetches

    def reset(self) -> None:
        self._last_block_per_page.clear()
        self._last_address = None
        self._last_stride = None

    def fingerprint(self) -> tuple:
        return (tuple(sorted(self._last_block_per_page.items())),
                self._last_address, self._last_stride)


class MemoryHierarchy:
    """L1 + L2 + optional sliced L3 + DRAM, with inclusive fills."""

    def __init__(
        self,
        l1: Cache,
        l2: Cache,
        l3: Optional[Cache] = None,
        *,
        l1_latency: int = 4,
        l2_latency: int = 12,
        l3_latency: int = 42,
        memory_latency: int = 200,
        prefetcher_enabled: bool = True,
    ) -> None:
        self.l1 = l1
        self.l2 = l2
        self.l3 = l3
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.l3_latency = l3_latency
        self.memory_latency = memory_latency
        self.prefetcher_enabled = prefetcher_enabled
        self.prefetcher = NextLinePrefetcher()
        self.demand = DemandCounters()
        self._line_size = l1.geometry.line_size
        self._l1_hit = AccessResult(1, l1_latency)
        self._l2_hit = AccessResult(2, l2_latency)
        self._dram = AccessResult(4, memory_latency)
        n_slices = l3.geometry.n_slices if l3 is not None else 0
        self._l3_hits = [AccessResult(3, l3_latency, l3_slice=slice_id)
                         for slice_id in range(n_slices)]
        self._l3_misses = [AccessResult(4, memory_latency, l3_slice=slice_id)
                           for slice_id in range(n_slices)]
        #: Watchdog: total accesses performed (demand + prefetch).  When
        #: ``step_budget`` is set (default off), exceeding it raises
        #: :class:`RunawayBenchmarkError` so a pathological sweep
        #: terminates with a partial-progress report instead of
        #: grinding unboundedly.
        self.steps_taken = 0
        self.step_budget: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def levels(self) -> List[Cache]:
        caches = [self.l1, self.l2]
        if self.l3 is not None:
            caches.append(self.l3)
        return caches

    def access(self, address: int, *, is_write: bool = False,
               is_prefetch: bool = False) -> AccessResult:
        """Demand (or prefetch) access to physical *address*."""
        self.steps_taken += 1
        if self.step_budget is not None and self.steps_taken > self.step_budget:
            raise RunawayBenchmarkError(
                "cache-access step budget exceeded: %d accesses (budget %d)"
                % (self.steps_taken, self.step_budget),
                budget="cache-steps", limit=self.step_budget,
                progress=dict(self.demand.to_dict(), steps=self.steps_taken),
            )
        line = address - address % self._line_size
        cache = self.l1
        slice_id, set_index, tag = cache.locate(line)
        if cache._set(slice_id, set_index).access(tag)[0]:
            result = self._l1_hit
        else:
            cache = self.l2
            slice_id, set_index, tag = cache.locate(line)
            if cache._set(slice_id, set_index).access(tag)[0]:
                result = self._l2_hit
            elif self.l3 is None:
                result = self._dram
            else:
                result = self._access_l3(line)
        if not is_prefetch:
            self.demand.record(result)
            if self.prefetcher_enabled:
                for prefetch_line in self.prefetcher.observe(line, self._line_size):
                    self.access(prefetch_line, is_prefetch=True)
        return result

    def _access_l3(self, line: int) -> AccessResult:
        """The L3 part of an access that missed L1 and L2."""
        l3 = self.l3
        slice_id, set_index, tag = l3.locate(line)
        hit, evicted_tag = l3._set(slice_id, set_index).access(tag)
        if hit:
            return self._l3_hits[slice_id]
        if evicted_tag is not None:
            # Inclusive L3: back-invalidate the victim everywhere.
            evicted = ((evicted_tag << l3.index_bits) | set_index) << l3.offset_bits
            self.l1.invalidate_line(evicted)
            self.l2.invalidate_line(evicted)
        return self._l3_misses[slice_id]

    # ------------------------------------------------------------------
    def wbinvd(self) -> None:
        """Flush and invalidate all caches (the WBINVD instruction)."""
        for cache in self.levels:
            cache.invalidate_all()
        self.prefetcher.reset()

    def clflush(self, address: int) -> None:
        """Flush one line from the whole hierarchy (CLFLUSH)."""
        line = address - address % self._line_size
        for cache in self.levels:
            cache.invalidate_line(line)

    def prefetch_into(self, address: int) -> None:
        """Software prefetch (PREFETCHTx): fill without demand counting."""
        self.access(address, is_prefetch=True)

    def fingerprint(self) -> tuple:
        """Canonical state of the caches and the prefetcher: what an
        access reads, without the cumulative counters."""
        return (self.prefetcher_enabled, self.prefetcher.fingerprint(),
                tuple(cache.fingerprint() for cache in self.levels))

    def probe_level(self, address: int) -> int:
        """Level the line would hit at, without disturbing state (0=none)."""
        line = address - address % self._line_size
        for level, cache in enumerate(self.levels, start=1):
            if cache.probe(line):
                return level
        return 0
