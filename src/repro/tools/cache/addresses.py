"""Address selection for cache microbenchmarks.

The cache tools need blocks that map to chosen (set, slice) locations of
a chosen cache level, plus *eviction buffers*: groups of addresses that
flush a line out of the higher-level caches without touching the
location under study (Section VI-C: "Between every two accesses to the
same set in a lower-level cache, cacheSeq automatically adds a
sufficient number of accesses to the higher-level caches ... to make
sure that the corresponding lines are evicted from the higher-level
cache and the access actually reaches the lower-level cache").

All addresses are taken from nanoBench's physically-contiguous R14
buffer (Sections III-G, IV-D), so physical placement is fully known.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...core.codegen import R14_AREA_BASE
from ...core.nanobench import NanoBench
from ...errors import AnalysisError
from ...memory.cache import Cache
from ...perfctr.counters import MSR_MISC_FEATURE_CONTROL
from ...uarch.core import SimulatedCore

#: Blocks in an eviction buffer, as a multiple of the largest
#: associativity among the levels above the studied one.
EVICTION_MARGIN = 2


def disable_prefetchers(core: SimulatedCore) -> bool:
    """Disable the hardware prefetchers via MSR 0x1A4 (Section IV-A2).

    Returns whether the prefetchers are actually off afterwards — on the
    AMD parts there is no documented disable mechanism (Section VI-D),
    so the write has no effect and the cache tools cannot be used.
    """
    core.wrmsr(MSR_MISC_FEATURE_CONTROL, 0xF)
    return not core.hierarchy.prefetcher_enabled


class AddressBuilder:
    """Selects virtual block addresses inside the contiguous R14 buffer."""

    def __init__(self, nb: NanoBench) -> None:
        if nb.r14_physical_base is None:
            raise AnalysisError(
                "cache analysis needs the kernel-space nanoBench variant "
                "with a physically-contiguous R14 buffer"
            )
        self.nb = nb
        self.core = nb.core
        self.phys_base = nb.r14_physical_base
        self.size = nb.r14_size
        self.line = self.core.hierarchy.l1.geometry.line_size

    # ------------------------------------------------------------------
    def cache(self, level: int) -> Cache:
        caches = self.core.hierarchy.levels
        if not 1 <= level <= len(caches):
            raise AnalysisError("no cache level %d" % (level,))
        return caches[level - 1]

    def locate(self, level: int, virtual_address: int) -> Tuple[int, int]:
        """(slice, set) of a virtual buffer address at *level*."""
        physical = self.phys_base + (virtual_address - R14_AREA_BASE)
        slice_id, set_index, _tag = self.cache(level).locate(physical)
        return slice_id, set_index

    # ------------------------------------------------------------------
    def blocks_for_set(
        self,
        level: int,
        set_index: int,
        count: int,
        slice_id: Optional[int] = None,
    ) -> List[int]:
        """Virtual addresses of *count* distinct blocks mapping to the
        given set (and slice, for sliced caches) of cache *level*."""
        cache = self.cache(level)
        n_sets = cache.geometry.n_sets
        if not 0 <= set_index < n_sets:
            raise AnalysisError(
                "set index %d out of range (%d sets)" % (set_index, n_sets)
            )
        stride = n_sets * self.line
        # Anchor on the buffer's physical base: its set index is not 0.
        base_set = cache.locate(self.phys_base)[1]
        first_offset = ((set_index - base_set) % n_sets) * self.line
        blocks: List[int] = []
        offset = first_offset
        while offset + self.line <= self.size and len(blocks) < count:
            physical = self.phys_base + offset
            got_slice, got_set, _ = cache.locate(physical)
            if got_set == set_index and (
                slice_id is None or got_slice == slice_id
            ):
                blocks.append(R14_AREA_BASE + offset)
            offset += stride
        if len(blocks) < count:
            raise AnalysisError(
                "buffer too small: found %d/%d blocks for level %d set %d "
                "slice %s (buffer %d MB)" % (
                    len(blocks), count, level, set_index, slice_id,
                    self.size >> 20,
                )
            )
        return blocks

    # ------------------------------------------------------------------
    def eviction_buffer(
        self,
        level: int,
        set_index: int,
        slice_id: Optional[int] = None,
    ) -> List[int]:
        """Addresses that evict the studied lines from the levels above.

        The returned blocks map to the same L1 (and, when studying the
        L3, the same L2) set as blocks of the studied (set, slice), but
        to a *different* location at the studied level, so accessing
        them flushes the higher-level copies without perturbing the
        replacement state under analysis.
        """
        if level <= 1:
            return []
        hierarchy = self.core.hierarchy
        upper_levels = hierarchy.levels[:level - 1]
        studied = self.cache(level)
        count = EVICTION_MARGIN * max(
            cache.geometry.associativity for cache in upper_levels
        )
        # Stride keeping the *highest* upper level's set index fixed
        # (its index bits contain the lower levels' bits).
        top_upper = upper_levels[-1]
        stride = top_upper.geometry.n_sets * self.line
        # Base offset: any buffer block of the studied (set, slice).
        target_block = self.blocks_for_set(level, set_index, 1, slice_id)[0]
        base_offset = target_block - R14_AREA_BASE
        upper_sets = [
            cache.locate(self.phys_base + base_offset)[1]
            for cache in upper_levels
        ]
        blocks: List[int] = []
        offset = base_offset % stride
        while offset + self.line <= self.size and len(blocks) < count:
            physical = self.phys_base + offset
            got_slice, got_set, _ = studied.locate(physical)
            upper_ok = all(
                cache.locate(physical)[1] == upper_set
                for cache, upper_set in zip(upper_levels, upper_sets)
            )
            if upper_ok and (
                got_set != set_index
                or (slice_id is not None and got_slice != slice_id)
            ):
                blocks.append(R14_AREA_BASE + offset)
            offset += stride
        if len(blocks) < count:
            raise AnalysisError(
                "cannot build an eviction buffer for level %d set %d "
                "slice %s: found %d/%d blocks"
                % (level, set_index, slice_id, len(blocks), count)
            )
        return blocks

    # ------------------------------------------------------------------
    def available_sets(self, level: int) -> int:
        return self.cache(level).geometry.n_sets

    def available_slices(self, level: int) -> int:
        return self.cache(level).geometry.n_slices
