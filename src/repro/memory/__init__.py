"""Simulated memory system: caches, replacement policies, paging."""

from .cache import Cache, CacheGeometry
from .hierarchy import (
    AccessResult,
    DemandCounters,
    MemoryHierarchy,
    NextLinePrefetcher,
)
from .paging import (
    KMALLOC_MAX_BYTES,
    PAGE_SIZE,
    AddressSpace,
    MainMemory,
    PhysicalMemory,
    allocate_physically_contiguous,
)
from .replacement import (
    AdaptivePolicy,
    DedicatedRange,
    ReplacementPolicy,
    SetDuelingConfig,
    make_policy,
)
from .slices import SliceHash, intel_slice_hash

__all__ = [
    "AccessResult",
    "AdaptivePolicy",
    "AddressSpace",
    "Cache",
    "CacheGeometry",
    "DedicatedRange",
    "DemandCounters",
    "KMALLOC_MAX_BYTES",
    "MainMemory",
    "MemoryHierarchy",
    "NextLinePrefetcher",
    "PAGE_SIZE",
    "PhysicalMemory",
    "ReplacementPolicy",
    "SetDuelingConfig",
    "SliceHash",
    "allocate_physically_contiguous",
    "intel_slice_hash",
    "make_policy",
]
