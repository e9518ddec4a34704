"""Set-associative cache with pluggable replacement and optional slicing.

One :class:`Cache` models one level of the hierarchy.  L3 caches are
built with ``n_slices > 1`` and a :class:`~repro.memory.slices.SliceHash`;
each slice has its own set array, matching the C-Box granularity of
Section VI-A.  Caches keep no statistics: the core counts hits, misses
and per-slice C-Box events in its PMU metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .replacement import AdaptivePolicy, ReplacementPolicy, SetState, make_policy
from .slices import SliceHash


@dataclass(frozen=True)
class CacheGeometry:
    """Size parameters of one cache level."""

    size_bytes: int
    associativity: int
    line_size: int = 64
    n_slices: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_size * self.n_slices):
            raise ValueError("cache size must divide evenly into sets")

    @property
    def n_sets(self) -> int:
        """Sets per slice."""
        return self.size_bytes // (
            self.associativity * self.line_size * self.n_slices
        )

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def index_bits(self) -> int:
        return self.n_sets.bit_length() - 1


class Cache:
    """One cache level (optionally sliced)."""

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        slice_hash: Optional[SliceHash] = None,
    ) -> None:
        if geometry.n_sets & (geometry.n_sets - 1):
            raise ValueError("set count must be a power of two")
        if slice_hash is None and geometry.n_slices != 1:
            raise ValueError("sliced cache needs a slice hash")
        if slice_hash is not None and slice_hash.n_slices != geometry.n_slices:
            raise ValueError("slice hash does not match slice count")
        self.name = name
        self.geometry = geometry
        self.policy = policy
        self.slice_hash = slice_hash
        self._sets: List[List[SetState]] = [
            [self._create_set(slice_id, index) for index in range(geometry.n_sets)]
            for slice_id in range(geometry.n_slices)
        ]

    def _create_set(self, slice_id: int, index: int) -> SetState:
        if isinstance(self.policy, AdaptivePolicy):
            return self.policy.create_set_at(slice_id, index)
        return self.policy.create_set()

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def locate(self, physical_address: int) -> Tuple[int, int, int]:
        """Return ``(slice_id, set_index, tag)`` for an address."""
        geo = self.geometry
        block = physical_address >> geo.offset_bits
        set_index = block & (geo.n_sets - 1)
        tag = block >> geo.index_bits
        if self.slice_hash is not None:
            slice_id = self.slice_hash.slice_of(physical_address)
        else:
            slice_id = 0
        return slice_id, set_index, tag

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def access(self, physical_address: int) -> bool:
        """Demand access; updates replacement state.  Returns hit."""
        slice_id, set_index, tag = self.locate(physical_address)
        return self._sets[slice_id][set_index].access(tag)[0]

    def probe(self, physical_address: int) -> bool:
        """Check presence without touching replacement state."""
        slice_id, set_index, tag = self.locate(physical_address)
        return self._sets[slice_id][set_index].lookup(tag) is not None

    def invalidate_line(self, physical_address: int) -> bool:
        """CLFLUSH one line; returns whether it was present."""
        slice_id, set_index, tag = self.locate(physical_address)
        return self._sets[slice_id][set_index].invalidate(tag)

    def invalidate_all(self) -> None:
        """WBINVD: empty every set."""
        for slice_sets in self._sets:
            for cache_set in slice_sets:
                cache_set.invalidate_all()

    # ------------------------------------------------------------------
    # Introspection (tests / tools)
    # ------------------------------------------------------------------
    def set_contents(self, slice_id: int, set_index: int):
        return self._sets[slice_id][set_index].contents()

    def set_state(self, slice_id: int, set_index: int) -> SetState:
        return self._sets[slice_id][set_index]

    def __repr__(self) -> str:
        geo = self.geometry
        return "Cache(%s, %dkB, %d-way, %d sets x %d slices, %s)" % (
            self.name, geo.size_bytes // 1024, geo.associativity,
            geo.n_sets, geo.n_slices, self.policy.name,
        )
