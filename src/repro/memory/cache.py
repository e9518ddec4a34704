"""Set-associative cache with pluggable replacement and optional slicing.

One :class:`Cache` models one level of the hierarchy.  L3 caches are
built with ``n_slices > 1`` and a :class:`~repro.memory.slices.SliceHash`;
each slice has its own sets, matching the C-Box granularity of
Section VI-A.  Caches keep no statistics: the core counts hits, misses
and per-slice C-Box events in its PMU metrics.

Sets are built on first touch, into one ``{set_index: SetState}`` dict
per slice.  An absent set is an empty one: probes and CLFLUSH build
nothing, and WBINVD drops every set.  Set creation draws no random
numbers and the set-dueling PSEL lives on the policy, so a rebuilt set
is exactly the post-WBINVD state.

The address mapping is fixed when a cache is built: ``offset_bits``,
``set_mask`` and ``index_bits`` are plain attributes, so a lookup does
only per-access work.  :class:`CacheGeometry` stays the public spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .replacement import ReplacementPolicy, SetState
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
        n_sets = geometry.n_sets
        if n_sets & (n_sets - 1):
            raise ValueError("set count must be a power of two")
        if slice_hash is None and geometry.n_slices != 1:
            raise ValueError("sliced cache needs a slice hash")
        if slice_hash is not None and slice_hash.n_slices != geometry.n_slices:
            raise ValueError("slice hash does not match slice count")
        self.name = name
        self.geometry = geometry
        self.policy = policy
        self.slice_hash = slice_hash
        #: A line's block number is ``address >> offset_bits``; its low
        #: bits (``& set_mask``) are the set index, the rest
        #: (``>> index_bits``) the tag.
        self.offset_bits = geometry.offset_bits
        self.index_bits = geometry.index_bits
        self.set_mask = n_sets - 1
        self._slice_of = slice_hash.slice_of if slice_hash is not None else None
        self._sets: List[Dict[int, SetState]] = [{} for _ in range(geometry.n_slices)]

    def _set(self, slice_id: int, set_index: int) -> SetState:
        """The set at a located position, built on first touch."""
        sets = self._sets[slice_id]
        try:
            return sets[set_index]
        except KeyError:
            sets[set_index] = self.policy.create_set_at(slice_id, set_index)
            return sets[set_index]

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def locate(self, physical_address: int) -> Tuple[int, int, int]:
        """Return ``(slice_id, set_index, tag)`` for an address."""
        block = physical_address >> self.offset_bits
        slice_of = self._slice_of
        return (0 if slice_of is None else slice_of(physical_address),
                block & self.set_mask, block >> self.index_bits)

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def access(self, physical_address: int) -> bool:
        """Demand access; updates replacement state.  Returns hit."""
        slice_id, set_index, tag = self.locate(physical_address)
        return self._set(slice_id, set_index).access(tag)[0]

    def probe(self, physical_address: int) -> bool:
        """Check presence without touching replacement state."""
        slice_id, set_index, tag = self.locate(physical_address)
        cache_set = self._sets[slice_id].get(set_index)
        return cache_set is not None and cache_set.lookup(tag) is not None

    def invalidate_line(self, physical_address: int) -> bool:
        """CLFLUSH one line; returns whether it was present."""
        slice_id, set_index, tag = self.locate(physical_address)
        cache_set = self._sets[slice_id].get(set_index)
        return cache_set is not None and cache_set.invalidate(tag)

    def invalidate_all(self) -> None:
        """WBINVD: drop every built set."""
        for slice_sets in self._sets:
            slice_sets.clear()

    # ------------------------------------------------------------------
    # Introspection (tests / tools)
    # ------------------------------------------------------------------
    @property
    def built_sets(self) -> int:
        """Number of sets built since construction or the last WBINVD."""
        return sum(len(slice_sets) for slice_sets in self._sets)

    def fingerprint(self) -> tuple:
        """Canonical state of every built set plus the policy's shared
        state (see :meth:`SetState.fingerprint`)."""
        return self.policy.fingerprint(), tuple(
            tuple(sorted((index, cache_set.fingerprint())
                         for index, cache_set in slice_sets.items()))
            for slice_sets in self._sets
        )

    def set_contents(self, slice_id: int, set_index: int):
        return self.set_state(slice_id, set_index).contents()

    def set_state(self, slice_id: int, set_index: int) -> SetState:
        """The set at ``(slice_id, set_index)``, built if untouched."""
        geo = self.geometry
        if not (0 <= slice_id < geo.n_slices and 0 <= set_index < geo.n_sets):
            raise IndexError(
                "%s has no set (%d, %d)" % (self.name, slice_id, set_index))
        return self._set(slice_id, set_index)

    def __repr__(self) -> str:
        geo = self.geometry
        return "Cache(%s, %dkB, %d-way, %d sets x %d slices, %s)" % (
            self.name, geo.size_bytes // 1024, geo.associativity,
            geo.n_sets, geo.n_slices, self.policy.name,
        )
