"""Tree-based pseudo-LRU (PLRU).

PLRU "maintains a binary search tree for each cache set.  Upon a cache
miss, the element that the tree bits currently point to is replaced.
After each access to an element, all the bits on the path from the root
of the tree to the leaf that corresponds to the accessed element are set
to point away from this path." (Section VI-B1.)

All L1 data caches of Table I, and the L2 caches of the first five Core
generations, use this policy.

The tree is stored as a flat array: node 0 is the root, node ``n`` has
children ``2n+1`` (left, bit 0) and ``2n+2`` (right, bit 1).  A bit value
of 0 points left; leaves correspond to ways in left-to-right order.
"""

from __future__ import annotations

from typing import List

from .base import ReplacementPolicy, SetState


class _PLRUSet(SetState):
    def __init__(self, associativity: int) -> None:
        if associativity & (associativity - 1):
            raise ValueError("PLRU requires a power-of-two associativity")
        super().__init__(associativity)
        self._levels = associativity.bit_length() - 1
        self._bits: List[int] = [0] * max(associativity - 1, 1)

    def _touch(self, way: int) -> None:
        """Point every bit on the root-to-leaf path away from *way*."""
        node = 0
        for level in range(self._levels - 1, -1, -1):
            direction = (way >> level) & 1
            self._bits[node] = 1 - direction
            node = 2 * node + 1 + direction

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def choose_victim(self) -> int:
        empty = self.leftmost_empty()
        if empty is not None:
            return empty
        node = 0
        way = 0
        for _ in range(self._levels):
            direction = self._bits[node]
            way = (way << 1) | direction
            node = 2 * node + 1 + direction
        return way


class PLRU(ReplacementPolicy):
    """Tree-based pseudo-LRU replacement."""

    name = "PLRU"

    def create_set(self) -> SetState:
        return _PLRUSet(self.associativity)
