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

from functools import lru_cache
from typing import List, Optional, Tuple

from .base import ReplacementPolicy, SetState


@lru_cache(maxsize=None)
def _touch_paths(associativity: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per way, the ``(node, bit)`` writes that point every bit on its
    root-to-leaf path away from it."""
    levels = associativity.bit_length() - 1
    paths = []
    for way in range(associativity):
        node = 0
        path = []
        for level in range(levels - 1, -1, -1):
            direction = (way >> level) & 1
            path.append((node, 1 - direction))
            node = 2 * node + 1 + direction
        paths.append(tuple(path))
    return tuple(paths)


class _PLRUSet(SetState):
    def __init__(self, associativity: int) -> None:
        if associativity & (associativity - 1):
            raise ValueError("PLRU requires a power-of-two associativity")
        super().__init__(associativity)
        self._bits: List[int] = [0] * max(associativity - 1, 1)
        self._first_leaf = associativity - 1
        self._paths = _touch_paths(associativity)

    def _touch(self, way: int) -> None:
        """Point every bit on the root-to-leaf path away from *way*."""
        bits = self._bits
        for node, bit in self._paths[way]:
            bits[node] = bit

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def choose_victim(self) -> int:
        empty = self.leftmost_empty()
        if empty is not None:
            return empty
        # Follow the tree bits down to a leaf.  In the flat numbering
        # the leaves follow the ``associativity - 1`` inner nodes, in
        # way order.
        bits = self._bits
        first_leaf = self._first_leaf
        node = 0
        while node < first_leaf:
            node = 2 * node + 1 + bits[node]
        return node - first_leaf

    def fingerprint(self) -> tuple:
        return tuple(self._tags), tuple(self._bits)

    def access(self, tag: int) -> Tuple[bool, Optional[int]]:
        """Lookup, victim choice and tree update in one call."""
        tags = self._tags
        bits = self._bits
        if tag in tags:
            for node, bit in self._paths[tags.index(tag)]:
                bits[node] = bit
            return True, None
        if None in tags:
            way = tags.index(None)
        else:
            # choose_victim's tree walk, inline.
            first_leaf = self._first_leaf
            node = 0
            while node < first_leaf:
                node = 2 * node + 1 + bits[node]
            way = node - first_leaf
        evicted = tags[way]
        tags[way] = tag
        for node, bit in self._paths[way]:
            bits[node] = bit
        return False, evicted


class PLRU(ReplacementPolicy):
    """Tree-based pseudo-LRU replacement."""

    name = "PLRU"

    def create_set(self) -> SetState:
        return _PLRUSet(self.associativity)
