"""MRU replacement (a.k.a. bit-PLRU, PLRUm, NRU).

Section VI-B2: "This policy stores one status bit for each cache line.
Upon an access to a line, the corresponding bit is set to zero; if it was
the last bit that was set to one before, the bits for all other lines are
set to one.  Upon a cache miss, the leftmost element whose bit is set to
one gets replaced."

Used by the L3 caches of Nehalem and Westmere (Table I).  Sandy Bridge
uses a variant (``MRU_SB``, printed as ``MRU*`` in Table I) that keeps
the status bits at one while the cache is not yet full after a WBINVD —
newly filled lines only start participating in the usual bit protocol
once the set is full.
"""

from __future__ import annotations

from typing import List

from .base import ReplacementPolicy, SetState


class _MRUSet(SetState):
    def __init__(self, associativity: int, sandy_bridge_variant: bool) -> None:
        super().__init__(associativity)
        self._bits: List[int] = [1] * associativity
        self._sb = sandy_bridge_variant

    def _mark_accessed(self, way: int) -> None:
        self._bits[way] = 0
        if 1 not in self._bits:
            # The accessed line cleared the last set bit: reset the others.
            self._bits = [1] * self.associativity
            self._bits[way] = 0

    def on_hit(self, way: int) -> None:
        self._mark_accessed(way)

    def on_fill(self, way: int) -> None:
        if self._sb and not self.is_full:
            # Sandy Bridge variant: bits stay at one until the set fills.
            self._bits[way] = 1
            return
        self._mark_accessed(way)

    def choose_victim(self) -> int:
        empty = self.leftmost_empty()
        if empty is not None:
            return empty
        for way, bit in enumerate(self._bits):
            if bit == 1:
                return way
        # Unreachable in the standard protocol (the reset rule guarantees
        # a set bit), but be safe: fall back to the leftmost way.
        return 0

    def fingerprint(self) -> tuple:
        return tuple(self._tags), tuple(self._bits)

    def status_bits(self) -> List[int]:
        """Expose the status bits (for tests)."""
        return list(self._bits)


class MRU(ReplacementPolicy):
    """MRU / bit-PLRU / NRU replacement."""

    name = "MRU"

    def create_set(self) -> SetState:
        return _MRUSet(self.associativity, sandy_bridge_variant=False)


class MRUSandyBridge(MRU):
    """The Sandy Bridge L3 variant of MRU (``MRU*`` in Table I)."""

    name = "MRU_SB"

    def create_set(self) -> SetState:
        return _MRUSet(self.associativity, sandy_bridge_variant=True)
