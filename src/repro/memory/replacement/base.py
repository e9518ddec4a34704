"""Replacement-policy framework.

A :class:`ReplacementPolicy` is a *factory* for per-cache-set state
objects (:class:`SetState`).  The cache consults the set state on every
access: ``lookup`` finds a way, ``on_hit`` updates metadata, and on a
miss ``choose_victim`` picks the way the new tag is installed into,
after which ``on_fill`` updates metadata.

Way *positions* matter: the paper's QLRU variants are defined in terms of
"leftmost"/"rightmost" locations (Section VI-B2), so :class:`SetState`
exposes ways as an ordered array where index 0 is the leftmost location.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Tuple


class SetState(ABC):
    """Replacement metadata and contents of one cache set."""

    def __init__(self, associativity: int) -> None:
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        self.associativity = associativity
        self._tags: List[Optional[int]] = [None] * associativity

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------
    def lookup(self, tag: int) -> Optional[int]:
        """Return the way holding *tag*, or None."""
        try:
            return self._tags.index(tag)
        except ValueError:
            return None

    def contents(self) -> Tuple[Optional[int], ...]:
        """Tags per way, leftmost first (None = empty)."""
        return tuple(self._tags)

    @property
    def is_full(self) -> bool:
        return None not in self._tags

    def leftmost_empty(self) -> Optional[int]:
        tags = self._tags
        return tags.index(None) if None in tags else None

    def rightmost_empty(self) -> Optional[int]:
        for way in range(self.associativity - 1, -1, -1):
            if self._tags[way] is None:
                return way
        return None

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def on_hit(self, way: int) -> None:
        """Update metadata after a hit in *way*."""

    @abstractmethod
    def choose_victim(self) -> int:
        """Select the way a new block will be installed into."""

    def on_fill(self, way: int) -> None:
        """Update metadata after installing a new block into *way*.

        Default: treat like a hit.  Policies with distinct insertion
        behaviour (e.g. QLRU insertion ages) override this.
        """
        self.on_hit(way)

    # ------------------------------------------------------------------
    # Driving API used by the cache
    # ------------------------------------------------------------------
    def access(self, tag: int) -> Tuple[bool, Optional[int]]:
        """Access *tag*; return ``(hit, evicted_tag)``.

        This is the generic hook protocol.  A policy may override it
        with a merged lookup-and-update that gives the same results and
        leaves the same state (the test suite checks each one against
        this method on a twin set).
        """
        way = self.lookup(tag)
        if way is not None:
            self.on_hit(way)
            return True, None
        way = self.choose_victim()
        evicted = self._tags[way]
        self._tags[way] = tag
        self.on_fill(way)
        return False, evicted

    def invalidate(self, tag: int) -> bool:
        """Remove *tag* (CLFLUSH); return whether it was present."""
        way = self.lookup(tag)
        if way is None:
            return False
        self._tags[way] = None
        self.on_invalidate(way)
        return True

    def on_invalidate(self, way: int) -> None:
        """Metadata update after invalidating *way* (default: none)."""

    def fingerprint(self) -> tuple:
        """Canonical state: two sets with equal fingerprints behave the
        same on every future access.  The default covers policies whose
        only per-set state is the tag array; others add their metadata.
        """
        return tuple(self._tags)


class ReplacementPolicy(ABC):
    """Factory for per-set replacement state.

    ``name`` is the identifier used in CPU specs, in inference-tool
    output and in Table I (e.g. ``"PLRU"`` or ``"QLRU_H11_M1_R0_U0"``).
    """

    name: str = "?"

    def __init__(self, associativity: int,
                 rng: Optional[random.Random] = None) -> None:
        self.associativity = associativity
        self.rng = rng if rng is not None else random.Random(0)

    @abstractmethod
    def create_set(self) -> SetState:
        """Create state for one cache set."""

    def create_set_at(self, slice_id: int, set_index: int) -> SetState:
        """Create the set at a cache position (default: position-blind)."""
        return self.create_set()

    @property
    def is_deterministic(self) -> bool:
        """Whether the policy's behaviour is input-deterministic."""
        return True

    def fingerprint(self) -> tuple:
        """State shared by the policy's sets: the random stream of a
        non-deterministic policy (empty for deterministic ones)."""
        return () if self.is_deterministic else (self.rng.getstate(),)

    def __repr__(self) -> str:
        return "%s(assoc=%d)" % (self.name, self.associativity)


def simulate_hits(policy: ReplacementPolicy, sequence, *,
                  measured: Optional[List[bool]] = None) -> int:
    """Simulate *sequence* of block ids on a fresh set; return hit count.

    This is the reference simulator the policy-identification tool
    (Section VI-C1) compares hardware measurements against.  If
    *measured* is given, the per-access hit/miss booleans are appended.
    """
    state = policy.create_set()
    hits = 0
    for block in sequence:
        hit, _ = state.access(block)
        if measured is not None:
            measured.append(hit)
        if hit:
            hits += 1
    return hits
