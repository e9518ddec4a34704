"""Translation lookaside buffers.

Section VIII names TLB analysis as the paper's first future-work
direction ("details on how the TLBs or the branch predictors work ...
are typically undocumented"); this module provides the substrate: a
two-level data-TLB model (a small L1 dTLB backed by a larger unified
STLB) whose hit/miss events the PMU exposes, so TLB-characterization
microbenchmarks have something real to measure.

Timing: a dTLB hit costs nothing extra; a dTLB miss that hits the STLB
adds a fixed penalty; an STLB miss triggers a page walk with a larger
penalty.  Both penalties are per-microarchitecture parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import RunawayBenchmarkError
from .replacement import SetState, make_policy


@dataclass(frozen=True)
class TlbGeometry:
    """Entry count and associativity of one TLB level."""

    entries: int
    associativity: int
    page_size: int = 4096

    def __post_init__(self) -> None:
        if self.entries % self.associativity:
            raise ValueError("entries must divide evenly into sets")
        n_sets = self.entries // self.associativity
        if n_sets & (n_sets - 1):
            raise ValueError("TLB set count must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.entries // self.associativity


class Tlb:
    """One set-associative TLB level; sets are built on first touch."""

    def __init__(self, geometry: TlbGeometry, policy: str = "LRU",
                 rng: Optional[random.Random] = None) -> None:
        self.geometry = geometry
        # Address mapping, fixed here: a page number's low bits
        # (``& _set_mask``) are the set index, the rest the tag.
        self._page_size = geometry.page_size
        self._set_mask = geometry.n_sets - 1
        self._index_bits = geometry.n_sets.bit_length() - 1
        factory = make_policy(policy, geometry.associativity, rng=rng)
        self._create_set = factory.create_set
        self._sets: Dict[int, SetState] = {}
        self.hits = 0
        self.misses = 0

    def _locate(self, virtual_address: int) -> Tuple[int, int]:
        page = virtual_address // self._page_size
        return page & self._set_mask, page >> self._index_bits

    def access(self, virtual_address: int) -> bool:
        """Look up (and on miss, fill) the translation; returns hit."""
        set_index, tag = self._locate(virtual_address)
        try:
            entry_set = self._sets[set_index]
        except KeyError:
            entry_set = self._sets[set_index] = self._create_set()
        hit, _ = entry_set.access(tag)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def probe(self, virtual_address: int) -> bool:
        set_index, tag = self._locate(virtual_address)
        entry_set = self._sets.get(set_index)
        return entry_set is not None and entry_set.lookup(tag) is not None

    @property
    def built_sets(self) -> int:
        """Number of sets built since construction or the last flush."""
        return len(self._sets)

    def flush(self) -> None:
        """Drop all translations (a CR3 write / full INVLPG)."""
        self._sets.clear()


@dataclass(frozen=True)
class TlbAccessResult:
    """Outcome of a two-level TLB lookup."""

    dtlb_hit: bool
    stlb_hit: bool  # meaningful only when dtlb_hit is False
    penalty: int    # extra cycles on top of the cache access

    @property
    def caused_walk(self) -> bool:
        return not self.dtlb_hit and not self.stlb_hit


class TlbHierarchy:
    """L1 dTLB backed by a unified second-level TLB."""

    def __init__(
        self,
        dtlb: TlbGeometry,
        stlb: TlbGeometry,
        *,
        stlb_hit_penalty: int = 7,
        walk_penalty: int = 30,
        rng: Optional[random.Random] = None,
    ) -> None:
        rng = rng if rng is not None else random.Random(0)
        self.dtlb = Tlb(dtlb, rng=rng)
        self.stlb = Tlb(stlb, rng=rng)
        self.stlb_hit_penalty = stlb_hit_penalty
        self.walk_penalty = walk_penalty
        #: Watchdog: lookups performed; when ``step_budget`` is set
        #: (default off), exceeding it raises
        #: :class:`RunawayBenchmarkError` with a partial-progress report.
        self.steps_taken = 0
        self.step_budget: Optional[int] = None

    def access(self, virtual_address: int) -> TlbAccessResult:
        self.steps_taken += 1
        if self.step_budget is not None and self.steps_taken > self.step_budget:
            raise RunawayBenchmarkError(
                "TLB lookup step budget exceeded: %d lookups (budget %d)"
                % (self.steps_taken, self.step_budget),
                budget="tlb-steps", limit=self.step_budget,
                progress={
                    "steps": self.steps_taken,
                    "dtlb_hits": self.dtlb.hits,
                    "dtlb_misses": self.dtlb.misses,
                    "stlb_hits": self.stlb.hits,
                    "stlb_misses": self.stlb.misses,
                },
            )
        if self.dtlb.access(virtual_address):
            return TlbAccessResult(True, True, 0)
        if self.stlb.access(virtual_address):
            return TlbAccessResult(False, True, self.stlb_hit_penalty)
        return TlbAccessResult(False, False, self.walk_penalty)

    def flush(self) -> None:
        self.dtlb.flush()
        self.stlb.flush()
