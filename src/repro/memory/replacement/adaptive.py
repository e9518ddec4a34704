"""Adaptive replacement via set dueling (Section VI-B3).

"A number of sets are dedicated to each policy, and the remaining sets
are follower sets that use the policy that is currently performing
better."  The Ivy Bridge, Haswell and Broadwell L3 caches of Table I use
this scheme; which sets are dedicated (and in which slices) differs per
microarchitecture (Section VI-D):

* Ivy Bridge: sets 512-575 use policy A and sets 768-831 use policy B,
  in *all* slices.
* Haswell: the same set ranges, but only in slice 0.
* Broadwell: policy A in sets 512-575 of slice 0 and sets 768-831 of
  slice 1; policy B in sets 512-575 of slice 1 and 768-831 of slice 0.

Follower sets consult a saturating policy-selector counter (PSEL) that
is incremented on misses in policy-A dedicated sets and decremented on
misses in policy-B dedicated sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .base import ReplacementPolicy, SetState
from .qlru import QLRUSpec, _QLRUSet


@dataclass(frozen=True)
class DedicatedRange:
    """An inclusive set-index range dedicated to one policy.

    ``slices`` restricts the range to specific slice ids; ``None``
    means the range is dedicated in every slice.
    """

    first_set: int
    last_set: int
    slices: Optional[Tuple[int, ...]] = None

    def covers(self, slice_id: int, set_index: int) -> bool:
        if not self.first_set <= set_index <= self.last_set:
            return False
        return self.slices is None or slice_id in self.slices


@dataclass
class SetDuelingConfig:
    """Two competing policies plus their dedicated-set layout."""

    policy_a: str  # policy name, e.g. "QLRU_H11_M1_R1_U2"
    policy_b: str
    dedicated_a: Tuple[DedicatedRange, ...]
    dedicated_b: Tuple[DedicatedRange, ...]
    psel_bits: int = 10

    def classify(self, slice_id: int, set_index: int) -> str:
        """Return ``"A"``, ``"B"`` or ``"follower"``."""
        if any(r.covers(slice_id, set_index) for r in self.dedicated_a):
            return "A"
        if any(r.covers(slice_id, set_index) for r in self.dedicated_b):
            return "B"
        return "follower"


class PselCounter:
    """Saturating policy-selector counter shared by a cache's sets.

    It lives on the policy, not in a set, so it survives WBINVD.
    """

    def __init__(self, bits: int = 10) -> None:
        self._max = (1 << bits) - 1
        self._mid = 1 << (bits - 1)
        self.value = self._mid

    def miss_in_a(self) -> None:
        self.value = min(self._max, self.value + 1)

    def miss_in_b(self) -> None:
        self.value = max(0, self.value - 1)

    @property
    def winner(self) -> str:
        """Policy currently performing better (fewer dedicated misses)."""
        return "A" if self.value < self._mid else "B"


class _DedicatedSet(SetState):
    """A dedicated set: fixed policy, reports misses to the PSEL."""

    def __init__(self, inner: SetState, psel: PselCounter, side: str) -> None:
        super().__init__(inner.associativity)
        self._inner = inner
        self._psel = psel
        self._side = side
        self._tags = inner._tags  # share the tag array

    def on_hit(self, way: int) -> None:
        self._inner.on_hit(way)

    def choose_victim(self) -> int:
        if self._side == "A":
            self._psel.miss_in_a()
        else:
            self._psel.miss_in_b()
        return self._inner.choose_victim()

    def on_fill(self, way: int) -> None:
        self._inner.on_fill(way)

    def on_invalidate(self, way: int) -> None:
        self._inner.on_invalidate(way)

    def fingerprint(self) -> tuple:
        return self._inner.fingerprint()


class _FollowerSet(_QLRUSet):
    """A follower set switching between two QLRU specs via the PSEL.

    Both competing policies on the modelled CPUs are QLRU variants, so
    a follower can keep a single 2-bit age array and merely interpret it
    under whichever spec is currently winning — matching real hardware,
    where the age bits are shared state.
    """

    def __init__(self, associativity: int, spec_a: QLRUSpec,
                 spec_b: QLRUSpec, psel: PselCounter, rng) -> None:
        super().__init__(associativity, spec_a, rng)
        self._spec_a = spec_a
        self._spec_b = spec_b
        self._psel = psel

    def _sync_spec(self) -> None:
        self._spec = self._spec_a if self._psel.winner == "A" else self._spec_b

    def on_hit(self, way: int) -> None:
        self._sync_spec()
        super().on_hit(way)

    def choose_victim(self) -> int:
        self._sync_spec()
        return super().choose_victim()

    def on_fill(self, way: int) -> None:
        self._sync_spec()
        super().on_fill(way)


class AdaptivePolicy(ReplacementPolicy):
    """Set-dueling policy for one cache slice.

    Unlike the simple policies this one is position-aware: the cache
    must create sets through :meth:`create_set_at` so each set knows its
    slice and index.  ``create_set`` (index-less) returns a policy-A set
    and exists only to satisfy the base interface.
    """

    def __init__(self, associativity: int, config: SetDuelingConfig,
                 rng=None) -> None:
        super().__init__(associativity, rng)
        self.config = config
        self.name = "ADAPTIVE(%s|%s)" % (config.policy_a, config.policy_b)
        self._spec_a = QLRUSpec.parse(config.policy_a)
        self._spec_b = QLRUSpec.parse(config.policy_b)
        self.psel = PselCounter(config.psel_bits)

    @property
    def is_deterministic(self) -> bool:
        return self._spec_a.is_deterministic and self._spec_b.is_deterministic

    def fingerprint(self) -> tuple:
        """The PSEL, which every set reads, plus the random stream."""
        return (self.psel.value,) + super().fingerprint()

    def _dedicated(self, spec: QLRUSpec, side: str) -> SetState:
        inner = _QLRUSet(self.associativity, spec, self.rng)
        return _DedicatedSet(inner, self.psel, side)

    def create_set(self) -> SetState:
        return self._dedicated(self._spec_a, "A")

    def create_set_at(self, slice_id: int, set_index: int) -> SetState:
        kind = self.config.classify(slice_id, set_index)
        if kind == "A":
            return self._dedicated(self._spec_a, "A")
        if kind == "B":
            return self._dedicated(self._spec_b, "B")
        return _FollowerSet(
            self.associativity, self._spec_a, self._spec_b, self.psel, self.rng
        )
