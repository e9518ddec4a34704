"""Uniform-random replacement (baseline / contrast policy)."""

from __future__ import annotations

from .base import ReplacementPolicy, SetState


class _RandomSet(SetState):
    def __init__(self, associativity: int, rng) -> None:
        super().__init__(associativity)
        self._rng = rng

    def on_hit(self, way: int) -> None:
        pass

    def choose_victim(self) -> int:
        empty = self.leftmost_empty()
        if empty is not None:
            return empty
        return self._rng.randrange(self.associativity)


class RandomReplacement(ReplacementPolicy):
    """Evict a uniformly random way on each miss."""

    name = "RANDOM"

    def create_set(self) -> SetState:
        return _RandomSet(self.associativity, self.rng)

    @property
    def is_deterministic(self) -> bool:
        return False
