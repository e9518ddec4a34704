"""Classic stack-based policies: LRU and FIFO."""

from __future__ import annotations

from typing import List

from .base import ReplacementPolicy, SetState


class _LRUSet(SetState):
    """True least-recently-used: an age counter per way."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._stamp = 0
        self._last_use: List[int] = [0] * associativity

    def _touch(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def choose_victim(self) -> int:
        empty = self.leftmost_empty()
        if empty is not None:
            return empty
        return min(range(self.associativity), key=lambda w: self._last_use[w])


class LRU(ReplacementPolicy):
    """Least-recently-used replacement."""

    name = "LRU"

    def create_set(self) -> SetState:
        return _LRUSet(self.associativity)


class _FIFOSet(SetState):
    """First-in first-out: replacement order fixed at fill time."""

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._stamp = 0
        self._fill_time: List[int] = [0] * associativity

    def on_hit(self, way: int) -> None:
        pass  # hits do not affect FIFO order

    def on_fill(self, way: int) -> None:
        self._stamp += 1
        self._fill_time[way] = self._stamp

    def choose_victim(self) -> int:
        empty = self.leftmost_empty()
        if empty is not None:
            return empty
        return min(range(self.associativity), key=lambda w: self._fill_time[w])


class FIFO(ReplacementPolicy):
    """First-in first-out replacement."""

    name = "FIFO"

    def create_set(self) -> SetState:
        return _FIFOSet(self.associativity)
