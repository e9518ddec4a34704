"""Classic stack-based policies: LRU and FIFO."""

from __future__ import annotations

from typing import List

from .base import ReplacementPolicy, SetState


def _ranks(stamps: List[int]) -> tuple:
    """The ways in victim order (stable, as ``min`` breaks ties).

    Stamps grow without bound, so raw stamps never repeat; every
    decision compares them only through this order, and a touch moves
    the touched way to its end.
    """
    return tuple(sorted(range(len(stamps)), key=stamps.__getitem__))


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

    def fingerprint(self) -> tuple:
        return tuple(self._tags), _ranks(self._last_use)


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

    def fingerprint(self) -> tuple:
        return tuple(self._tags), _ranks(self._fill_time)


class FIFO(ReplacementPolicy):
    """First-in first-out replacement."""

    name = "FIFO"

    def create_set(self) -> SetState:
        return _FIFOSet(self.associativity)
