"""Generic permutation policies (Abel & Reineke, RTAS 2013).

Section VI-B1: a permutation policy (1) maintains a total order of the
elements in the cache, (2) updates the order on a hit depending only on
the accessed element's position, and (3) replaces the smallest element
on a miss.  A policy of associativity A is fully specified by A+1
permutations — one per hit position, plus one for misses.

Convention used here: position 0 is the *smallest* element (the next
victim).  A permutation is a tuple ``pi`` with ``pi[old] = new``: after
an access touching position p, the element formerly at position q moves
to position ``pi[q]``.  On a miss the victim at position 0 is replaced by
the incoming block, which then participates in the miss permutation from
position 0.

The permutation-inference tool of Section VI-C1 produces instances of
:class:`PermutationSpec`; :class:`PermutationPolicy` turns a spec into a
runnable replacement policy, which lets the test suite check behavioural
equivalence between an inferred spec and the ground-truth hardware
policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .base import ReplacementPolicy, SetState


def _check_permutation(perm: Sequence[int], size: int, label: str) -> Tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(size)):
        raise ValueError("%s is not a permutation of 0..%d: %r" % (label, size - 1, perm))
    return perm


@dataclass(frozen=True)
class PermutationSpec:
    """A+1 permutations specifying one permutation policy."""

    hit_permutations: Tuple[Tuple[int, ...], ...]
    miss_permutation: Tuple[int, ...]

    def __post_init__(self) -> None:
        size = len(self.miss_permutation)
        object.__setattr__(
            self, "miss_permutation",
            _check_permutation(self.miss_permutation, size, "miss permutation"),
        )
        if len(self.hit_permutations) != size:
            raise ValueError(
                "need %d hit permutations, got %d"
                % (size, len(self.hit_permutations))
            )
        object.__setattr__(
            self, "hit_permutations",
            tuple(
                _check_permutation(p, size, "hit permutation %d" % i)
                for i, p in enumerate(self.hit_permutations)
            ),
        )

    @property
    def associativity(self) -> int:
        return len(self.miss_permutation)

    def describe(self) -> str:
        lines = ["miss: %s" % (self.miss_permutation,)]
        for i, perm in enumerate(self.hit_permutations):
            lines.append("hit@%d: %s" % (i, perm))
        return "\n".join(lines)


def lru_spec(associativity: int) -> PermutationSpec:
    """LRU expressed as a permutation policy."""
    def promote(p: int) -> Tuple[int, ...]:
        # Element at p becomes most-recently used (highest position);
        # everything above p shifts down by one.
        return tuple(
            q if q < p else (associativity - 1 if q == p else q - 1)
            for q in range(associativity)
        )
    return PermutationSpec(
        hit_permutations=tuple(promote(p) for p in range(associativity)),
        miss_permutation=promote(0),
    )


def fifo_spec(associativity: int) -> PermutationSpec:
    """FIFO expressed as a permutation policy (hits change nothing)."""
    identity = tuple(range(associativity))
    promote0 = tuple(
        associativity - 1 if q == 0 else q - 1 for q in range(associativity)
    )
    return PermutationSpec(
        hit_permutations=tuple(identity for _ in range(associativity)),
        miss_permutation=promote0,
    )


class _PermutationSet(SetState):
    """Cache-set state driven by an explicit permutation spec.

    Ways double as order positions here: ``self._tags[pos]`` is the tag
    at order position *pos* (0 = next victim).  This keeps physical
    locations abstract, which is fine because permutation policies are
    defined purely over the order.
    """

    def __init__(self, spec: PermutationSpec) -> None:
        super().__init__(spec.associativity)
        self._spec = spec

    def _apply(self, perm: Tuple[int, ...]) -> None:
        new_tags: List[Optional[int]] = [None] * self.associativity
        for old, new in enumerate(perm):
            new_tags[new] = self._tags[old]
        self._tags = new_tags

    def on_hit(self, way: int) -> None:
        self._apply(self._spec.hit_permutations[way])

    def choose_victim(self) -> int:
        # Cold misses fill the order bottom-up so that the permutation
        # abstraction sees a totally ordered set from the start.
        return 0

    def on_fill(self, way: int) -> None:
        self._apply(self._spec.miss_permutation)


class PermutationPolicy(ReplacementPolicy):
    """Replacement policy defined by an explicit :class:`PermutationSpec`."""

    def __init__(self, spec: PermutationSpec, name: str = "PERMUTATION") -> None:
        super().__init__(spec.associativity)
        self.spec = spec
        self.name = name

    def create_set(self) -> SetState:
        return _PermutationSet(self.spec)
