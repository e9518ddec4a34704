"""Quad-age LRU (QLRU / 2-bit RRIP) and the paper's variant taxonomy.

Section VI-B2 parameterises the QLRU family along four axes plus a
timing flag, giving names like ``QLRU_H11_M1_R0_U0`` or
``QLRU_H00_MR162_R0_U0_UMO``:

* **Hit promotion** ``Hxy`` with x in {0,1,2}, y in {0,1}::

      H(a) = x if a == 3, y if a == 2, 0 otherwise

* **Insertion age** ``Mx`` (x in {0..3}), or probabilistic ``MRpx``:
  insert with age x with probability 1/p, with age 3 otherwise
  (``MR161`` = p 16, age 1 — the non-deterministic Ivy Bridge variant).

* **Insertion location** ``R0``/``R1``/``R2``:

  - R0: leftmost empty way if the set is not full; otherwise the
    leftmost way with age 3 (undefined if none exists).
  - R1: like R0, but if no way has age 3, the leftmost way is replaced.
  - R2: like R0, but fills the *rightmost* empty way while not full.

* **Age update** ``U0``-``U3``, applied when no block has age 3 after an
  access (i = the accessed block's way, M = current maximum age):

  - U0: age'(b) = age(b) + (3 - M)
  - U1: like U0 but block i keeps its age
  - U2: age'(b) = age(b) + 1
  - U3: like U2 but block i keeps its age

* **UMO** ("update on miss only"): the age update is not checked after
  each access, only on a miss before selecting the victim.

The classic SRRIP-HP of Jaleel et al. is ``QLRU_H00_M2_R0_U0_UMO``;
"bimodal RRIP" is ``QLRU_H00_MRp2_R0_U0_UMO``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .base import ReplacementPolicy, SetState

_NAME_RE = re.compile(
    r"^QLRU_H(?P<hx>[012])(?P<hy>[01])"
    r"_M(?:R(?P<p>\d+))?(?P<mx>[0123])"
    r"_R(?P<r>[012])"
    r"_U(?P<u>[0123])"
    r"(?P<umo>_UMO)?$"
)


@dataclass(frozen=True)
class QLRUSpec:
    """The five parameters identifying one QLRU variant."""

    hit_x: int  # new age when hitting a block of age 3
    hit_y: int  # new age when hitting a block of age 2
    insert_age: int
    insert_prob_denominator: int = 1  # 1 = deterministic M; p of MRpx else
    replace_variant: int = 0  # 0/1/2 for R0/R1/R2
    update_variant: int = 0  # 0..3 for U0..U3
    update_on_miss_only: bool = False

    def __post_init__(self) -> None:
        if self.hit_x not in (0, 1, 2):
            raise ValueError("hit_x must be 0, 1 or 2")
        if self.hit_y not in (0, 1):
            raise ValueError("hit_y must be 0 or 1")
        if self.insert_age not in (0, 1, 2, 3):
            raise ValueError("insert_age must be in 0..3")
        if self.insert_prob_denominator < 1:
            raise ValueError("insertion probability denominator must be >= 1")
        if self.replace_variant not in (0, 1, 2):
            raise ValueError("replace_variant must be 0, 1 or 2")
        if self.update_variant not in (0, 1, 2, 3):
            raise ValueError("update_variant must be 0..3")

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        insert = "M%d" % self.insert_age
        if self.insert_prob_denominator > 1:
            insert = "MR%d%d" % (self.insert_prob_denominator, self.insert_age)
        return "QLRU_H%d%d_%s_R%d_U%d%s" % (
            self.hit_x, self.hit_y, insert, self.replace_variant,
            self.update_variant, "_UMO" if self.update_on_miss_only else "",
        )

    @property
    def is_deterministic(self) -> bool:
        return self.insert_prob_denominator == 1

    @property
    def is_valid(self) -> bool:
        """Whether the combination is possible (Section VI-B2).

        R0 cannot be combined with U2 or U3, "as it always requires at
        least one block with age 3".
        """
        if self.replace_variant == 0 and self.update_variant in (2, 3):
            return False
        return True

    def hit_promotion(self, age: int) -> int:
        if age == 3:
            return self.hit_x
        if age == 2:
            return self.hit_y
        return 0

    @classmethod
    def parse(cls, name: str) -> "QLRUSpec":
        """Parse a ``QLRU_Hxy_M*_R*_U*[_UMO]`` name."""
        match = _NAME_RE.match(name.strip())
        if not match:
            raise ValueError("not a QLRU variant name: %r" % (name,))
        return cls(
            hit_x=int(match.group("hx")),
            hit_y=int(match.group("hy")),
            insert_age=int(match.group("mx")),
            insert_prob_denominator=int(match.group("p") or 1),
            replace_variant=int(match.group("r")),
            update_variant=int(match.group("u")),
            update_on_miss_only=bool(match.group("umo")),
        )


#: Per age delta, every age after the update adds it (empty ways stay
#: empty).  Updates run only while no age is 3, so none exceeds 3.
_SHIFTED = {delta: {None: None, 0: delta, 1: 1 + delta, 2: 2 + delta}
            for delta in (1, 2, 3)}


class _QLRUSet(SetState):
    def __init__(self, associativity: int, spec: QLRUSpec, rng) -> None:
        super().__init__(associativity)
        self._spec = spec
        self._rng = rng
        self._ages: List[Optional[int]] = [None] * associativity

    # ------------------------------------------------------------------
    def _age_update(self, accessed_way: Optional[int]) -> None:
        """Apply the U update if no block currently has age 3."""
        ages = self._ages
        if 3 in ages:
            return
        # The highest age present (no age is 3 here).
        if 2 in ages:
            top = 2
        elif 1 in ages:
            top = 1
        elif 0 in ages:
            top = 0
        else:
            return  # an empty set
        variant = self._spec.update_variant
        shifted = _SHIFTED[(3 - top) if variant < 2 else 1]
        updated = [shifted[age] for age in ages]
        if variant in (1, 3) and accessed_way is not None:
            updated[accessed_way] = ages[accessed_way]
        ages[:] = updated

    # ------------------------------------------------------------------
    def on_hit(self, way: int) -> None:
        age = self._ages[way]
        self._ages[way] = self._spec.hit_promotion(age if age is not None else 3)
        if not self._spec.update_on_miss_only:
            self._age_update(way)

    def choose_victim(self) -> int:
        if not self.is_full:
            if self._spec.replace_variant == 2:
                return self.rightmost_empty()
            return self.leftmost_empty()
        if self._spec.update_on_miss_only:
            # Check the age-3 invariant only now, before victim selection.
            self._age_update(None)
        for way, age in enumerate(self._ages):
            if age == 3:
                return way
        if self._spec.replace_variant == 1:
            return 0  # R1: leftmost block regardless of its age
        # R0/R2 with no age-3 block: architecturally undefined.  Keep the
        # simulator total by falling back to the leftmost way.
        return 0

    def on_fill(self, way: int) -> None:
        spec = self._spec
        age = spec.insert_age
        if spec.insert_prob_denominator > 1:
            if self._rng.randrange(spec.insert_prob_denominator) != 0:
                age = 3
        self._ages[way] = age
        if not spec.update_on_miss_only:
            self._age_update(way)

    def access(self, tag: int) -> Tuple[bool, Optional[int]]:
        """The hooks' lookup, promotion, victim choice, insertion and age
        update in one call; draws the insertion age as ``on_fill`` does."""
        tags = self._tags
        ages = self._ages
        spec = self._spec
        if tag in tags:
            way = tags.index(tag)
            age = ages[way]  # spec.hit_promotion, inline
            if age is None or age == 3:
                ages[way] = spec.hit_x
            else:
                ages[way] = spec.hit_y if age == 2 else 0
            if not spec.update_on_miss_only and 3 not in ages:
                self._age_update(way)
            return True, None
        if None in tags:
            if spec.replace_variant == 2:
                way = self.rightmost_empty()
            else:
                way = tags.index(None)
        else:
            if spec.update_on_miss_only and 3 not in ages:
                self._age_update(None)
            # R1 replaces the leftmost block if no age is 3; for R0/R2
            # that case is undefined, and the leftmost way keeps the
            # simulator total.
            way = ages.index(3) if 3 in ages else 0
        evicted = tags[way]
        tags[way] = tag
        age = spec.insert_age
        denominator = spec.insert_prob_denominator
        if denominator > 1 and self._rng.randrange(denominator) != 0:
            age = 3
        ages[way] = age
        if not spec.update_on_miss_only and 3 not in ages:
            self._age_update(way)
        return False, evicted

    def on_invalidate(self, way: int) -> None:
        self._ages[way] = None

    def fingerprint(self) -> tuple:
        return tuple(self._tags), tuple(self._ages)

    def ages(self) -> List[Optional[int]]:
        """Expose the age bits (for tests)."""
        return list(self._ages)


class QLRU(ReplacementPolicy):
    """A QLRU variant, parameterised by a :class:`QLRUSpec`."""

    def __init__(self, associativity: int, spec: QLRUSpec, rng=None) -> None:
        super().__init__(associativity, rng)
        if not spec.is_valid:
            raise ValueError("invalid QLRU combination: %s" % (spec.name,))
        self.spec = spec
        self.name = spec.name

    @classmethod
    def from_name(cls, associativity: int, name: str, rng=None) -> "QLRU":
        return cls(associativity, QLRUSpec.parse(name), rng=rng)

    def create_set(self) -> SetState:
        return _QLRUSet(self.associativity, self.spec, self.rng)

    @property
    def is_deterministic(self) -> bool:
        return self.spec.is_deterministic


def meaningful_qlru_specs() -> Iterator[QLRUSpec]:
    """Enumerate all valid deterministic QLRU variants.

    This is the candidate space the policy-identification tool of
    Section VI-C1 simulates ("all meaningful QLRU variants").
    Probabilistic (MRpx) variants are excluded: non-deterministic
    policies are analysed with age graphs instead (Section VI-C2).
    """
    for hit_x in (0, 1, 2):
        for hit_y in (0, 1):
            for insert_age in (0, 1, 2, 3):
                for replace in (0, 1, 2):
                    for update in (0, 1, 2, 3):
                        for umo in (False, True):
                            spec = QLRUSpec(
                                hit_x=hit_x, hit_y=hit_y,
                                insert_age=insert_age,
                                replace_variant=replace,
                                update_variant=update,
                                update_on_miss_only=umo,
                            )
                            if spec.is_valid:
                                yield spec
