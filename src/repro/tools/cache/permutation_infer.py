"""Permutation-policy inference (Section VI-C1, first tool).

Implements the algorithm of Abel & Reineke, "Measurement-based modeling
of the cache replacement policy" (RTAS 2013) on top of cacheSeq, for
policies that maintain a total order over the cached elements (LRU,
FIFO, tree-PLRU, ...).

A subtlety the cold-start handling must respect: the *fill* behaviour of
real caches (e.g. tree-PLRU filling the leftmost empty way) is not
necessarily expressible with the steady-state miss permutation.  The
inference therefore establishes a canonical *warm* base state first:
after filling the set and then forcing ``2A`` further steady-state
misses with fresh blocks ``c0 .. c{2A-1}``, the positions of the
surviving ``c`` blocks are a function of the miss permutation alone —
each miss inserts at position 0 (the victim slot) and applies the same
permutation, independent of what else occupies the set.

The steps:

1. **Eviction ages of the c blocks.**  The age of a block is the number
   of additional fresh misses after which it is evicted (0 = already
   evicted).  Measured ages are matched against all A! candidate miss
   permutations.
2. **Hit permutations.**  For each order position p: prepare the base
   state, hit the (known) block at position p, and measure ages again.
   Under repeated misses each position's occupant is evicted at a
   distinct step, so the age -> position map is injective and the new
   order — i.e. the permutation for a hit at p — can be read off
   directly.
3. **Validation.**  Random access suffixes are run on top of the warm
   base state and compared against the inferred model's predictions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import AnalysisError
from ...memory.replacement import PermutationSpec
from .cacheseq import Access, AccessSequence, CacheSeq

#: Measure ages up to ``_AGE_LIMIT_FACTOR * A`` fresh misses.
_AGE_LIMIT_FACTOR = 3
#: Random warm-state suffixes that screen the inferred candidates.
VALIDATION_SEQUENCES = 20
#: :func:`match_known_policy`: the named policies tried, in order, and
#: the random suffixes (drawn from a fixed seed) each must agree on.
KNOWN_POLICIES = ("PLRU", "LRU", "FIFO")
MATCH_SEQUENCES = 200
MATCH_SEED = 99


def _fill_blocks(associativity: int) -> List[str]:
    return ["B%d" % i for i in range(associativity)]


def _c_blocks(associativity: int) -> List[str]:
    return ["C%d" % i for i in range(2 * associativity)]


def _fresh_blocks(count: int) -> List[str]:
    return ["F%d" % i for i in range(count)]


class _OrderState:
    """Symbolic order state: position -> occupant token (0 = victim)."""

    def __init__(self, occupants: List[object]) -> None:
        self.slots = list(occupants)

    @classmethod
    def anonymous(cls, associativity: int) -> "_OrderState":
        return cls([("old", p) for p in range(associativity)])

    def apply(self, perm: Tuple[int, ...]) -> None:
        new_slots: List[object] = [None] * len(self.slots)
        for old, new in enumerate(perm):
            new_slots[new] = self.slots[old]
        self.slots = new_slots

    def miss(self, token: object, miss_perm: Tuple[int, ...]) -> object:
        victim = self.slots[0]
        self.slots[0] = token
        self.apply(miss_perm)
        return victim

    def hit(self, token: object, spec: "PermutationSpec") -> bool:
        try:
            position = self.slots.index(token)
        except ValueError:
            return False
        self.apply(spec.hit_permutations[position])
        return True

    def position_of(self, token: object) -> Optional[int]:
        try:
            return self.slots.index(token)
        except ValueError:
            return None


def _base_state(miss_perm: Tuple[int, ...], associativity: int
                ) -> _OrderState:
    """Predicted state after the warm-up round of 2A fresh misses."""
    state = _OrderState.anonymous(associativity)
    for name in _c_blocks(associativity):
        state.miss(name, miss_perm)
    return state


def _eviction_ages(state: _OrderState, miss_perm: Tuple[int, ...],
                   limit: int) -> Dict[object, int]:
    """Steps at which current occupants get evicted by fresh misses."""
    working = _OrderState(list(state.slots))
    ages: Dict[object, int] = {}
    for step in range(1, limit + 1):
        victim = working.miss(("fresh", step), miss_perm)
        if victim is not None and victim not in ages:
            ages[victim] = step
    return ages


@dataclass
class AgeMeasurement:
    """Measured eviction ages (0 = block already absent)."""

    ages: Dict[str, int]


class PermutationInference:
    """Runs the RTAS'13 inference against one cacheSeq instance."""

    def __init__(self, cacheseq: CacheSeq, *, set_index: int = 0,
                 rng: Optional[random.Random] = None) -> None:
        self.cacheseq = cacheseq
        self.set_index = set_index
        self.rng = rng if rng is not None else random.Random(0)
        self.associativity = cacheseq.associativity
        if self.associativity > 8:
            raise AnalysisError(
                "permutation inference is exponential in the associativity; "
                "%d-way is not practical (use the policy-identification "
                "tool instead)" % (self.associativity,)
            )
        self._prefix_base = (
            _fill_blocks(self.associativity) + _c_blocks(self.associativity)
        )
        #: Measurements are deterministic; memoize them so that multiple
        #: candidate miss permutations sharing a probe prefix do not
        #: re-run the same sequences.
        self._age_cache: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]],
                              AgeMeasurement] = {}

    # ------------------------------------------------------------------
    # Measurement primitives
    # ------------------------------------------------------------------
    def _block_survives(self, prefix: Sequence[str], block: str,
                        fresh: int) -> bool:
        tokens = list(prefix) + _fresh_blocks(fresh)
        accesses = [Access(t) for t in tokens] + [Access(block, True)]
        result = self.cacheseq.run(
            AccessSequence(tuple(accesses), wbinvd=True),
            set_index=self.set_index,
        )
        return result.hits == 1

    def measure_ages(self, prefix: Sequence[str],
                     blocks: Sequence[str]) -> AgeMeasurement:
        """Eviction age of each block after accessing *prefix*."""
        key = (tuple(prefix), tuple(blocks))
        cached = self._age_cache.get(key)
        if cached is not None:
            return cached
        limit = _AGE_LIMIT_FACTOR * self.associativity
        ages: Dict[str, int] = {}
        for block in blocks:
            age: Optional[int] = None
            for fresh in range(0, limit + 1):
                if not self._block_survives(prefix, block, fresh):
                    age = fresh
                    break
            if age is None:
                raise AnalysisError(
                    "block %s not evicted after %d fresh misses — not a "
                    "permutation policy?" % (block, limit)
                )
            ages[block] = age
        measurement = AgeMeasurement(ages)
        self._age_cache[key] = measurement
        return measurement

    # ------------------------------------------------------------------
    # Step 1: the miss permutation
    # ------------------------------------------------------------------
    def _predicted_base_ages(self, miss_perm: Tuple[int, ...]
                             ) -> Optional[Dict[str, int]]:
        a = self.associativity
        state = _base_state(miss_perm, a)
        if any(isinstance(slot, tuple) and slot and slot[0] == "old"
               for slot in state.slots):
            # Warm-up did not flush the unknown fill blocks: the base
            # state would not be canonical under this permutation.
            return None
        ages = _eviction_ages(state, miss_perm, _AGE_LIMIT_FACTOR * a)
        predicted: Dict[str, int] = {}
        for name in _c_blocks(a):
            if state.position_of(name) is None:
                predicted[name] = 0  # already evicted during warm-up
            else:
                step = ages.get(name)
                if step is None:
                    return None
                predicted[name] = step
        return predicted

    def infer_miss_permutation(self) -> List[Tuple[int, ...]]:
        """All miss permutations consistent with the measured ages."""
        a = self.associativity
        measured = self.measure_ages(self._prefix_base, _c_blocks(a)).ages
        candidates = []
        for perm in itertools.permutations(range(a)):
            if self._predicted_base_ages(perm) == measured:
                candidates.append(perm)
        if not candidates:
            raise AnalysisError(
                "no miss permutation matches the measured eviction ages "
                "%s — not a permutation policy?" % (measured,)
            )
        return candidates

    # ------------------------------------------------------------------
    # Step 2: hit permutations
    # ------------------------------------------------------------------
    def _position_age_map(self, miss_perm: Tuple[int, ...]
                          ) -> Dict[int, int]:
        a = self.associativity
        state = _OrderState([("pos", p) for p in range(a)])
        ages = _eviction_ages(state, miss_perm, _AGE_LIMIT_FACTOR * a)
        mapping = {}
        for pos in range(a):
            step = ages.get(("pos", pos))
            if step is None:
                raise AnalysisError(
                    "position %d never evicted under %s"
                    % (pos, miss_perm)
                )
            mapping[pos] = step
        return mapping

    def _infer_hit_permutation(
        self, miss_perm: Tuple[int, ...], position: int
    ) -> Optional[Tuple[int, ...]]:
        a = self.associativity
        base = _base_state(miss_perm, a)
        hit_block = base.slots[position]
        if not isinstance(hit_block, str):
            return None
        old_position = {
            block: pos for pos, block in enumerate(base.slots)
            if isinstance(block, str)
        }
        present = sorted(old_position)
        measured = self.measure_ages(
            self._prefix_base + [hit_block], present
        ).ages
        age_to_position = {
            age: pos for pos, age in self._position_age_map(miss_perm).items()
        }
        perm: List[Optional[int]] = [None] * a
        taken = set()
        for block in present:
            age = measured[block]
            new_pos = age_to_position.get(age)
            if new_pos is None or new_pos in taken:
                return None
            taken.add(new_pos)
            perm[old_position[block]] = new_pos
        # Positions whose occupants were anonymous cannot occur here
        # (the base state contains only c blocks); any remaining slots
        # get the leftover targets in order — they are unconstrained by
        # the measurement, and validation weeds out wrong guesses.
        leftovers = [p for p in range(a) if p not in taken]
        for i in range(a):
            if perm[i] is None:
                perm[i] = leftovers.pop(0)
        return tuple(perm)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Step 3: full inference + validation
    # ------------------------------------------------------------------
    def _build_spec(self, miss_perm: Tuple[int, ...]
                    ) -> Optional[PermutationSpec]:
        hit_perms: List[Tuple[int, ...]] = []
        for position in range(self.associativity):
            perm = self._infer_hit_permutation(miss_perm, position)
            if perm is None:
                return None
            hit_perms.append(perm)
        try:
            return PermutationSpec(
                hit_permutations=tuple(hit_perms),
                miss_permutation=miss_perm,
            )
        except ValueError:
            return None

    def _validation_measurements(self) -> List[Tuple[List[str], int]]:
        """Fixed random suffixes plus their measured warm-state hits.

        Measured once; candidate specs are then checked symbolically.
        """
        a = self.associativity
        names = _c_blocks(a) + ["X%d" % i for i in range(4)]
        measurements: List[Tuple[List[str], int]] = []
        for _ in range(VALIDATION_SEQUENCES):
            length = self.rng.randint(a, 3 * a)
            suffix = [self.rng.choice(names) for _ in range(length)]
            accesses = [Access(b) for b in self._prefix_base]
            accesses += [Access(b, True) for b in suffix]
            measured = self.cacheseq.run(
                AccessSequence(tuple(accesses), wbinvd=True),
                set_index=self.set_index,
            ).hits
            measurements.append((suffix, measured))
        return measurements

    def infer(self) -> PermutationSpec:
        """Run the full inference; returns a validated spec.

        The measured eviction ages typically leave many miss-permutation
        candidates (position labels are not directly observable, so
        behaviourally equivalent relabelings survive).  Candidates are
        therefore screened against a fixed, once-measured validation set
        and the first behaviourally consistent spec is returned.
        """
        candidates = self.infer_miss_permutation()
        validation = self._validation_measurements()
        for miss_perm in candidates:
            spec = self._build_spec(miss_perm)
            if spec is None:
                continue
            if all(
                self._predict_suffix_hits(spec, suffix) == hits
                for suffix, hits in validation
            ):
                return spec
        raise AnalysisError(
            "no permutation-policy model matches the measurements"
        )

    # ------------------------------------------------------------------
    def validate(self, spec: PermutationSpec, n_sequences: int = 20) -> bool:
        """Compare model predictions with measurements on random suffixes.

        Suffixes run on top of the canonical warm base state, so the
        unknown cold-fill behaviour cannot cause false mismatches.
        """
        a = self.associativity
        names = _c_blocks(a) + ["X%d" % i for i in range(4)]
        for _ in range(n_sequences):
            length = self.rng.randint(a, 3 * a)
            suffix = [self.rng.choice(names) for _ in range(length)]
            predicted = self._predict_suffix_hits(spec, suffix)
            accesses = [Access(b) for b in self._prefix_base]
            accesses += [Access(b, True) for b in suffix]
            measured = self.cacheseq.run(
                AccessSequence(tuple(accesses), wbinvd=True),
                set_index=self.set_index,
            ).hits
            if measured != predicted:
                return False
        return True

    def _predict_suffix_hits(self, spec: PermutationSpec,
                             suffix: Sequence[str]) -> int:
        state = _base_state(spec.miss_permutation, self.associativity)
        hits = 0
        for block in suffix:
            if state.hit(block, spec):
                hits += 1
            else:
                state.miss(block, spec.miss_permutation)
        return hits


def match_known_policy(spec: PermutationSpec) -> Optional[str]:
    """Name the concrete policy an inferred spec is equivalent to.

    Compares the spec's warm-state predictions against each candidate
    policy's behaviour on random suffixes (after the same fill + 2A
    warm-up round the inference uses).  Returns the first candidate that
    agrees everywhere, or None.
    """
    from ...memory.replacement import make_policy

    a = spec.associativity
    rng = random.Random(MATCH_SEED)
    prefix = _fill_blocks(a) + _c_blocks(a)
    names = _c_blocks(a) + ["X%d" % i for i in range(4)]
    trials = []
    for _ in range(MATCH_SEQUENCES):
        length = rng.randint(a, 3 * a)
        trials.append([rng.choice(names) for _ in range(length)])

    for candidate in KNOWN_POLICIES:
        if candidate == "PLRU" and a & (a - 1):
            continue
        try:
            policy = make_policy(candidate, a)
        except ValueError:
            continue
        matches = True
        for suffix in trials:
            # Concrete policy: run prefix unmeasured, count suffix hits.
            state = policy.create_set()
            for block in prefix:
                state.access(block)
            concrete_hits = sum(
                1 for block in suffix if state.access(block)[0]
            )
            # Spec prediction on the same suffix.
            predicted = _OrderState(
                _base_state(spec.miss_permutation, a).slots
            )
            spec_hits = 0
            for block in suffix:
                if predicted.hit(block, spec):
                    spec_hits += 1
                else:
                    predicted.miss(block, spec.miss_permutation)
            if concrete_hits != spec_hits:
                matches = False
                break
        if matches:
            return candidate
    return None
