"""Set-dueling detection (Section VI-C3).

"To find the sets with a fixed policy in caches that use set dueling,
we implemented an approach similar to [Wong 2013].  However, unlike
their approach, our tool also supports caches in which the fixed sets
are not the same in all C-Boxes."

The scan classifies each (slice, set) as dedicated-to-A, dedicated-to-B
or follower, using the PSEL-flip protocol:

1. Classify every set with a distinguishing sequence (one that yields
   different hit counts under the two candidate policies).
2. Pin the selector to one side by hammering misses into the sets that
   currently behave like the other side (only dedicated sets move the
   PSEL), then re-classify: sets that still behave like B are
   dedicated-B.
3. Pin the selector to the other side and re-classify again: sets whose
   behaviour flips between the pinned phases are followers; sets that
   never change are dedicated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...memory.replacement import make_policy, simulate_hits
from .cacheseq import Access, AccessSequence, CacheSeq
from .policy_id import find_distinguishing_sequence

#: Seed of the distinguishing sequence the scan classifies sets with.
SEQUENCE_SEED = 11
#: Classification runs per set; a set is A-like only if every run is.
CLASSIFY_RUNS = 3


@dataclass
class SetClassification:
    """Scan result for one slice."""

    slice_id: int
    #: set index -> "A", "B" or "follower"
    labels: Dict[int, str] = field(default_factory=dict)

    def dedicated_ranges(self, label: str) -> List[Tuple[int, int]]:
        """Contiguous [first, last] runs of sets with the given label."""
        indices = sorted(
            s for s, got in self.labels.items() if got == label
        )
        ranges: List[Tuple[int, int]] = []
        for index in indices:
            if ranges and index == ranges[-1][1] + 1:
                ranges[-1] = (ranges[-1][0], index)
            else:
                ranges.append((index, index))
        return ranges


class SetDuelingScanner:
    """Scans an adaptive cache for dedicated sets, per C-Box."""

    def __init__(
        self,
        cacheseq: CacheSeq,
        policy_a: str,
        policy_b_deterministic: str,
    ) -> None:
        self.cacheseq = cacheseq
        self.policy_a = policy_a
        self.policy_b = policy_b_deterministic
        assoc = cacheseq.associativity
        self.sequence = find_distinguishing_sequence(
            policy_a, policy_b_deterministic, assoc,
            rng=random.Random(SEQUENCE_SEED),
        )
        self.hits_a = simulate_hits(make_policy(policy_a, assoc),
                                    self.sequence)
        self.hits_b = simulate_hits(
            make_policy(policy_b_deterministic, assoc), self.sequence
        )

    # ------------------------------------------------------------------
    def _classify_once(self, set_index: int,
                       slice_id: Optional[int]) -> str:
        seq = AccessSequence(
            tuple(Access(b, True) for b in self.sequence), wbinvd=True
        )
        hits = self.cacheseq.run(
            seq, set_index=set_index, slice_id=slice_id
        ).hits
        if hits == self.hits_a:
            return "A"
        if hits == self.hits_b:
            return "B"
        return "?"

    def _classify(self, set_index: int, slice_id: Optional[int]) -> str:
        """Majority/consistency classification over several runs.

        Probabilistic dedicated-B sets (the MR161 variants) rarely
        produce exactly the deterministic-A hit count every time, so a
        set is A-like only if *all* runs match policy A.
        """
        labels = [
            self._classify_once(set_index, slice_id)
            for _ in range(CLASSIFY_RUNS)
        ]
        if all(label == "A" for label in labels):
            return "A"
        return "B"

    # ------------------------------------------------------------------
    def _hammer_misses(self, locations: Sequence[Tuple[int, int]],
                       rounds: int = 4) -> None:
        """Generate misses in the given (slice, set) locations.

        Only misses in *dedicated* sets move the PSEL; follower misses
        are inert, so hammering every suspect is safe.
        """
        assoc = self.cacheseq.associativity
        blocks = ["M%d" % i for i in range(2 * assoc)]
        seq = AccessSequence(
            tuple(Access(b) for b in blocks), wbinvd=True
        )
        for _ in range(rounds):
            for slice_id, set_index in locations:
                self.cacheseq.run(seq, set_index=set_index,
                                  slice_id=slice_id)

    def _top_up(self, pin_locations: Sequence[Tuple[int, int]],
                step: int, width: int = 16) -> None:
        """Refresh the PSEL pin with a rotating window of pin traffic."""
        if not pin_locations:
            return
        start = (step * width) % len(pin_locations)
        window = [
            pin_locations[(start + k) % len(pin_locations)]
            for k in range(min(width, len(pin_locations)))
        ]
        self._hammer_misses(window, rounds=1)

    # ------------------------------------------------------------------
    def scan(self, set_indices: Sequence[int],
             slices: Optional[Sequence[int]] = None
             ) -> Dict[int, SetClassification]:
        """Classify (slice, set) pairs across several C-Boxes.

        The PSEL-flip phases run *globally*: a slice without dedicated
        sets (Haswell's slices 1-3) cannot move the selector itself, so
        the pinning traffic must cover all scanned slices at once —
        exactly the per-C-Box subtlety of Section VI-C3.
        """
        if slices is None:
            slices = range(self.cacheseq.addresses.available_slices(
                self.cacheseq.level
            ))
        slices = list(slices)
        locations = [(sl, s) for sl in slices for s in set_indices]

        phase1 = {loc: self._classify(loc[1], loc[0]) for loc in locations}

        # Pin the PSEL toward A: hammer all B-like locations; only the
        # dedicated-B ones among them decrement the selector.  The
        # classifications themselves drift the selector (measuring a
        # dedicated set generates misses), so the pin is topped up
        # before every single classification.
        pin_a = [loc for loc, label in phase1.items() if label == "B"]
        self._hammer_misses(pin_a)
        phase2 = {}
        for i, loc in enumerate(locations):
            self._top_up(pin_a, i)
            phase2[loc] = self._classify(loc[1], loc[0])

        # Pin the PSEL toward B: hammer the locations that stayed A-like.
        pin_b = [loc for loc, label in phase2.items() if label == "A"]
        self._hammer_misses(pin_b)
        phase3 = {}
        for i, loc in enumerate(locations):
            self._top_up(pin_b, i)
            phase3[loc] = self._classify(loc[1], loc[0])

        results: Dict[int, SetClassification] = {
            slice_id: SetClassification(slice_id=slice_id)
            for slice_id in slices
        }
        for loc in locations:
            stable_a = phase2[loc] == "A" and phase3[loc] == "A"
            stable_b = phase2[loc] == "B" and phase3[loc] == "B"
            if stable_b:
                label = "B"
            elif stable_a:
                label = "A"
            else:
                label = "follower"
            results[loc[0]].labels[loc[1]] = label
        return results
