"""Random-sequence policy identification (Section VI-C1, second tool).

"The second tool generates random access sequences, and compares the
number of hits obtained by executing them with cacheSeq with the number
of hits in a simulation of different replacement policies, including
common policies like LRU, PLRU, and FIFO, as well as all meaningful
QLRU variants ...  If there is only one policy that agrees with all
measurement results, the tool concludes that this is likely the policy
actually used."

Because some variants are observationally equivalent (e.g. R0 vs R1
combined with U0, Section VI-B2), the tool returns the full set of
surviving candidates plus a canonical representative; the benchmark
checks the ground-truth policy is among the survivors and that all
survivors are behaviourally equivalent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ...errors import AnalysisError
from ...memory.replacement import (
    known_policy_names,
    make_policy,
    simulate_hits,
)
from .cacheseq import Access, AccessSequence, CacheSeq

#: Targeted sequences :meth:`PolicyIdentifier.identify` may spend on
#: separating inequivalent survivors.
MAX_DISAMBIGUATION = 40
#: Random sequences :meth:`PolicyIdentifier.find_counterexample` tries.
COUNTEREXAMPLE_SEQUENCES = 200
#: :func:`policies_equivalent`: simulated random sequences and their seed.
EQUIVALENCE_SEQUENCES = 200
EQUIVALENCE_SEED = 1234
#: Random sequences :func:`find_distinguishing_sequence` tries.
DISTINGUISHING_TRIES = 2000


def random_access_sequence(rng: random.Random,
                           associativity: int) -> List[str]:
    """A random sequence over ``associativity + 4`` symbolic blocks,
    2 to 4 times the associativity long."""
    length = rng.randint(2 * associativity, 4 * associativity)
    names = _block_names(associativity + 4)
    return [rng.choice(names) for _ in range(length)]


@lru_cache(maxsize=None)
def _block_names(n_blocks: int) -> Tuple[str, ...]:
    """``B0`` ... ``B<n_blocks-1>``, built once: every sequence over the
    same blocks shares these strings instead of holding its own."""
    return tuple("B%d" % i for i in range(n_blocks))


@dataclass
class IdentificationResult:
    """Outcome of a policy-identification run."""

    survivors: Tuple[str, ...]
    n_sequences: int
    unique: bool
    #: Canonical (alphabetically first) surviving policy name.
    policy: Optional[str] = None
    #: Survivors are pairwise observationally equivalent (so the
    #: identification is as tight as behaviour allows).
    equivalent: bool = False


def policies_equivalent(name_a: str, name_b: str,
                        associativity: int) -> bool:
    """Check observational equivalence of two policies by simulation."""
    rng = random.Random(EQUIVALENCE_SEED)
    policy_a = make_policy(name_a, associativity)
    policy_b = make_policy(name_b, associativity)
    for _ in range(EQUIVALENCE_SEQUENCES):
        blocks = random_access_sequence(rng, associativity)
        hits_a: List[bool] = []
        hits_b: List[bool] = []
        simulate_hits(policy_a, blocks, measured=hits_a)
        simulate_hits(policy_b, blocks, measured=hits_b)
        if hits_a != hits_b:
            return False
    return True


class PolicyIdentifier:
    """Identify the replacement policy of one cache set among every
    known policy of its associativity."""

    def __init__(
        self,
        cacheseq: CacheSeq,
        *,
        set_index: int = 0,
        slice_id: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.cacheseq = cacheseq
        self.set_index = set_index
        self.slice_id = slice_id
        self.rng = rng if rng is not None else random.Random(0)
        self.associativity = cacheseq.associativity
        self.candidates = known_policy_names(self.associativity)

    # ------------------------------------------------------------------
    def _measure(self, blocks: Sequence[str]) -> int:
        seq = AccessSequence(
            tuple(Access(b, True) for b in blocks), wbinvd=True
        )
        return self.cacheseq.run(
            seq, set_index=self.set_index, slice_id=self.slice_id
        ).hits

    def identify(self, n_sequences: int = 50) -> IdentificationResult:
        """Eliminate candidates with random sequences until stable.

        After the random phase, surviving candidates that are *not*
        observationally equivalent are separated with targeted
        distinguishing sequences (found by simulating the survivors
        against each other), so the result is as tight as behaviour
        allows.
        """
        survivors = list(self.candidates)
        simulators = {
            name: make_policy(name, self.associativity)
            for name in survivors
        }
        used = 0
        for _ in range(n_sequences):
            if len(survivors) <= 1:
                break
            blocks = random_access_sequence(self.rng, self.associativity)
            measured = self._measure(blocks)
            used += 1
            survivors = [
                name for name in survivors
                if simulate_hits(simulators[name], blocks) == measured
            ]
        # Targeted disambiguation of inequivalent survivors.
        for _ in range(MAX_DISAMBIGUATION):
            blocks = self._separating_sequence(survivors, simulators)
            if blocks is None:
                break
            measured = self._measure(blocks)
            used += 1
            survivors = [
                name for name in survivors
                if simulate_hits(simulators[name], blocks) == measured
            ]
        if not survivors:
            return IdentificationResult(
                survivors=(), n_sequences=used, unique=False
            )
        survivors.sort()
        equivalent = all(
            policies_equivalent(survivors[0], other, self.associativity)
            for other in survivors[1:]
        )
        return IdentificationResult(
            survivors=tuple(survivors),
            n_sequences=used,
            unique=len(survivors) == 1,
            policy=survivors[0],
            equivalent=equivalent,
        )

    def _separating_sequence(self, survivors, simulators,
                             max_tries: int = 500):
        """A sequence on which at least two survivors disagree."""
        if len(survivors) <= 1:
            return None
        for _ in range(max_tries):
            blocks = random_access_sequence(self.rng, self.associativity)
            counts = {
                simulate_hits(simulators[name], blocks)
                for name in survivors
            }
            if len(counts) > 1:
                return blocks
        return None

    # ------------------------------------------------------------------
    def check_policy(self, name: str, n_sequences: int = 30) -> bool:
        """Does policy *name* agree with all measurements?

        This is the counterexample search used in the Briongos et al.
        comparison (Section VI-D): a single disagreeing sequence
        refutes a claimed policy.
        """
        policy = make_policy(name, self.associativity)
        for _ in range(n_sequences):
            blocks = random_access_sequence(self.rng, self.associativity)
            if simulate_hits(policy, blocks) != self._measure(blocks):
                return False
        return True

    def find_counterexample(
        self, name: str
    ) -> Optional[Tuple[List[str], int, int]]:
        """A sequence where policy *name* disagrees with the hardware.

        Returns ``(blocks, simulated_hits, measured_hits)`` or None.
        """
        policy = make_policy(name, self.associativity)
        for _ in range(COUNTEREXAMPLE_SEQUENCES):
            blocks = random_access_sequence(self.rng, self.associativity)
            simulated = simulate_hits(policy, blocks)
            measured = self._measure(blocks)
            if simulated != measured:
                return blocks, simulated, measured
        return None


def find_distinguishing_sequence(
    name_a: str,
    name_b: str,
    associativity: int,
    *,
    rng: Optional[random.Random] = None,
) -> List[str]:
    """A sequence on which the two policies produce different hit counts.

    Used by the set-dueling scan to tell dedicated sets apart.
    """
    rng = rng if rng is not None else random.Random(7)
    policy_a = make_policy(name_a, associativity)
    policy_b = make_policy(name_b, associativity)
    for _ in range(DISTINGUISHING_TRIES):
        blocks = random_access_sequence(rng, associativity)
        if simulate_hits(policy_a, blocks) != simulate_hits(policy_b, blocks):
            return blocks
    raise AnalysisError(
        "no distinguishing sequence found for %s vs %s"
        % (name_a, name_b)
    )
