"""``cache-seq``: case study II, cacheSeq replacement-policy analysis.

One op is one :meth:`CacheSeq.run` of a seeded random access sequence
(``random_access_sequence``: 2-4x associativity long over
associativity+4 blocks, every access measured, WBINVD first) in one
L1, L2 or L3 set.  The set-up matches ``survey_cpu``: kernel-space
nanoBench, prefetchers disabled, timing disabled and a 128 MB
physically-contiguous R14 buffer, for four Table I CPUs that cover
PLRU, MRU, QLRU and the adaptive set-dueling L3 (Haswell, probed in its
deterministic dedicated sets).

Every round runs each (CPU, level) target once in a seeded order.  The
output of every op is checked against the replacement-policy model
alone (``simulate_hits`` on a fresh set of the configured policy), and,
for the shipped seeds, against the committed per-op digests.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from harness import InProcessWorkload, digest

CPUS = ("Nehalem", "SandyBridge", "Haswell", "Skylake")
LEVELS = (1, 2, 3)
BUFFER_MB = 128


class Op(NamedTuple):
    uarch: str
    level: int
    set_index: int
    slice_id: Optional[int]
    policy: str
    associativity: int
    blocks: Tuple[str, ...]


def targets() -> List[Tuple[str, int, object]]:
    """``(uarch, level, CacheLevelSpec)`` of every studied cache."""
    from repro.uarch.specs import get_spec

    out = []
    for uarch in CPUS:
        spec = get_spec(uarch)
        for level in LEVELS:
            out.append((uarch, level, getattr(spec, "l%d" % level)))
    return out


def _place(rng: random.Random, level_spec) -> Tuple[int, Optional[int], str]:
    """A (set, slice, policy) location whose policy is deterministic."""
    dueling = level_spec.dueling
    if dueling is not None:
        # Dedicated policy-A sets: a fixed, deterministic QLRU variant.
        dedicated = dueling.dedicated_a[0]
        slice_id = dedicated.slices[0] if dedicated.slices else 0
        return (rng.randint(dedicated.first_set, dedicated.last_set),
                slice_id, dueling.policy_a)
    slice_id = rng.randrange(level_spec.n_slices) \
        if level_spec.n_slices > 1 else None
    return rng.randrange(level_spec.n_sets), slice_id, level_spec.policy


def op_rounds(seed) -> Iterator[List[Op]]:
    """Endless rounds of ops, a pure function of *seed*."""
    from repro.tools.cache.policy_id import random_access_sequence

    rng = random.Random("cache-seq:%s" % seed)
    studied = targets()
    while True:
        order = rng.sample(studied, len(studied))
        ops = []
        for uarch, level, level_spec in order:
            set_index, slice_id, policy = _place(rng, level_spec)
            blocks = random_access_sequence(rng, level_spec.associativity)
            ops.append(Op(uarch, level, set_index, slice_id, policy,
                          level_spec.associativity, tuple(blocks)))
        yield ops


def expected_hits(op: Op) -> int:
    """Hits the policy model predicts for *op* on a freshly flushed set."""
    from repro.memory.replacement import make_policy, simulate_hits

    return simulate_hits(make_policy(op.policy, op.associativity), op.blocks)


class CacheSeqWorkload(InProcessWorkload):
    name = "cache-seq"

    def setup(self) -> None:
        from repro.core.nanobench import NanoBench
        from repro.tools.cache.addresses import disable_prefetchers
        from repro.tools.cache.cacheseq import Access, AccessSequence, CacheSeq

        self._sequence = lambda blocks: AccessSequence(
            tuple(Access(block, True) for block in blocks), wbinvd=True)
        self.tools = {}
        for uarch in CPUS:
            nb = NanoBench.create(uarch, seed=0, kernel_mode=True)
            if not disable_prefetchers(nb.core):
                raise RuntimeError("cannot disable prefetchers on %s" % uarch)
            nb.core.timing_enabled = False
            nb.resize_r14_buffer(BUFFER_MB << 20)
            for level in LEVELS:
                self.tools[(uarch, level)] = CacheSeq(nb, level=level)

    def config(self) -> Dict[str, object]:
        return {"cpus": list(CPUS), "levels": list(LEVELS),
                "buffer_mb": BUFFER_MB, "engine": "direct",
                "prefetchers": "disabled", "timing": "disabled"}

    def _run(self, ops: List[Op]) -> Iterator[tuple]:
        for op in ops:
            result = self.tools[(op.uarch, op.level)].run(
                self._sequence(op.blocks), set_index=op.set_index,
                slice_id=op.slice_id)
            yield (op, result.hits, result.misses)

    # ------------------------------------------------------------------
    def warm_up(self) -> Iterator[tuple]:
        # One op per target, from a stream no integer seed reaches.
        return self._run(next(op_rounds("warm-up")))

    def rounds(self) -> Iterator[Iterator[tuple]]:
        for ops in op_rounds(self.seed):
            yield self._run(ops)

    # ------------------------------------------------------------------
    @staticmethod
    def output_key(output) -> tuple:
        return output

    def check(self, outputs, shipped: bool = True) -> Dict[str, int]:
        """Policy-model check on every op; on the shipped seeds, also the
        committed digest of the op at the same position."""
        digests = self.reference.get("seeds", {}).get(str(self.seed)) \
            if shipped else None
        failed = unchecked = 0
        for index, (op, hits, misses) in enumerate(outputs):
            wrong = (hits != expected_hits(op)
                     or hits + misses != len(op.blocks))
            if digests is None or index >= len(digests):
                unchecked += 1
            elif digests[index] != output_digest(hits, misses):
                wrong = True
            failed += wrong
        return {"failed": failed, "unchecked": unchecked}

    @staticmethod
    def per_op_counts(outputs) -> Dict[str, float]:
        n = max(1, len(outputs))
        counts = {}
        for level in LEVELS:
            hits = sum(h for op, h, _ in outputs if op.level == level)
            misses = sum(m for op, _, m in outputs if op.level == level)
            counts["tools.cache.l%d_hits" % level] = hits / n
            counts["tools.cache.l%d_misses" % level] = misses / n
        return counts


def output_digest(hits: int, misses: int) -> str:
    return digest([hits, misses])[:8]
