"""Memoization for the benchmark hot path (assembly and codegen).

High-volume workloads — the instruction-characterization sweeps of
Section V and the cache-policy surveys of Section VI — issue thousands
of :meth:`NanoBench.run` calls, and the vast majority re-assemble the
same ``-asm`` strings and regenerate structurally identical measurement
functions (Algorithm 1).  Both steps are pure functions of their
inputs, so this module puts a bounded LRU cache in front of each:

* :func:`cached_assemble` — keyed on the assembly source string;
* :func:`cached_generate` — keyed on ``(program, init, counter reads,
  generation-relevant options, localUnrollCount)``.

Cache contents are immutable-by-convention (:class:`Program` and
:class:`GeneratedCode` are never mutated after construction anywhere in
the library), so cached objects are shared between calls.  Hit/miss
statistics are exposed per :meth:`NanoBench.run` call on
:class:`~repro.core.nanobench.ExecutionReport` and globally via
:func:`cache_stats`.  The caches are per-process: each
:class:`~repro.batch.BatchRunner` worker builds its own, which is what
makes the batched sweeps fast without any cross-process locking.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Sequence, Tuple

from ..faults.plan import active_plan
from ..x86.assembler import assemble
from ..x86.instructions import Program
from .codegen import CounterRead, GeneratedCode, generate
from .options import NanoBenchOptions

#: Fixed bounds of the process-wide caches.
ASSEMBLE_CACHE_SIZE = 4096
GENERATE_CACHE_SIZE = 1024


class LRUCache:
    """A bounded mapping with least-recently-used eviction and stats.

    When a fault plan is active, each hit may draw the chaos plane's
    ``cache.corrupt`` fault; a corrupted entry is dropped and rebuilt
    from the factory (``repairs``), so a corrupted cache degrades to a
    miss instead of serving a wrong program.  Fault-free runs draw
    nothing (zero overhead on the hot path).
    """

    def __init__(self, maxsize: int, name: str = "") -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.name = name
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.repairs = 0
        self._entries: "OrderedDict" = OrderedDict()
        self._hit_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def _insert(self, key, factory: Callable[[], object]):
        value = factory()
        self._entries[key] = value
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def get_or_create(self, key, factory: Callable[[], object]):
        """Return the cached value for *key*, creating it on a miss."""
        self.lookups += 1
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return self._insert(key, factory)
        self._entries.move_to_end(key)
        plan = active_plan()
        if plan is not None:
            self._hit_count += 1
            if plan.fires("cache.corrupt",
                          "%s#%d" % (self.name, self._hit_count)):
                # A corrupted entry never served anyone: the lookup
                # rebuilt from the factory exactly like a cold miss, so
                # it counts as a miss plus a repair — not as a hit.
                self.misses += 1
                self.repairs += 1
                del self._entries[key]
                return self._insert(key, factory)
        self.hits += 1
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.repairs = 0
        self._hit_count = 0

    def stats(self) -> Dict[str, int]:
        # Every lookup is exactly one hit or one miss (a repaired
        # lookup is a miss); a drifting invariant here means a new
        # code path forgot to classify its outcome.
        assert self.hits + self.misses == self.lookups, (
            "%s cache stats out of balance: %d hits + %d misses != %d "
            "lookups" % (self.name, self.hits, self.misses, self.lookups)
        )
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "repairs": self.repairs,
        }


_assemble_cache = LRUCache(ASSEMBLE_CACHE_SIZE, name="assemble")
_generate_cache = LRUCache(GENERATE_CACHE_SIZE, name="generate")


def cached_assemble(source: str) -> Program:
    """:func:`~repro.x86.assembler.assemble`, memoized on the source."""
    return _assemble_cache.get_or_create(source, lambda: assemble(source))


def _program_key(program: Program) -> Tuple:
    # str(Program) round-trips mnemonics, operands and label positions,
    # which is exactly the information generate() consumes.
    return (str(program), len(program.instructions))


#: The :class:`NanoBenchOptions` fields :func:`generate` reads, audited
#: by ``tests/test_sim_fastpath.py`` with an access-recording proxy: a
#: future option that starts influencing codegen without being added
#: here (and thereby to the cache key) would make structurally
#: different programs collide in the cache.
_GENERATION_OPTION_FIELDS: Tuple[str, ...] = (
    "loop_count",
    "no_mem",
    "serializer",
)


def generation_key(
    code: Program,
    init: Program,
    counters: Sequence[CounterRead],
    options: NanoBenchOptions,
    local_unroll_count: int,
) -> Tuple:
    """The cache key: everything :func:`generate` depends on."""
    return (
        _program_key(code),
        _program_key(init),
        tuple(counters),
        tuple(getattr(options, name) for name in _GENERATION_OPTION_FIELDS),
        local_unroll_count,
    )


def cached_generate(
    code: Program,
    init: Program,
    counters: Sequence[CounterRead],
    options: NanoBenchOptions,
    local_unroll_count: int,
) -> GeneratedCode:
    """:func:`~repro.core.codegen.generate`, memoized."""
    key = generation_key(code, init, counters, options, local_unroll_count)
    return _generate_cache.get_or_create(
        key,
        lambda: generate(code, init, counters, options, local_unroll_count),
    )


def clear_caches() -> None:
    """Drop all cached programs and reset the statistics."""
    _assemble_cache.clear()
    _generate_cache.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Current statistics of both caches, for reports and the CLI."""
    return {
        "assemble": _assemble_cache.stats(),
        "generate": _generate_cache.stats(),
    }
