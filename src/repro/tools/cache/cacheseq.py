"""cacheSeq: measure hits/misses of an access sequence (Section VI-C).

A sequence is a list of symbolic block names (``B0``, ``B1``, ...) that
all map to the same cache set of the studied level.  cacheSeq

* resolves block names to concrete addresses in the physically-
  contiguous buffer,
* optionally prepends WBINVD ("flushes all caches ... a privileged
  instruction"),
* inserts higher-level eviction accesses before any access whose block
  was already touched (so the access really reaches the studied level),
* marks which accesses contribute to the measured hit counts (the
  pause/resume feature of Section III-I),
* can run the sequence "in a specific set, in a list of sets, in a
  range of sets, or in all sets", and for L3 caches in a specific
  C-Box.

Two execution engines are provided.  The ``nanobench`` engine generates
a real microbenchmark (noMem mode, pause/resume magic, kernel-space
run) — exactly the paper's pipeline.  The ``direct`` engine drives the
simulated hierarchy without the measurement scaffolding; it is
observationally identical (the test suite asserts so in L1, L2 and L3
sets) and fast enough
for the large parameter sweeps of Sections VI-C2/VI-C3.  Per set, it
translates the plan and the eviction buffer to physical addresses once,
then makes one ``MemoryHierarchy.access`` call per access.  A
:meth:`CacheSeq.run` finds the sequence's distinct blocks once, for all
its sets.

Both engines work on the machine the caller prepared (``nb.core``, e.g.
with its prefetchers disabled), so :class:`CacheSeq` needs the ``sim``
backend: ``auto`` runs each escalated query on a fresh simulator, and
``analytic`` counts no cache events.  The ``nanobench`` engine's code
runs like any other on the core, scheduled and timed; only its event
counts are read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...backends import require_sim
from ...core.codegen import R14_AREA_BASE
from ...core.nanobench import NanoBench
from ...errors import AnalysisError, RunawayBenchmarkError
from ...integrity.watchdog import DEFAULT_STEP_BUDGET, memory_step_budget
from .addresses import AddressBuilder

_TOKEN_RE = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9_]*)(?P<meas>!?)$")


@dataclass(frozen=True)
class Access:
    """One element of an access sequence."""

    block: str
    measured: bool = False


@dataclass(frozen=True)
class AccessSequence:
    """A symbolic access sequence, e.g. ``<wbinvd> B0 B1 B0!``."""

    accesses: Tuple[Access, ...]
    wbinvd: bool = True

    @property
    def blocks(self) -> Tuple[str, ...]:
        """Distinct block names in first-use order."""
        return tuple(dict.fromkeys(access.block for access in self.accesses))

    def __str__(self) -> str:
        parts = ["<wbinvd>"] if self.wbinvd else []
        parts += [a.block + ("!" if a.measured else "") for a in self.accesses]
        return " ".join(parts)


def parse_sequence(text: str) -> AccessSequence:
    """Parse ``"<wbinvd> B0 B1 B0!"`` (``!`` marks measured accesses)."""
    accesses: List[Access] = []
    wbinvd = False
    for token in text.split():
        if token.lower() in ("<wbinvd>", "wbinvd"):
            if accesses:
                raise AnalysisError("<wbinvd> must come first")
            wbinvd = True
            continue
        match = _TOKEN_RE.match(token)
        if not match:
            raise AnalysisError("cannot parse sequence token %r" % (token,))
        accesses.append(Access(match.group("name"), match.group("meas") == "!"))
    return AccessSequence(tuple(accesses), wbinvd)


@dataclass
class CacheSeqResult:
    """Measured hit/miss totals over the measured accesses."""

    hits: int
    misses: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class CacheSeq:
    """The cacheSeq tool bound to one kernel-space nanoBench instance."""

    def __init__(self, nb: NanoBench, level: int = 3,
                 engine: str = "direct",
                 max_steps: Optional[int] = DEFAULT_STEP_BUDGET) -> None:
        if engine not in ("direct", "nanobench"):
            raise AnalysisError("engine must be 'direct' or 'nanobench'")
        require_sim(nb, "cacheSeq counts hits and misses of individual "
                        "memory accesses")
        self.nb = nb
        self.level = level
        self.engine = engine
        #: Runaway-benchmark watchdog: cache accesses allowed per
        #: :meth:`run` call.  A pathological sequence x set sweep raises
        #: :class:`~repro.errors.RunawayBenchmarkError` with a
        #: partial-progress report instead of grinding unboundedly.
        #: ``None`` disables the check.
        self.max_steps = max_steps
        self.addresses = AddressBuilder(nb)

    # ------------------------------------------------------------------
    @property
    def associativity(self) -> int:
        return self.addresses.cache(self.level).geometry.associativity

    @property
    def n_sets(self) -> int:
        return self.addresses.available_sets(self.level)

    # ------------------------------------------------------------------
    def _plan(
        self, seq: AccessSequence, blocks: Tuple[str, ...], set_index: int,
        slice_id: Optional[int]
    ) -> List[Tuple[int, bool, bool]]:
        """Resolve a sequence for one set: (address, measured, evict_first).

        *blocks* are the sequence's distinct blocks (``seq.blocks``).
        ``evict_first`` marks accesses that need the higher-level
        eviction buffer run beforehand: re-accesses of blocks touched
        earlier in the sequence (first touches are cold after WBINVD and
        reach the studied level anyway).
        """
        addresses = self.addresses.blocks_for_set(
            self.level, set_index, len(blocks), slice_id
        )
        by_name = dict(zip(blocks, addresses))
        plan: List[Tuple[int, bool, bool]] = []
        touched = set()
        for access in seq.accesses:
            evict_first = self.level > 1 and access.block in touched
            plan.append((by_name[access.block], access.measured, evict_first))
            touched.add(access.block)
        return plan

    # ------------------------------------------------------------------
    def run(
        self,
        seq,
        *,
        set_index: Optional[int] = None,
        sets: Optional[Sequence[int]] = None,
        slice_id: Optional[int] = None,
    ) -> CacheSeqResult:
        """Run *seq* in one set or a list of sets; returns summed counts."""
        if isinstance(seq, str):
            seq = parse_sequence(seq)
        if isinstance(sets, str):
            if sets != "all":
                raise AnalysisError("sets must be a list, 'all', or None")
            sets = range(self.n_sets)  # Section VI-C: "or in all sets"
        if sets is None:
            sets = [set_index if set_index is not None else 0]
        sets = list(sets)
        runner = (
            self._run_direct if self.engine == "direct"
            else self._run_nanobench
        )
        blocks = seq.blocks
        total_hits = 0
        total_misses = 0
        sets_completed = 0
        with memory_step_budget(self.nb.core.hierarchy, self.max_steps):
            try:
                for index in sets:
                    plan = self._plan(seq, blocks, index, slice_id)
                    eviction = (
                        self.addresses.eviction_buffer(
                            self.level, index, slice_id)
                        if self.level > 1 and any(p[2] for p in plan) else []
                    )
                    hits, misses = runner(plan, eviction, seq.wbinvd)
                    total_hits += hits
                    total_misses += misses
                    sets_completed += 1
            except RunawayBenchmarkError as exc:
                exc.progress.update(
                    sets_requested=len(sets),
                    sets_completed=sets_completed,
                    hits=total_hits,
                    misses=total_misses,
                )
                raise
        return CacheSeqResult(total_hits, total_misses)

    def hits(self, seq, **kwargs) -> int:
        """Shorthand: measured hit count."""
        return self.run(seq, **kwargs).hits

    # ------------------------------------------------------------------
    # Direct engine
    # ------------------------------------------------------------------
    def _run_direct(self, plan, eviction: List[int],
                    wbinvd: bool) -> Tuple[int, int]:
        core = self.nb.core
        hierarchy = core.hierarchy
        access = hierarchy.access
        # Translate the set's plan and eviction buffer once, up front.
        translate = core.address_space.translate
        plan = [(translate(address), measured, evict_first)
                for address, measured, evict_first in plan]
        eviction = [translate(address) for address in eviction]
        if wbinvd:
            hierarchy.wbinvd()
        hits = 0
        misses = 0
        for address, measured, evict_first in plan:
            if evict_first:
                for evict_address in eviction:
                    access(evict_address)
            result = access(address)
            if measured:
                if result.level == self.level:
                    hits += 1
                elif result.level > self.level:
                    misses += 1
                else:
                    raise AnalysisError(
                        "measured access hit level %d above the studied "
                        "level %d — eviction buffer insufficient"
                        % (result.level, self.level)
                    )
        return hits, misses

    # ------------------------------------------------------------------
    # nanoBench engine (the paper's actual pipeline)
    # ------------------------------------------------------------------
    def _hit_miss_events(self) -> Tuple[str, str]:
        family = self.nb.core.spec.family
        prefix = {
            "SKL": "MEM_LOAD_RETIRED",
            "NHM": "MEM_LOAD_RETIRED",
            "HSW": "MEM_LOAD_UOPS_RETIRED",
            "SNB": "MEM_LOAD_UOPS_RETIRED",
        }.get(family)
        if prefix is None:
            raise AnalysisError(
                "no cache events for family %r" % (family,)
            )
        return ("%s.L%d_HIT" % (prefix, self.level),
                "%s.L%d_MISS" % (prefix, self.level))

    def _run_nanobench(self, plan, eviction: List[int],
                       wbinvd: bool) -> Tuple[int, int]:
        hit_event, miss_event = self._hit_miss_events()
        lines: List[str] = []
        counting = True

        def set_counting(on: bool) -> None:
            nonlocal counting
            if counting == on:
                return
            lines.append("resume_counting" if on else "pause_counting")
            counting = on

        init = "wbinvd" if wbinvd else ""
        set_counting(False)
        for address, measured, evict_first in plan:
            if evict_first:
                set_counting(False)
                for evict_address in eviction:
                    lines.append(
                        "mov RAX, [R14 + %d]" % (evict_address - R14_AREA_BASE)
                    )
            set_counting(measured)
            lines.append("mov RAX, [R14 + %d]" % (address - R14_AREA_BASE))
        set_counting(True)
        asm = "; ".join(lines)
        result = self.nb.run(
            asm=asm,
            asm_init=init,
            events=[hit_event, miss_event],
            unroll_count=1,
            loop_count=0,
            n_measurements=1,
            warm_up_count=0,
            basic_mode=True,
            no_mem=True,
            fixed_counters=False,
            aggregate="min",
        )
        hits = int(round(result[hit_event]))
        misses = int(round(result[miss_event]))
        return hits, misses
