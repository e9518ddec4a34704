"""Per-layer span accounting, installed from outside the program.

The benchmark measures the program as shipped: nothing under ``src/``
knows about tracing.  :class:`Tracer` instead replaces a few public
functions of each layer with timing wrappers while a traced phase runs
and puts the originals back afterwards.

Every wrapped call is one span.  Spans nest per thread, so each layer
gets three numbers: calls, inclusive time and *self* time (inclusive
minus the time covered by spans it caused).  Totals stay in memory and
are read when the phase ends; no span is written while one is timed.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Tuple

#: ``(layer name, module path, attribute path)`` of every wrapped
#: function.  The attribute is patched where callers look it up: class
#: attributes for methods, the defining module for ``semantics.execute``
#: (``uarch.core`` calls it as ``semantics.execute``), and the importing
#: module for names bound with ``from ... import``.
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("core.create", "repro.core.nanobench", "NanoBench.create"),
    ("core.run", "repro.core.nanobench", "NanoBench.run"),
    ("codegen.assemble", "repro.core.codecache", "assemble"),
    ("codegen.generate", "repro.core.codecache", "generate"),
    ("integrity.preflight", "repro.core.nanobench", "ensure_program_valid"),
    ("uarch.run_program", "repro.uarch.core", "SimulatedCore.run_program"),
    ("uarch.schedule", "repro.uarch.scheduler", "Scheduler.schedule"),
    ("x86.execute", "repro.x86.semantics", "execute"),
    ("memory.access", "repro.memory.hierarchy", "MemoryHierarchy.access"),
    ("memory.wbinvd", "repro.memory.hierarchy", "MemoryHierarchy.wbinvd"),
    ("memory.translate", "repro.memory.paging", "AddressSpace.translate"),
    ("tools.cache", "repro.tools.cache.cacheseq", "CacheSeq.run"),
    ("tools.cache.plan", "repro.tools.cache.addresses",
     "AddressBuilder.blocks_for_set"),
    ("tools.cache.plan", "repro.tools.cache.addresses",
     "AddressBuilder.eviction_buffer"),
    ("batch.execute", "repro.batch.spec", "BenchmarkSpec.execute"),
    ("store.get", "repro.store.store", "ResultStore.get"),
    ("store.put", "repro.store.store", "ResultStore.put"),
    ("server.journal_append", "repro.server.jobs", "JobJournal.append"),
)

#: One layer's totals: ``[calls, inclusive seconds, self seconds]``.
Totals = List[float]


class Tracer:
    """Thread-aware span totals for wrapped layer functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[str, Totals]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _thread_state(self):
        """This thread's ``(open-span child times, totals by name)``."""
        state = ([], {})
        self._local.state = state
        with self._lock:
            self._tables.append(state[1])
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with every call recorded as one span named *name*."""
        local = self._local
        clock = self._clock
        thread_state = self._thread_state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, table = local.state
            except AttributeError:
                stack, table = thread_state()
            # Each open span accumulates the time of the spans it caused.
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = table.get(name)
                if totals is None:
                    totals = table[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children

        return traced

    def record(self, name: str, seconds: float) -> None:
        """Add one interval measured outside a span (e.g. a wait)."""
        try:
            table = self._local.state[1]
        except AttributeError:
            table = self._thread_state()[1]
        totals = table.get(name)
        if totals is None:
            totals = table[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += seconds
        totals[2] += seconds

    # ------------------------------------------------------------------
    def install(self, functions=LAYER_FUNCTIONS) -> "Tracer":
        """Patch every listed function; :meth:`uninstall` restores them."""
        import importlib

        for name, module_name, attribute in functions:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) \
                else getattr(owner, leaf)
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(name, original.__func__))
            else:
                patched = self.wrap(name, original)
            setattr(owner, leaf, patched)
            self._patches.append((owner, leaf, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all totals (call between phases, with no span open)."""
        with self._lock:
            for table in self._tables:
                table.clear()

    def totals(self) -> Dict[str, Totals]:
        """Per-layer ``[calls, inclusive s, self s]`` over all threads."""
        merged: Dict[str, Totals] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, inclusive, own) in list(table.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0])
                into[0] += calls
                into[1] += inclusive
                into[2] += own
        return merged
