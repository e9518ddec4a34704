"""The batched benchmark-execution engine.

:class:`BatchRunner` shards a list of :class:`BenchmarkSpec` across a
worker pool and streams ordered results back.  The design follows the
scale lessons of the uops.info corpus workflow: at thousands of
microbenchmarks the bottleneck is harness orchestration, not the
individual measurement, so the engine

* runs each spec on a fresh, deterministically-seeded simulated core
  (results are bit-identical to serial execution, regardless of the
  worker count or sharding — see :mod:`repro.batch.spec`);
* executes every spec that is not answered from the store through one
  :class:`~repro.batch.pool.ResilientPool`, whose one-worker case runs
  in-process — so serial and parallel batches share one fault and
  retry path, and faults are keyed by position among the executed
  specs for any worker count;
* amortizes assembly and code generation through the per-process LRU
  caches of :mod:`repro.core.codecache` (workers inherit empty caches
  and warm them up as their shard streams through);
* is **self-healing**: worker deaths and per-spec timeouts requeue the
  affected spec on another worker (:mod:`repro.batch.pool`), transient
  failures are retried, hard failures are captured per spec instead of
  aborting the sweep, and an optional durable **result store**
  (:mod:`repro.store`) lets an interrupted sweep resume without
  re-running completed specs — byte-identical to an uninterrupted run;
* reports progress via a callback and aggregates per-spec cost and
  recovery accounting into a :class:`BatchReport`.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from dataclasses import dataclass

from ..stats import Counters
from ..store import ResultStore, open_store
from .pool import ResilientPool
from .spec import (
    RUN_COUNTERS,
    BatchResult,
    BenchmarkSpec,
    journal_record,
    result_from_record,
    spec_digest,
)

#: Progress callback signature: ``(done, total, result)``.
ProgressCallback = Callable[[int, int, BatchResult], None]


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given: one per CPU."""
    return max(1, os.cpu_count() or 1)


@dataclass
class BatchReport(Counters):
    """Aggregate accounting for one :meth:`BatchRunner.run` call."""

    n_specs: int = 0
    n_errors: int = 0
    jobs: int = 1
    host_seconds: float = 0.0
    program_runs: int = 0
    simulated_cycles: int = 0
    assemble_hits: int = 0
    assemble_misses: int = 0
    generate_hits: int = 0
    generate_misses: int = 0
    #: Simulator-throughput totals across all specs (see
    #: :class:`repro.uarch.core.SimStats`).
    sim_instructions: int = 0
    fast_path_instructions: int = 0
    fast_path_fallbacks: int = 0
    #: Self-healing activity: spec executions beyond the first attempt
    #: (requeues after crashes / hangs / transient errors), worker
    #: deaths absorbed, and per-spec timeouts enforced.
    n_requeues: int = 0
    n_worker_deaths: int = 0
    n_timeouts: int = 0
    #: Durable-store traffic among the results streamed so far: specs
    #: answered from the content-addressed result store without
    #: re-execution, and specs that missed (were executed and then
    #: stored).  Zero when no store is attached.
    n_store_hits: int = 0
    n_store_misses: int = 0

    @property
    def benchmarks_per_second(self) -> float:
        if self.host_seconds <= 0:
            return 0.0
        return self.n_specs / self.host_seconds

    def add(self, result: BatchResult, *, stored: bool = False) -> None:
        """Account one streamed result (not another report, unlike
        :meth:`Counters.add`); *stored* means a result store is
        attached, so a fresh result is a store miss."""
        self.n_specs += 1
        if not result.ok:
            self.n_errors += 1
        if result.replayed:
            self.n_store_hits += 1
        elif stored:
            self.n_store_misses += 1
        self.n_requeues += max(0, result.attempts - 1)
        for name in RUN_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(result, name))


def _execute_spec(spec: BenchmarkSpec) -> BatchResult:
    """Worker entry point: run one spec on a fresh core."""
    return spec.execute()


class BatchRunner:
    """Execute many benchmark specs, serially or across worker processes.

    Parameters
    ----------
    jobs:
        Worker-process count of the
        :class:`~repro.batch.pool.ResilientPool` every executed spec
        goes through.  ``1`` (the default) is its in-process case; any
        larger value shards the specs over supervised worker processes.
        ``None`` means one worker per CPU.
    progress:
        Optional ``(done, total, result)`` callback, invoked in spec
        order as results stream in.
    spec_timeout:
        Per-spec deadline in seconds (worker processes only): a spec
        whose worker exceeds it is killed and requeued on another
        worker.  ``None`` disables the deadline unless the active fault
        plan injects worker hangs.
    max_requeues:
        How often one spec is requeued (worker death, timeout, or
        transient error) before its result reports the failure.
    store:
        A durable content-addressed result store
        (:class:`repro.store.ResultStore`), or the path of one to open.
        Specs whose digest is already stored are answered from it
        without re-execution (across runs, processes, and tools);
        fresh results are durably appended as they complete, so an
        interrupted sweep resumes where it stopped.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        *,
        progress: Optional[ProgressCallback] = None,
        spec_timeout: Optional[float] = None,
        max_requeues: int = 2,
        store: Optional[Union[str, "os.PathLike[str]", ResultStore]] = None,
    ) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.progress = progress
        self.spec_timeout = spec_timeout
        self.max_requeues = max_requeues
        self.store = store
        self.last_report = BatchReport()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[BenchmarkSpec]) -> List[BatchResult]:
        """Run all *specs*; returns results in spec order."""
        return list(self.iter_results(specs))

    def iter_results(
        self, specs: Sequence[BenchmarkSpec]
    ) -> Iterator[BatchResult]:
        """Stream results back in spec order as they complete."""
        specs = list(specs)
        report = BatchReport(jobs=self.jobs)
        self.last_report = report
        started = time.perf_counter()
        total = len(specs)

        pool = ResilientPool(_execute_spec, self.jobs,
                             timeout=self.spec_timeout,
                             max_requeues=self.max_requeues)
        store: Optional[ResultStore] = None
        owns_store = False
        replayed: Dict[int, BatchResult] = {}
        digests: Dict[int, str] = {}
        if self.store is not None:
            store = open_store(self.store)
            owns_store = not isinstance(self.store, ResultStore)
            for index, spec in enumerate(specs):
                digests[index] = spec_digest(spec)
                record = store.get(digests[index])
                if record is not None:
                    replayed[index] = result_from_record(spec, record)
        fresh = pool.imap_ordered([spec for index, spec in enumerate(specs)
                                   if index not in replayed])

        done = 0
        try:
            for index in range(total):
                if index in replayed:
                    result = replayed.pop(index)
                else:
                    outcome = next(fresh)
                    if outcome.ok:
                        result = outcome.value
                    else:
                        result = BatchResult(spec=specs[index], values={},
                                             error=outcome.error)
                    result.attempts = outcome.attempts
                    if store is not None:
                        # The ack point of the durability contract: the
                        # record is flushed (and fsynced) before the
                        # result is reported downstream.
                        store.put(digests[index],
                                  journal_record(index, specs[index], result))
                done += 1
                report.add(result, stored=store is not None)
                report.host_seconds = time.perf_counter() - started
                if self.progress is not None:
                    self.progress(done, total, result)
                yield result
        finally:
            fresh.close()
            if store is not None and owns_store:
                store.close()
            report.n_worker_deaths += pool.deaths
            report.n_timeouts += pool.timeouts
            report.host_seconds = time.perf_counter() - started
