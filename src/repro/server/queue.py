"""The multi-tenant job queue feeding the batch engine.

:class:`JobQueue` is the service's brain: it admits submissions
(quota + bounded depth), journals every lifecycle transition
(:mod:`repro.server.jobs`; only the ``accepted`` ack is fsynced),
and executes jobs one at a time on a
dedicated worker thread through the existing
:class:`~repro.batch.runner.BatchRunner` + durable
:class:`~repro.store.ResultStore` pair — which is what buys the two
headline guarantees for free:

* **identical digests are answered from the store** with zero
  re-simulation (the runner's store wiring), and
* **an acknowledged result is never lost or recomputed** across kill
  -9 (the store's fsync-on-ack appends at the runner's ack point).

A job whose specs are all stored skips the worker: admission answers
it from the records it looked up and returns it ``done``.

Robustness mechanics on top:

* admission is fail-fast and typed — over-quota and queue-full raise
  :class:`~repro.errors.QuotaExceededError` /
  :class:`~repro.errors.QueueFullError` with exact ``retry_after``
  hints, never by blocking an HTTP thread;
* per-spec runaway protection reuses the PR 3 watchdog budgets: the
  queue injects its configured ``cycle_budget`` / ``uop_budget`` into
  every spec that does not set its own;
* a per-job wall deadline is enforced *between* specs — the remaining
  specs of an expired job fail with a structured error instead of
  silently holding the worker;
* **drain** (SIGTERM) stops admission, lets the in-flight job finish
  until the drain deadline, then checkpoints it back to ``accepted``
  mid-job — a restart re-enqueues it and the store answers its
  completed prefix;
* **recovery** (after kill -9) re-enqueues every journaled job whose
  last record is not ``done``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

import os

from ..backends import DEFAULT_BACKEND
from ..batch.runner import BatchRunner
from ..batch.spec import BatchResult, BenchmarkSpec, result_from_record
from ..errors import (
    JobNotFoundError,
    QueueFullError,
    ServerDrainingError,
    StoreError,
)
from ..stats import Counters
from ..store import ResultStore, open_store
from .jobs import ACCEPTED, DONE, JOB_JOURNAL_NAME, RUNNING, Job, JobJournal
from .quota import QuotaPolicy

#: Default bound on queued (not yet running) specs across all clients.
DEFAULT_MAX_QUEUED_SPECS = 10_000

#: Fallback per-spec seconds used for Retry-After estimates before any
#: spec has actually run.
_DEFAULT_SPEC_SECONDS = 0.05


@dataclass
class QueueStats(Counters):
    """Point-in-time queue accounting for ``/v1/stats``."""

    jobs_accepted: int = 0
    jobs_completed: int = 0
    jobs_recovered: int = 0
    jobs_checkpointed: int = 0
    pending_jobs: int = 0
    pending_specs: int = 0
    specs_executed: int = 0
    specs_from_store: int = 0
    spec_errors: int = 0
    journal_healed_torn_appends: int = 0
    draining: bool = False
    #: Routing attribution of answered specs: store replays count under
    #: ``"store"``, routed executions under the tier that served them
    #: (``analytic`` / ``sim``).  Un-routed specs (an explicit
    #: non-``auto`` backend) are not attributed here.
    router_tiers: Dict[str, int] = dataclass_field(default_factory=dict)
    router_audits: int = 0
    router_audit_failures: int = 0


class JobQueue:
    """Admission control, journaling, and execution of benchmark jobs.

    Parameters
    ----------
    store:
        The durable result store (instance or path).  The job journal
        lives inside its root directory, so one directory is the whole
        persistent state of a server.
    quota:
        The per-client admission policy (:class:`QuotaPolicy`); None
        disables quotas.
    max_queued_specs:
        Bound on specs sitting in the queue (running job excluded);
        beyond it submissions fail with :class:`QueueFullError`.
    jobs:
        Worker processes per job, forwarded to :class:`BatchRunner`
        (default 1: in-process, deterministic order).
    cycle_budget / uop_budget:
        Watchdog budgets injected into every spec that does not carry
        its own (see :mod:`repro.integrity.watchdog`).
    default_deadline_seconds:
        Per-job wall deadline when a submission does not set one.
    spec_timeout / max_requeues:
        Forwarded to :class:`BatchRunner` (pool mode only).
    route_specs:
        When True, specs submitted on the default backend are rewritten
        to the tiered ``auto`` router before admission, so the service
        serves each from the cheapest trustworthy tier.  Only specs on
        the default backend are rewritten; any other
        explicitly pinned backend is respected.
    clock:
        The monotonic time source for deadlines, drain budgets, and
        journal timestamps.  Defaults to the quota policy's clock (so
        one injected clock drives admission *and* execution timing in
        tests), or ``time.monotonic`` without a quota.  Wall-clock
        (``time.time``) is deliberately not used anywhere: an NTP step
        or suspend must not reorder journal records or expire jobs.
    """

    def __init__(
        self,
        store: Union[str, "os.PathLike[str]", ResultStore],
        *,
        quota: Optional[QuotaPolicy] = None,
        max_queued_specs: int = DEFAULT_MAX_QUEUED_SPECS,
        jobs: int = 1,
        cycle_budget: Optional[int] = None,
        uop_budget: Optional[int] = None,
        default_deadline_seconds: Optional[float] = None,
        spec_timeout: Optional[float] = None,
        max_requeues: int = 2,
        fsync: bool = True,
        route_specs: bool = False,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.store = open_store(store)
        self._owns_store = not isinstance(store, ResultStore)
        self.quota = quota
        self.max_queued_specs = int(max_queued_specs)
        self.jobs = max(1, int(jobs))
        self.cycle_budget = cycle_budget
        self.uop_budget = uop_budget
        self.default_deadline_seconds = default_deadline_seconds
        self.spec_timeout = spec_timeout
        self.max_requeues = max_requeues
        self.route_specs = route_specs
        if clock is None:
            clock = (quota._clock if quota is not None else time.monotonic)
        self._clock = clock
        self.journal = JobJournal(
            os.path.join(self.store.root, JOB_JOURNAL_NAME), fsync=fsync,
            clock=clock,
        )
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._pending: List[str] = []
        self._running: Optional[str] = None
        self._next_id = 1
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._stopped = False
        self._worker: Optional[threading.Thread] = None
        self.stats_counters = QueueStats()
        # Throughput estimate feeding Retry-After hints.
        self._executed_specs = 0
        self._executed_seconds = 0.0
        self.recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Load the journal; re-enqueue every job that never finished.

        Returns the number of jobs re-enqueued.  Safe to call only
        before the worker starts (it is: ``__init__`` calls it).
        """
        recovered = 0
        with self._lock:
            for job_id, job in sorted(self.journal.load().items()):
                suffix = job_id.rsplit("-", 1)[-1]
                if suffix.isdigit():
                    self._next_id = max(self._next_id, int(suffix) + 1)
                self._jobs[job_id] = job
                if job.state == DONE:
                    job.specs = []
                else:
                    job.state = ACCEPTED
                    job.outcomes = []
                    job.recoveries += 1
                    self.journal.append(job)
                    self._pending.append(job_id)
                    recovered += 1
            self._pending.sort()
            self.stats_counters.jobs_recovered += recovered
            if recovered:
                self._wakeup.notify_all()
        return recovered

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _with_budgets(self, spec: BenchmarkSpec) -> BenchmarkSpec:
        """Inject the queue's watchdog budgets (and, with
        ``route_specs``, the ``auto`` router) into a submitted spec."""
        backend = spec.backend
        if self.route_specs and backend == DEFAULT_BACKEND:
            backend = "auto"
        options = dict(spec.options)
        changed = backend != spec.backend
        for name, value in (("cycle_budget", self.cycle_budget),
                            ("uop_budget", self.uop_budget)):
            if value is not None and options.get(name) is None:
                options[name] = value
                changed = True
        if not changed:
            return spec
        return replace(spec, options=options, backend=backend)

    def _pending_specs_locked(self) -> int:
        return sum(len(self._jobs[job_id].digests)
                   for job_id in self._pending)

    def _spec_seconds(self) -> float:
        if self._executed_specs == 0:
            return _DEFAULT_SPEC_SECONDS
        return self._executed_seconds / self._executed_specs

    def submit(self, client: str, specs: Sequence[BenchmarkSpec], *,
               deadline_seconds: Optional[float] = None) -> Job:
        """Admit one job or raise the typed rejection (never blocks).

        A job whose specs are all in the store is answered here, from
        the records looked up once below, and returned ``done``; any
        other job is queued for the worker.
        """
        job = Job(
            job_id="",
            client=client,
            specs=[self._with_budgets(spec) for spec in specs],
            created_ts=self._clock(),
            deadline_seconds=(self.default_deadline_seconds
                              if deadline_seconds is None
                              else deadline_seconds),
        )
        records = [self.store.peek(digest) for digest in job.digests]
        answered = all(record is not None for record in records)
        with self._lock:
            if self._draining or self._stopped:
                raise ServerDrainingError(
                    "server is draining and accepts no new jobs",
                    retry_after=5.0,
                )
            # Quota before depth: a rejected client must not learn
            # queue-state timing through cheaper failures.
            cost = len(job.digests)
            if self.quota is not None:
                self.quota.charge(client, cost)
            backlog = self._pending_specs_locked()
            if not answered and backlog + cost > self.max_queued_specs:
                if self.quota is not None:
                    # A refused job spends nothing.
                    self.quota.refund(client, cost)
                raise QueueFullError(
                    "queue is full (%d spec(s) queued, bound %d)"
                    % (backlog, self.max_queued_specs),
                    retry_after=max(
                        0.1, (backlog + cost - self.max_queued_specs)
                        * self._spec_seconds()),
                )
            job.job_id = "job-%08d" % self._next_id
            self._next_id += 1
            # The admission ack point: the job is durable before the
            # client hears "accepted".
            try:
                self.journal.append(job)
            except StoreError:
                if self.quota is not None:
                    # A job that was never admitted spends nothing.
                    self.quota.refund(client, cost)
                raise
            self._jobs[job.job_id] = job
            tally = QueueStats(jobs_accepted=1)
            if answered:
                for index, record in enumerate(records):
                    _answer(job, index,
                            result_from_record(job.specs[index], record),
                            tally)
                self.store.counters.hits += len(records)
                job.n_store_hits = tally.specs_from_store
                job.state = DONE
                tally.jobs_completed += 1
                self.journal.append(job)
                job.specs = []
            else:
                self._pending.append(job.job_id)
                self._wakeup.notify_all()
            self.stats_counters.add(tally)
            return job

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobNotFoundError("no job %r on this server" % job_id)
            return job

    def result(self, digest: str) -> Optional[dict]:
        """The stored record for *digest*, or None.

        A status read: it answers no spec, so it counts no store hit
        or miss.
        """
        return self.store.peek(digest)

    def stats(self) -> QueueStats:
        with self._lock:
            snapshot = self.stats_counters.snapshot()
            snapshot.pending_jobs = len(self._pending) \
                + (1 if self._running else 0)
            snapshot.pending_specs = self._pending_specs_locked()
            snapshot.journal_healed_torn_appends = \
                self.journal.healed_torn_appends
            snapshot.draining = self._draining
            return snapshot

    # ------------------------------------------------------------------
    # Execution (worker thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the single worker thread (idempotent)."""
        with self._lock:
            if self._worker is not None:
                return
            self._worker = threading.Thread(
                target=self._worker_loop, name="jobqueue-worker",
                daemon=True,
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._stopped \
                        and not self._draining:
                    self._wakeup.wait(timeout=0.5)
                if self._stopped or (self._draining and not self._pending):
                    return
                if self._draining and self._drain_expired():
                    return
                job_id = self._pending.pop(0)
                self._running = job_id
                job = self._jobs[job_id]
                job.state = RUNNING
                job.outcomes = []
                job.n_errors = 0
                job.n_store_hits = 0
                job.n_store_misses = 0
                job.error = None
                self.journal.append(job)
            try:
                self._run_job(job)
            finally:
                with self._lock:
                    self._running = None
                    self._wakeup.notify_all()

    def _drain_expired(self) -> bool:
        return (self._drain_deadline is not None
                and self._clock() >= self._drain_deadline)

    def _run_job(self, job: Job) -> None:
        runner = BatchRunner(
            self.jobs,
            spec_timeout=self.spec_timeout,
            max_requeues=self.max_requeues,
            store=self.store,
        )
        started = self._clock()
        deadline = (None if job.deadline_seconds is None
                    else started + job.deadline_seconds)
        checkpointed = False
        expired = False
        # Counted as results stream, so a job cut short (drain
        # checkpoint, job deadline) reports only what actually ran.
        tally = QueueStats()
        results = runner.iter_results(job.specs)
        try:
            for index, result in enumerate(results):
                _answer(job, index, result, tally)
                remaining = len(job.specs) - len(job.outcomes)
                if remaining == 0:
                    break
                if deadline is not None and self._clock() >= deadline:
                    expired = True
                    break
                if self._draining and self._drain_expired():
                    checkpointed = True
                    break
        finally:
            results.close()
        host_seconds = runner.last_report.host_seconds
        with self._lock:
            self._executed_specs += tally.specs_executed
            self._executed_seconds += host_seconds
            job.n_store_hits = tally.specs_from_store
            job.n_store_misses = tally.specs_executed
            job.host_seconds = host_seconds
            if checkpointed:
                # Drain checkpoint: everything acked so far is in the
                # store; the job itself goes back to accepted so a
                # restart resumes it (completed specs become hits).
                job.state = ACCEPTED
                job.outcomes = []
                self._pending.insert(0, job.job_id)
                tally.jobs_checkpointed += 1
            else:
                if expired:
                    for index in range(len(job.outcomes), len(job.specs)):
                        job.outcomes.append({
                            "digest": job.digests[index],
                            "label": job.specs[index].label,
                            "ok": False,
                            "error": "job deadline of %.3f s exceeded"
                                     % job.deadline_seconds,
                            "from_store": False,
                            "served_by": None,
                        })
                        job.n_errors += 1
                        tally.spec_errors += 1
                    job.error = ("job deadline of %.3f s exceeded after "
                                 "%d of %d spec(s)"
                                 % (job.deadline_seconds,
                                    job.n_store_hits + job.n_store_misses,
                                    len(job.specs)))
                job.state = DONE
                tally.jobs_completed += 1
            self.stats_counters.add(tally)
            self.journal.append(job)
            if job.state == DONE:
                job.specs = []

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission; wait for the worker to finish or checkpoint.

        Returns True when the queue went fully idle within *timeout*
        (every queued job done), False when the drain deadline forced a
        mid-job checkpoint or left jobs queued (both are safe: the
        journal re-enqueues them on the next start).
        """
        with self._lock:
            self._draining = True
            if timeout is not None:
                self._drain_deadline = self._clock() + timeout
            self._wakeup.notify_all()
        worker = self._worker
        if worker is not None:
            # The worker bounds itself via the drain deadline; the join
            # timeout is a belt-and-braces cap for a spec that ignores
            # its budgets.
            worker.join(timeout=None if timeout is None
                        else timeout + 5.0)
        with self._lock:
            drained = self._running is None and not self._pending
        self.close()
        return drained

    def stop(self) -> None:
        """Hard stop for tests: no drain, no checkpoint, keep journal."""
        with self._lock:
            self._stopped = True
            self._wakeup.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=10.0)
        self.close()

    def close(self) -> None:
        self.journal.close()
        if self._owns_store:
            self.store.close()

    @property
    def draining(self) -> bool:
        return self._draining


def _answer(job: Job, index: int, result: BatchResult,
            tally: QueueStats) -> None:
    """Record spec *index*'s outcome on *job* and count it in *tally*.

    The worker and admission both answer through here, so a job gets
    the same outcomes and ``/v1/stats`` counts whichever served it.
    """
    served_by = "store" if result.replayed else (result.served_by or None)
    job.outcomes.append({
        "digest": job.digests[index],
        "label": job.specs[index].label,
        "ok": result.ok,
        "error": result.error,
        "from_store": result.replayed,
        "served_by": served_by,
    })
    if result.replayed:
        tally.specs_from_store += 1
    else:
        tally.specs_executed += 1
    if served_by:
        tally.bump("router_tiers", served_by)
    tally.router_audits += result.router_audited
    tally.router_audit_failures += result.router_audit_failed
    if not result.ok:
        job.n_errors += 1
        tally.spec_errors += 1


def job_results_payload(queue: JobQueue, job: Job) -> dict:
    """The job status payload with stored result values inlined.

    Values come from the content-addressed store (never from job
    state), so a recovered server serves byte-identical bytes for every
    digest it ever acknowledged.
    """
    payload = job.status_payload()
    results = []
    for outcome in payload["outcomes"]:
        record = queue.result(outcome["digest"]) if outcome["ok"] else None
        results.append(dict(outcome,
                            values=(record or {}).get("values")))
    payload["outcomes"] = results
    return payload
