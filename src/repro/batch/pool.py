"""A fault-tolerant worker pool for the batch engine.

``multiprocessing.Pool`` loses work when a worker dies and blocks
forever when one hangs — both of which the chaos plane injects on
purpose (``worker.death``, ``worker.hang``) and both of which happen in
practice at corpus scale.  :class:`ResilientPool` replaces it with an
explicitly supervised design:

* every worker owns a **private task queue and a private result queue
  with exactly one outstanding task**, so a death or deadline overrun
  is attributable to a specific item and the worker can be respawned
  with fresh queues.  Private result queues also make termination safe:
  killing a worker mid-``put`` can poison a queue's shared write lock,
  and with a shared result queue that one kill would deadlock every
  other worker;
* a crashed or timed-out item is **requeued** (bounded by
  ``max_requeues``) with an incremented attempt number — injection keys
  include the attempt, so a deterministically injected fault does not
  re-fire on the retry;
* items that raise are **captured**, not propagated: the pool always
  yields one :class:`ItemOutcome` per input, in input order;
* transient failures (:class:`~repro.errors.TransientError`) are
  requeued like crashes; fatal errors are reported immediately;
* ``KeyboardInterrupt`` (and any other teardown) terminates all workers
  via the ``finally`` path — no orphaned processes, no dangling pool;
* with one worker (or one payload) there is no process at all: the
  items run in-process, in order, through the same ``spec.error``
  injection and the same retry rule, so a serial batch is the pool's
  one-worker case rather than a second implementation.

Because every spec runs on a fresh deterministically-seeded core, a
requeued item produces the same values as an undisturbed first attempt,
which is what makes chaos-mode batch results byte-identical to a
fault-free serial run.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    InjectedFaultError,
    SpecTimeoutError,
    WorkerCrashError,
    is_retryable,
)
from ..faults.plan import FaultPlan, activate, active_plan

#: Exit code used by the injected ``worker.death`` fault.
DEATH_EXIT_CODE = 86
#: How long an injected ``worker.hang`` stalls a worker.  Bounded so a
#: hang without a configured timeout still completes eventually.
HANG_SLEEP_S = 30.0
#: Default per-item timeout applied when the active fault plan can hang
#: workers and the caller did not configure one.
DEFAULT_HANG_TIMEOUT_S = 5.0
#: Supervisor poll interval.
_TICK_S = 0.02


@dataclass
class ItemOutcome:
    """Per-item result wrapper (mirrors ``BatchResult.ok``).

    ``value`` holds the worker function's return value on success;
    ``error`` / ``error_type`` describe the failure otherwise.
    ``attempts`` counts executions including requeues after worker
    crashes, hangs, and transient errors.
    """

    index: int
    ok: bool
    value: object = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1


def _item_fault_key(index: int, attempt: int) -> str:
    """The canonical injection key of one (item, attempt) execution.

    Keyed by the item's position in the payload list — not by worker
    or arrival order — so the same plan injects the same faults for any
    worker count; keyed by attempt so a requeued item does not
    deterministically re-fail.
    """
    return "%d:%d" % (index, attempt)


def _execute(worker_fn, payload, plan: Optional[FaultPlan],
             key: str) -> Tuple[bool, object]:
    """One (item, attempt) execution: the ``spec.error`` fault, then
    *worker_fn*.  Returns ``(True, value)`` or ``(False, exception)``."""
    try:
        if plan is not None and plan.fires("spec.error", key + "|error"):
            raise InjectedFaultError(
                "injected transient spec failure (chaos plane)"
            )
        return True, worker_fn(payload)
    except Exception as exc:  # noqa: BLE001 — captured, not swallowed
        return False, exc


def _worker_main(worker_fn, task_queue, result_queue,
                 plan: Optional[FaultPlan]) -> None:
    """Worker loop: one task at a time on the slot's private queues."""
    if plan is not None:
        activate(plan)
    while True:
        task = task_queue.get()
        if task is None:
            return
        index, attempt, payload = task
        key = _item_fault_key(index, attempt)
        if plan is not None:
            if plan.fires("worker.death", key + "|death"):
                os._exit(DEATH_EXIT_CODE)
            if plan.fires("worker.hang", key + "|hang"):
                time.sleep(HANG_SLEEP_S)
        ok, value = _execute(worker_fn, payload, plan, key)
        if not ok:
            try:
                pickle.dumps(value)
            except Exception:
                value = WorkerCrashError(
                    "unpicklable %s: %s" % (type(value).__name__, value)
                )
        result_queue.put((index, attempt, ok, value))


class _WorkerSlot:
    """Supervision state of one worker: process, queues, current task."""

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.process: Optional[multiprocessing.Process] = None
        self.tasks = None
        self.results = None
        #: The ``(index, attempt)`` currently executing, or None.
        self.task: Optional[Tuple[int, int]] = None
        self.deadline: Optional[float] = None


class ResilientPool:
    """Supervised process pool with requeue, timeouts and error capture.

    Parameters
    ----------
    worker_fn:
        Module-level (picklable) function applied to each payload.
    jobs:
        Worker-process count (>= 1).  With one worker (or one payload)
        the items run in-process, in order, under the same fault and
        retry rules; worker deaths, hangs and deadlines need processes
        and do not apply there.
    timeout:
        Per-item deadline in seconds; an overrunning worker is killed
        and the item requeued.  ``None`` disables deadlines — unless
        the active fault plan can hang workers, in which case
        :data:`DEFAULT_HANG_TIMEOUT_S` is used.
    max_requeues:
        How often one item may be requeued (crash, hang, or transient
        error) before it is reported as failed.
    plan:
        Fault plan shipped to the workers; defaults to the plan active
        in the parent, so ``with FaultPlan(...)`` spans the pool.
    """

    def __init__(
        self,
        worker_fn: Callable,
        jobs: int,
        *,
        timeout: Optional[float] = None,
        max_requeues: int = 2,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if max_requeues < 0:
            raise ValueError("max_requeues must be >= 0")
        self.worker_fn = worker_fn
        self.jobs = jobs
        self.plan = plan if plan is not None else active_plan()
        if timeout is None and self.plan is not None \
                and self.plan.rate("worker.hang") > 0:
            timeout = DEFAULT_HANG_TIMEOUT_S
        self.timeout = timeout
        self.max_requeues = max_requeues
        #: Supervision counters of the last :meth:`imap_ordered` call.
        self.deaths = 0
        self.timeouts = 0
        self.requeues = 0

    # ------------------------------------------------------------------
    def imap_ordered(self, payloads: Sequence) -> Iterator[ItemOutcome]:
        """Yield one :class:`ItemOutcome` per payload, in input order."""
        payloads = list(payloads)
        total = len(payloads)
        self.deaths = self.timeouts = self.requeues = 0
        pending = deque((index, 0) for index in range(total))
        buffered: Dict[int, ItemOutcome] = {}
        if self.jobs == 1 or total == 1:
            while pending:
                index, attempt = pending.popleft()
                ok, value = _execute(self.worker_fn, payloads[index],
                                     self.plan,
                                     _item_fault_key(index, attempt))
                self._settle(index, attempt, ok, value, pending, buffered)
                if index in buffered:
                    yield buffered.pop(index)
            return
        context = multiprocessing.get_context()
        slots = [_WorkerSlot(i) for i in range(min(self.jobs, total))]
        next_emit = 0
        try:
            for slot in slots:
                self._spawn(slot, context)
            while next_emit < total:
                self._dispatch(slots, pending, payloads, context)
                progressed = self._collect(slots, pending, buffered)
                progressed |= self._supervise(slots, pending, buffered,
                                              context)
                while next_emit in buffered:
                    yield buffered.pop(next_emit)
                    next_emit += 1
                    progressed = True
                if not progressed:
                    time.sleep(_TICK_S)
        finally:
            self._shutdown(slots)

    def _settle(self, index: int, attempt: int, ok: bool, value,
                pending, buffered) -> None:
        """The one retry rule: buffer the item's outcome, or requeue it
        when the failure is transient and the budget allows."""
        if ok:
            buffered[index] = ItemOutcome(
                index, True, value=value, attempts=attempt + 1
            )
        elif is_retryable(value) and attempt < self.max_requeues:
            self.requeues += 1
            pending.appendleft((index, attempt + 1))
        else:
            buffered[index] = ItemOutcome(
                index, False,
                error=str(value),
                error_type=type(value).__name__,
                attempts=attempt + 1,
            )

    # ------------------------------------------------------------------
    def _spawn(self, slot: _WorkerSlot, context) -> None:
        slot.tasks = context.Queue()
        slot.results = context.Queue()
        slot.process = context.Process(
            target=_worker_main,
            args=(self.worker_fn, slot.tasks, slot.results, self.plan),
            daemon=True,
        )
        slot.process.start()
        slot.task = None
        slot.deadline = None

    def _dispatch(self, slots: List[_WorkerSlot], pending, payloads,
                  context) -> None:
        for slot in slots:
            if not pending:
                return
            if slot.task is not None:
                continue
            if not slot.process.is_alive():
                self._spawn(slot, context)
            index, attempt = pending.popleft()
            slot.task = (index, attempt)
            if self.timeout is not None:
                slot.deadline = time.monotonic() + self.timeout
            slot.tasks.put((index, attempt, payloads[index]))

    def _collect(self, slots, pending, buffered) -> bool:
        """Drain every slot's private result queue; True if anything
        arrived."""
        progressed = False
        for slot in slots:
            progressed |= self._collect_slot(slot, pending, buffered)
        return progressed

    def _collect_slot(self, slot: _WorkerSlot, pending, buffered) -> bool:
        progressed = False
        while True:
            try:
                message = slot.results.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return progressed
            progressed = True
            index, attempt, ok, value = message
            if slot.task == (index, attempt):
                slot.task = None
                slot.deadline = None
            self._settle(index, attempt, ok, value, pending, buffered)

    def _supervise(self, slots, pending, buffered, context) -> bool:
        """Detect dead and overdue workers; requeue or fail their item.

        A hung or dead worker only ever poisons its *own* queues (which
        are replaced on respawn), so terminating it cannot stall the
        rest of the pool.
        """
        now = time.monotonic()
        progressed = False
        for slot in slots:
            if slot.task is None:
                continue
            died = not slot.process.is_alive()
            overdue = slot.deadline is not None and now > slot.deadline
            if not died and not overdue:
                continue
            # A result may have raced in just before the death/kill —
            # prefer it over synthesizing a crash.
            self._collect_slot(slot, pending, buffered)
            if slot.task is None:
                progressed = True
                continue
            index, attempt = slot.task
            if died:
                self.deaths += 1
                error: Exception = WorkerCrashError(
                    "worker process died (exit code %s) while running "
                    "item %d" % (slot.process.exitcode, index)
                )
            else:
                self.timeouts += 1
                slot.process.terminate()
                slot.process.join(5.0)
                error = SpecTimeoutError(
                    "item %d exceeded the %.1fs per-item timeout"
                    % (index, self.timeout)
                )
            self._settle(index, attempt, False, error, pending, buffered)
            self._spawn(slot, context)
            progressed = True
        return progressed

    def _shutdown(self, slots: List[_WorkerSlot]) -> None:
        for slot in slots:
            if slot.process is None:
                continue
            if slot.process.is_alive():
                if slot.task is None:
                    slot.tasks.put(None)
                else:
                    slot.process.terminate()
        for slot in slots:
            if slot.process is not None:
                slot.process.join(5.0)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(1.0)
