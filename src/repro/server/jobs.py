"""Job model and the crash-safe job journal.

A *job* is one client submission: an ordered list of
:class:`~repro.batch.spec.BenchmarkSpec`\\ s plus admission metadata
(client name, deadline).  Its lifecycle is ``accepted -> running ->
done`` (``accepted -> done`` for a job the store answers at admission),
and every transition is appended to the **job journal** — a JSONL file
in the store directory using the exact record format of
:mod:`repro.store.records` (full-width SHA-256 per line, torn-write
tolerant scan, the same append routine), keyed by job id instead of
spec digest.

Only ``accepted`` records are fsynced: that is the admission ack
point, the promise that the job will be answered.  The later records
are written unsynced.  A kill -9 loses none of them (they are in the
kernel's page cache), and an OS crash that drops them loses nothing a
client was promised: recovery treats ``running`` like ``accepted``, and a job
whose ``done`` is lost re-runs with every spec answered from the store.

The journal is what makes the service crash-safe without making it
stateful: result *values* never live here (they live in the
content-addressed :class:`~repro.store.ResultStore`, written at the
batch runner's ack point); the journal only remembers **which jobs
exist and how far they got**.  After a kill -9, recovery re-enqueues
every job whose last record is not ``done`` — re-running it is cheap
because every spec already acked before the crash is answered from the
store with zero re-simulation, which is exactly the resume-or-dedup
guarantee the acceptance tests pin.

Each transition record is self-contained (it carries the spec payloads
too), so load is a last-wins scan per job id — the same recovery shape
as the store's segments, through the same
:func:`~repro.store.segment.scan_segment` and
:func:`~repro.store.segment.heal_segment`.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..batch.spec import (
    BenchmarkSpec,
    spec_digest,
    spec_from_payload,
    spec_to_payload,
)
from ..store.records import encode_record, record_checksum
from ..store.segment import (
    QUARANTINE_DIR,
    append_line,
    heal_segment,
    scan_segment,
)

#: Journal file name inside the store root.
JOB_JOURNAL_NAME = "jobs.jsonl"

#: Version stamped into every journal record.
JOB_RECORD_VERSION = 1

#: Job lifecycle states (journaled; ``done`` is terminal).
ACCEPTED = "accepted"
RUNNING = "running"
DONE = "done"

@dataclass
class Job:
    """One submission moving through the queue."""

    job_id: str
    client: str
    #: Emptied once the ``done`` record is written: a finished job is
    #: answered from its digests, outcomes and the store alone.
    specs: List[BenchmarkSpec]
    created_ts: float
    #: Wall-clock budget for the whole job, enforced between specs;
    #: None means no job-level deadline.
    deadline_seconds: Optional[float] = None
    state: str = ACCEPTED
    #: Per-spec outcome summaries, in spec order (populated as specs
    #: complete): ``{"digest", "label", "ok", "error"}``.
    outcomes: List[dict] = field(default_factory=list)
    #: BatchReport-level proof of the cache story for this job.
    n_store_hits: int = 0
    n_store_misses: int = 0
    n_errors: int = 0
    host_seconds: float = 0.0
    #: Journal replays survived (informational; >0 after a recovery).
    recoveries: int = 0
    error: Optional[str] = None
    #: The specs' store keys, hashed once at construction.
    digests: List[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.digests = [spec_digest(spec) for spec in self.specs]

    def status_payload(self) -> dict:
        """The JSON body of ``GET /v1/jobs/{id}``."""
        return {
            "job_id": self.job_id,
            "client": self.client,
            "state": self.state,
            "n_specs": len(self.digests),
            "completed": len(self.outcomes),
            "digests": self.digests,
            "outcomes": list(self.outcomes),
            "n_store_hits": self.n_store_hits,
            "n_store_misses": self.n_store_misses,
            "n_errors": self.n_errors,
            "host_seconds": self.host_seconds,
            "recoveries": self.recoveries,
            "error": self.error,
        }


def job_record(job: Job, ts: float) -> dict:
    """One self-contained journal record for *job*'s current state."""
    record = {
        "v": JOB_RECORD_VERSION,
        "digest": job.job_id,
        "state": job.state,
        "client": job.client,
        "ts": float(ts),
        "created_ts": job.created_ts,
        "deadline_seconds": job.deadline_seconds,
        "specs": [spec_to_payload(spec) for spec in job.specs],
        "outcomes": list(job.outcomes),
        "n_store_hits": job.n_store_hits,
        "n_store_misses": job.n_store_misses,
        "n_errors": job.n_errors,
        "host_seconds": job.host_seconds,
        "recoveries": job.recoveries,
        "error": job.error,
    }
    record["sha"] = record_checksum(record)
    return record


def job_from_record(record: dict) -> Job:
    """Rebuild a :class:`Job` from its last journal record."""
    return Job(
        job_id=record["digest"],
        client=record.get("client", "anonymous"),
        specs=[spec_from_payload(payload)
               for payload in record.get("specs", [])],
        created_ts=float(record.get("created_ts", record.get("ts", 0.0))),
        deadline_seconds=record.get("deadline_seconds"),
        state=record.get("state", ACCEPTED),
        outcomes=list(record.get("outcomes", [])),
        n_store_hits=int(record.get("n_store_hits", 0)),
        n_store_misses=int(record.get("n_store_misses", 0)),
        n_errors=int(record.get("n_errors", 0)),
        host_seconds=float(record.get("host_seconds", 0.0)),
        recoveries=int(record.get("recoveries", 0)),
        error=record.get("error"),
    )


class JobJournal:
    """Append-only, torn-write-tolerant JSONL journal of job states.

    Thread-safe: HTTP handler threads append ``accepted`` records (and
    ``done`` ones for jobs answered at admission) while the worker
    thread appends ``running``/``done`` ones.  Appends go through the
    store's :func:`~repro.store.segment.append_line`: a write cut short
    (by the ``queue.journal_torn`` fault site, ENOSPC, or a short raw
    write) is truncated back to the last complete record and retried,
    so a failed append never leaves a partial line for the next open to
    choke on.
    """

    def __init__(self, path: str, *, fsync: bool = True,
                 clock=time.monotonic) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        #: Timestamp source for appends without an explicit ``ts``.
        #: Monotonic by default — journal ``ts`` values only order
        #: lifecycle transitions, and a wall-clock step (NTP, suspend)
        #: must not be able to reorder them across a crash-resume.
        self._clock = clock
        self._handle = None
        self._lock = threading.Lock()
        #: Appends rolled back and retried (cut short by a fault, a
        #: short write or ENOSPC).
        self.healed_torn_appends = 0
        #: Torn tails cut off by :meth:`load`.
        self.truncations = 0

    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Job]:
        """Jobs keyed by id, last-wins, healing the file in place.

        A torn tail (kill mid-append) is truncated; interior corrupt
        lines are quarantined into the store root's ``quarantine/``
        directory and rewritten out of the file, with one warning — the
        affected job simply reverts to its previous journaled state, or
        is forgotten if it never had one (its acked results remain in
        the store either way).
        """
        with self._lock:
            self._close_handle_locked()
            scan = scan_segment(self.path)
            quarantine = os.path.join(os.path.dirname(self.path),
                                      QUARANTINE_DIR)
            if heal_segment(scan, quarantine):
                self.truncations += 1
            if scan.corrupt:
                warnings.warn(
                    "job journal %s: quarantined %d corrupt line(s) into "
                    "%s; the affected jobs revert to their previous "
                    "journaled state"
                    % (self.path, len(scan.corrupt), quarantine)
                )
            jobs: Dict[str, Job] = {}
            for _, record in scan.records:
                try:
                    jobs[record["digest"]] = job_from_record(record)
                except (KeyError, TypeError, ValueError) as exc:
                    warnings.warn(
                        "job journal %s: skipping malformed record "
                        "(%s)" % (self.path, exc)
                    )
            return jobs

    # ------------------------------------------------------------------
    def append(self, job: Job, ts: Optional[float] = None) -> dict:
        """Journal *job*'s current state.

        An ``accepted`` record is the admission ack point and is
        fsynced (when the journal fsyncs at all) before this returns;
        every other record is written unsynced (see the module
        docstring for why losing it is safe).
        """
        record = job_record(job, self._clock() if ts is None else ts)
        line = encode_record(record)
        with self._lock:
            append_line(self._ensure_handle_locked, line,
                        "%s:%s" % (job.job_id, job.state),
                        sync=self.fsync and job.state == ACCEPTED,
                        owner="job journal %s" % self.path,
                        torn_site="queue.journal_torn",
                        healed=self._count_heal)
        return record

    def _count_heal(self, exc: Exception) -> None:
        self.healed_torn_appends += 1

    # ------------------------------------------------------------------
    def _ensure_handle_locked(self):
        if self._handle is None:
            # Unbuffered, like the store's active segment: a failed
            # append must leave no user-space buffer to replay.
            self._handle = open(self.path, "ab", buffering=0)
        return self._handle

    def _close_handle_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def close(self) -> None:
        with self._lock:
            self._close_handle_locked()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
