"""nanoBench as a service: the fault-tolerant benchmark server.

The service layer turns the durable content-addressed result store
(:mod:`repro.store`) plus the batch engine (:mod:`repro.batch`) into a
long-lived multi-tenant HTTP/JSON server:

* :mod:`repro.server.quota` — per-client token-bucket admission;
* :mod:`repro.server.jobs` — the job model and the crash-safe journal;
* :mod:`repro.server.queue` — the multi-tenant queue over
  ``BatchRunner`` + ``ResultStore`` (drain, recovery, deadlines);
* :mod:`repro.server.http` — the ``ThreadingHTTPServer`` front end;
* :mod:`repro.server.client` — the stdlib client used by
  ``nanobench submit`` and the tests.

Entry points: ``nanobench serve`` / ``nanobench submit`` (see
:mod:`repro.core.cli`), or programmatically::

    from repro.server import BenchServer, JobQueue, QuotaPolicy

    queue = JobQueue("results.store", quota=QuotaPolicy(rate=50, burst=200))
    server = BenchServer(queue, port=8431)
    server.start()
    ...
    server.drain()          # SIGTERM semantics
"""

from ..batch.spec import spec_from_payload, spec_to_payload
from .client import ServerClient, ServerUnavailableError
from .http import BenchServer
from .jobs import (
    ACCEPTED,
    DONE,
    JOB_JOURNAL_NAME,
    RUNNING,
    Job,
    JobJournal,
)
from .queue import JobQueue, QueueStats
from .quota import QuotaPolicy, QuotaSnapshot, TokenBucket

__all__ = [
    "ACCEPTED",
    "DONE",
    "JOB_JOURNAL_NAME",
    "RUNNING",
    "BenchServer",
    "Job",
    "JobJournal",
    "JobQueue",
    "QueueStats",
    "QuotaPolicy",
    "QuotaSnapshot",
    "ServerClient",
    "ServerUnavailableError",
    "TokenBucket",
    "spec_from_payload",
    "spec_to_payload",
]
