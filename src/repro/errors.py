"""Exception hierarchy shared by all repro subpackages.

The hierarchy splits into two branches that the self-healing
measurement pipeline keys on **by type** (never by string matching):

* :class:`TransientError` — conditions expected to clear on retry:
  transient kernel allocation failures, counter wraparound, injected
  chaos faults, dead or hung workers.
  :func:`~repro.core.retry.retry_transient` retries these up to
  :data:`~repro.core.retry.TRANSIENT_ATTEMPTS` times in place, and the
  batch plane requeues them.
* everything else under :class:`ReproError` — fatal for the current
  request: malformed input, privilege violations, configuration errors.
  Retrying cannot help; these propagate (or are captured per item by
  the batch plane without being requeued).

Use :func:`is_retryable` to classify a caught exception.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ----------------------------------------------------------------------
# Transient (retryable) branch
# ----------------------------------------------------------------------
class TransientError(ReproError):
    """A failure expected to clear on retry (the retryable branch)."""


class AllocationError(TransientError):
    """Raised when the kernel allocator cannot satisfy a request.

    The simulated greedy kmalloc allocator raises this when it cannot
    find a physically-contiguous region (the real tool proposes a
    reboot).  Transient: a retry after a (simulated) reboot — or simply
    after other allocations were released — can succeed.
    """


class CounterOverflowError(TransientError):
    """Raised when a measurement cannot be completed because counter
    wraparound kept contaminating the collected runs.

    Individual wrapped runs are detected (negative or implausibly large
    deltas) and re-run transparently; this error means the re-run
    budget was exhausted, which a group-level retry can still heal.
    """


class InjectedFaultError(TransientError):
    """A chaos-plane fault injected at spec level (always transient)."""


class WorkerCrashError(TransientError):
    """A batch worker process died while holding a work item.

    The item is requeued onto a fresh worker; this error surfaces only
    when the requeue budget is exhausted.
    """


class SpecTimeoutError(TransientError):
    """A work item exceeded its per-spec timeout (hung worker)."""


# ----------------------------------------------------------------------
# Fatal branch
# ----------------------------------------------------------------------
class AssemblerError(ReproError):
    """Raised when Intel-syntax assembly text cannot be parsed."""


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded to machine code."""


class DecodingError(ReproError):
    """Raised when a byte sequence cannot be decoded to an instruction.

    :func:`~repro.x86.decoder.decode_code` sets ``offset`` to the first
    byte of the record that failed and ``index`` to the number of
    instructions decoded before it.
    """

    offset = None
    index = None


class ValidationError(ReproError):
    """Raised by pre-flight validation before any simulation happens.

    Carries the structured list of :class:`ValidationIssue`\\ s found
    (see :mod:`repro.integrity.preflight`); ``offset`` / ``mnemonic``
    expose the first issue's location for quick programmatic access.
    """

    def __init__(self, message, *, issues=()):
        super().__init__(message)
        self.issues = tuple(issues)

    def __reduce__(self):
        return (_rebuild_validation_error, (self.args[0], self.issues))

    @property
    def offset(self):
        """Byte (or statement) offset of the first issue, if any."""
        return self.issues[0].offset if self.issues else None

    @property
    def mnemonic(self):
        """Mnemonic involved in the first issue, if any."""
        return self.issues[0].mnemonic if self.issues else None


def _rebuild_validation_error(message, issues):
    return ValidationError(message, issues=issues)


class ExecutionError(ReproError):
    """Raised when the functional simulator cannot execute an instruction."""


class PrivilegeError(ExecutionError):
    """Raised when a privileged operation is attempted in user mode.

    Mirrors the #GP(0) fault a real CPU raises for e.g. RDMSR at CPL > 0.
    """


class MemoryError_(ExecutionError):
    """Raised on invalid simulated memory accesses (unmapped pages)."""


class RunawayBenchmarkError(ExecutionError):
    """A benchmark exceeded one of its progress budgets (watchdog trip).

    Raised by the in-process watchdogs — the scheduler's cycle/µop
    budgets, the instruction budget of
    :meth:`~repro.uarch.core.SimulatedCore.run_program`, and the step
    budgets of the cache/TLB simulators — so an infinite dependency
    stall or a pathological multi-million-step sweep terminates with a
    structured partial-progress report instead of hanging the worker.

    Subclasses :class:`ExecutionError` (a runaway program is an
    execution failure) and is **not** transient: retrying the same
    benchmark would run away again.

    :ivar budget: which budget tripped (``"cycles"``, ``"uops"``,
        ``"instructions"``, ``"cache-steps"``, ``"tlb-steps"``).
    :ivar limit: the budget's configured limit.
    :ivar progress: partial-progress counters at the moment of the trip.
    """

    def __init__(self, message, *, budget="", limit=0, progress=None):
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.progress = dict(progress or {})

    def __reduce__(self):
        return (
            _rebuild_runaway_error,
            (self.args[0], self.budget, self.limit, self.progress),
        )

    def progress_report(self) -> str:
        """Human-readable one-line partial-progress summary."""
        parts = ["budget=%s" % self.budget, "limit=%d" % self.limit]
        parts.extend(
            "%s=%s" % (key, value)
            for key, value in sorted(self.progress.items())
        )
        return ", ".join(parts)


def _rebuild_runaway_error(message, budget, limit, progress):
    return RunawayBenchmarkError(
        message, budget=budget, limit=limit, progress=progress
    )


class TimingModelError(ReproError):
    """Raised when no timing information is available for an instruction."""


class CounterError(ReproError):
    """Raised on invalid performance-counter configuration or access."""


class ConfigError(ReproError):
    """Raised when a performance-counter config file is malformed."""


class NanoBenchError(ReproError):
    """Raised on invalid nanoBench parameters or benchmark failures."""


class UnschedulableEventError(NanoBenchError):
    """Raised when a performance event cannot be scheduled on a counter
    in the current mode (e.g. an uncore event in user space).

    :meth:`NanoBench.run` degrades gracefully on this: the event is
    skipped with a structured warning instead of failing the run.
    """


class CapabilityError(NanoBenchError):
    """A measurement backend cannot answer what the caller asks.

    The ``analytic`` backend raises it up front for a pause/resume
    counting benchmark (``magic_bytes``).  ``CacheSeq``, the TLB sweep
    and the branch-predictor sweep raise it unless bound to ``sim``:
    ``analytic`` lacks ``cache_events``, and ``auto`` lacks
    ``machine_state``, since it runs each escalated query on a fresh
    simulator (see :func:`repro.backends.require_sim`).  The ``auto``
    router catches it
    and serves the query from the simulator instead, so it carries the
    machine-readable capability name and survives pickling across
    worker processes.

    :ivar capability: name of the missing capability.
    :ivar backend: name of the backend that lacks it.
    """

    def __init__(self, message, *, capability="", backend=""):
        super().__init__(message)
        self.capability = capability
        self.backend = backend

    def __reduce__(self):
        return (
            _rebuild_capability_error,
            (self.args[0], self.capability, self.backend),
        )


def _rebuild_capability_error(message, capability, backend):
    return CapabilityError(message, capability=capability, backend=backend)


class AnalysisError(ReproError):
    """Raised by the case-study tools when an inference cannot proceed."""


class StoreError(ReproError):
    """Base class for durable result-store failures (:mod:`repro.store`)."""


class ServerError(ReproError):
    """Base class for benchmark-service failures (:mod:`repro.server`).

    Every subclass carries the HTTP status it maps to plus an optional
    ``retry_after`` hint (seconds), so the service layer can build both
    the status line and the structured JSON error body — ``type`` /
    ``message`` / ``retryable`` / ``retry_after`` — without any string
    matching.  Whether an error is *retryable* is decided the same way
    as everywhere else in the pipeline: by whether its type is also a
    :class:`TransientError` (see :func:`is_retryable`).

    :ivar retry_after: suggested client backoff in seconds, or None.
    """

    #: HTTP status code this error class maps to.
    http_status = 500

    def __init__(self, message, *, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after

    def __reduce__(self):
        return (_rebuild_server_error,
                (type(self), self.args[0], self.retry_after))


def _rebuild_server_error(cls, message, retry_after):
    return cls(message, retry_after=retry_after)


class QuotaExceededError(ServerError, TransientError):
    """A client exhausted its token-bucket quota (HTTP 429).

    Transient by construction: the bucket refills at a fixed rate, so
    retrying after ``retry_after`` seconds is expected to succeed.
    """

    http_status = 429


class QueueFullError(ServerError, TransientError):
    """The server's bounded job queue is at capacity (HTTP 429).

    Transient: queued jobs drain continuously; the client should back
    off ``retry_after`` seconds and resubmit.
    """

    http_status = 429


class ServerDrainingError(ServerError, TransientError):
    """The server is draining (SIGTERM) and accepts no new jobs
    (HTTP 503).  Transient from the fleet's point of view: a restarted
    or sibling server will accept the job."""

    http_status = 503


class JobNotFoundError(ServerError):
    """No job with the requested id exists on this server (HTTP 404).

    Fatal for the request: job ids are server-assigned, so retrying the
    same id cannot help.
    """

    http_status = 404


class BadSubmissionError(ServerError):
    """A submission was malformed — bad JSON, no specs, an oversized
    batch that can never fit the client's bucket (HTTP 400).  Fatal:
    the same body will always be rejected."""

    http_status = 400


class StoreFullError(StoreError):
    """The store cannot append: the disk is full (ENOSPC).

    Not transient — retrying the same append against the same full disk
    fails again; the caller must free space (``nanobench store gc``) or
    grow the volume.  The store guarantees the failed append left no
    partial record behind (partial writes are truncated before raising).
    """


class StoreLockError(StoreError):
    """The store's advisory file lock could not be acquired in time.

    Another process (a batch worker, a concurrent CLI run, an offline
    compaction) holds the exclusive lock past the configured timeout.
    """


def is_retryable(exc: BaseException) -> bool:
    """Should the self-healing pipeline retry after *exc*?"""
    return isinstance(exc, TransientError)
