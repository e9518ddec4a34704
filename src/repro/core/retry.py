"""Retry policy for the self-healing measurement pipeline.

The paper notes that measurements "may need to be repeated multiple
times" under interference (Section I); at corpus scale the harness must
also survive transient *harness* failures — allocation failures,
counter wraparound, injected chaos faults — without aborting a sweep.

:class:`RetryPolicy` bounds those repetitions to a fixed number of
immediate attempts (the simulated machine has nothing to wait for, and
chaos runs must be reproducible).  The policy only ever retries
:class:`~repro.errors.TransientError`; fatal errors propagate
immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import TransientError

#: Structured warnings emitted by the degradation paths.


class MeasurementWarning(UserWarning):
    """Base class for structured warnings from the measurement stack."""


class UnschedulableEventWarning(MeasurementWarning):
    """An event group member was skipped instead of failing the run."""

    def __init__(self, event_name: str, reason: str) -> None:
        super().__init__(
            "skipping unschedulable event %r: %s" % (event_name, reason)
        )
        self.event_name = event_name
        self.reason = reason


class TransientRetryWarning(MeasurementWarning):
    """A transient failure was absorbed by a retry."""

    def __init__(self, attempt: int, error: BaseException) -> None:
        super().__init__(
            "transient failure on attempt %d, retrying: %s"
            % (attempt, error)
        )
        self.attempt = attempt
        self.error = error


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, immediate retries of transient failures.

    ``max_attempts`` counts the first try: ``3`` means one try plus up
    to two retries.

    ``degrade`` enables graceful degradation: an unschedulable event is
    skipped with a structured :class:`UnschedulableEventWarning`
    instead of raising.
    """

    max_attempts: int = 3
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def call(
        self,
        fn: Callable[[], object],
        *,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ):
        """Call *fn*, retrying on :class:`TransientError`.

        ``on_retry(attempt, error)`` is invoked before each retry (the
        1-based attempt that just failed).  The final transient error
        propagates once attempts are exhausted; fatal errors propagate
        immediately.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except TransientError as exc:
                if attempt >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
