"""The fixed retry rule of the self-healing measurement pipeline.

The paper notes that measurements "may need to be repeated multiple
times" under interference (Section I), and its remedy for kernel
allocation failures is to reboot and try again; at corpus scale the
harness must also survive transient *harness* failures — allocation
failures, counter wraparound, injected chaos faults — without aborting
a sweep.

:func:`retry_transient` is that rule: up to :data:`TRANSIENT_ATTEMPTS`
immediate attempts (the simulated machine has nothing to wait for, and
chaos runs must be reproducible).  Only
:class:`~repro.errors.TransientError` is retried; fatal errors
propagate immediately.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import TransientError

#: Attempts of one retried call, the first try included: one try plus
#: up to two retries.
TRANSIENT_ATTEMPTS = 3

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


def retry_transient(
    fn: Callable[[], object],
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
):
    """Call *fn*, retrying on :class:`TransientError`.

    ``on_retry(attempt, error)`` is invoked before each retry (the
    1-based attempt that just failed).  The final transient error
    propagates once :data:`TRANSIENT_ATTEMPTS` are exhausted; fatal
    errors propagate immediately.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except TransientError as exc:
            if attempt >= TRANSIENT_ATTEMPTS:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
