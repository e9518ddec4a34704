"""Per-client token-bucket quotas for the benchmark service.

Admission control is the first robustness layer of ``repro.server``: a
single greedy client must not be able to starve everyone else or grow
the job queue without bound.  Each client gets a classic token bucket —
``burst`` capacity, refilled continuously at ``rate`` tokens per second
— and one submitted *spec* costs one token, so quota pressure scales
with the work requested rather than the number of HTTP round trips.

The bucket never sleeps and never spawns timers: tokens are computed
lazily from the elapsed time at each :meth:`TokenBucket.take`, and a
rejected request carries the exact ``retry_after`` seconds until the
charge would succeed — which the HTTP layer surfaces as a ``429`` with
a ``Retry-After`` header.  The clock is injectable (``clock=``) so
tests are deterministic without monkeypatching time itself.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import BadSubmissionError, QuotaExceededError

#: Default steady-state quota: specs per second per client.
DEFAULT_RATE = 50.0

#: Default burst capacity: specs a quiet client may submit at once.
DEFAULT_BURST = 200


@dataclass
class QuotaSnapshot:
    """Point-in-time view of one client's bucket (for ``/v1/stats``)."""

    client: str
    tokens: float
    rate: float
    burst: int
    accepted: int
    rejected: int


class TokenBucket:
    """One client's continuously-refilling token bucket."""

    def __init__(self, rate: float, burst: int,
                 clock: Callable[[], float]) -> None:
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self.accepted = 0
        self.rejected = 0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(float(self.burst),
                           self._tokens + elapsed * self.rate)
        self._updated = now

    @property
    def tokens(self) -> float:
        self._refill(self._clock())
        return self._tokens

    def take(self, cost: int) -> Optional[float]:
        """Charge *cost* tokens; None on success, else seconds to wait.

        The wait is exact: after ``retry_after`` seconds of refill the
        same charge succeeds (absent concurrent spending).
        """
        now = self._clock()
        self._refill(now)
        if self._tokens >= cost:
            self._tokens -= cost
            self.accepted += 1
            return None
        self.rejected += 1
        if self.rate <= 0.0:
            return math.inf
        return (cost - self._tokens) / self.rate

    def refund(self, cost: int) -> None:
        """Undo one successful :meth:`take` of *cost* tokens."""
        self._refill(self._clock())
        self._tokens = min(float(self.burst), self._tokens + cost)
        self.accepted -= 1


class QuotaPolicy:
    """The service-wide quota table: one bucket per client name.

    Thread-safe (HTTP handler threads all admit through one instance).
    ``rate <= 0`` with ``burst > 0`` makes quotas one-shot; a *cost*
    larger than ``burst`` can never succeed and is rejected as fatal
    (:class:`~repro.errors.BadSubmissionError`) instead of telling the
    client to retry forever.
    """

    def __init__(self, rate: float = DEFAULT_RATE,
                 burst: int = DEFAULT_BURST, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if burst <= 0:
            raise ValueError("quota burst must be positive")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def bucket(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[client] = bucket
            return bucket

    def charge(self, client: str, cost: int) -> None:
        """Admit *cost* specs for *client* or raise the typed rejection."""
        if cost > self.burst:
            raise BadSubmissionError(
                "batch of %d spec(s) exceeds the per-client burst "
                "capacity of %d and can never be admitted; split the "
                "submission" % (cost, self.burst)
            )
        retry_after = self.bucket(client).take(cost)
        if retry_after is not None:
            raise QuotaExceededError(
                "client %r is over quota (%g specs/s, burst %d); retry "
                "in %.2f s" % (client, self.rate, self.burst, retry_after),
                retry_after=retry_after,
            )

    def refund(self, client: str, cost: int) -> None:
        """Return a :meth:`charge` of *cost* specs whose submission was
        refused after all (queue full): the client keeps its tokens."""
        self.bucket(client).refund(cost)

    def snapshot(self) -> Dict[str, QuotaSnapshot]:
        """Per-client bucket state, for the stats endpoint."""
        with self._lock:
            items = list(self._buckets.items())
        return {
            client: QuotaSnapshot(
                client=client,
                tokens=bucket.tokens,
                rate=bucket.rate,
                burst=bucket.burst,
                accepted=bucket.accepted,
                rejected=bucket.rejected,
            )
            for client, bucket in items
        }
