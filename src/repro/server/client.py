"""Tiny stdlib client for the benchmark service.

Used by ``nanobench submit`` and the test suite.  Three deliberate
behaviours:

* **One kept-alive connection.**  A :class:`ServerClient` sends every
  request over one HTTP/1.1 connection, so a submit-and-poll loop pays
  the TCP handshake and a server handler thread once, not per request.
  It reopens the connection after a drop, a timeout, or a response
  that closes it.  A client is not thread-safe: give each thread its
  own, and close it (or use it as a context manager) when done.
* **Typed errors round-trip.**  A structured error response is turned
  back into the exception class it came from (``QuotaExceededError``,
  ``QueueFullError``, ...) with its ``retry_after`` hint, so callers
  use the same ``is_retryable`` taxonomy on both sides of the wire.
* **Connection drops are retried with bounded deterministic backoff.**
  The server's ``server.accept_drop`` fault site (and any real flaky
  listener) hangs up before reading the request; the client retries a
  fixed number of times with a fixed backoff schedule, on a fresh
  connection each time.  A drop on a connection kept from an earlier
  request (the server restarted or hung up on it meanwhile) is first
  retried at once on a new connection, without spending the budget.
  This is safe for submissions too: results are content-addressed, so
  the worst case of an ambiguous drop is a duplicate job whose specs
  are all answered from the store.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import List, Optional, Sequence, Tuple, Union

from ..batch.spec import BenchmarkSpec
from ..errors import (
    BadSubmissionError,
    JobNotFoundError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ServerDrainingError,
    ServerError,
    is_retryable,
)
from .http import MAX_BODY_BYTES
from .jobs import spec_to_payload

#: Error types a structured response body may name (class-name keyed).
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (BadSubmissionError, JobNotFoundError, QueueFullError,
                QuotaExceededError, ServerDrainingError, ServerError)
}

#: Connection-level failures worth retrying (the drop shapes).
_RETRIED_EXCEPTIONS = (ConnectionError, http.client.BadStatusLine,
                       http.client.RemoteDisconnected, BrokenPipeError)


class ServerUnavailableError(ReproError):
    """The server could not be reached within the retry budget."""


class ServerClient:
    """HTTP client for one ``nanobench serve`` endpoint.

    Holds one kept-alive connection; not to be shared across threads.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8431, *,
                 client: str = "anonymous", timeout: float = 30.0,
                 retries: int = 5, backoff_seconds: float = 0.05) -> None:
        self.host = host
        self.port = int(port)
        self.client = client
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_seconds = backoff_seconds
        #: Connection drops absorbed by the retry loop (observability).
        self.retried_drops = 0
        self._connection: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Close the kept-alive connection (a later request reopens)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> Tuple[int, dict]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            if len(body) > MAX_BODY_BYTES:
                # The server refuses it unread and hangs up while the
                # body is still being sent: refuse it here instead.
                raise BadSubmissionError(
                    "submission of %d bytes exceeds the %d-byte bound"
                    % (len(body), MAX_BODY_BYTES))
            headers["Content-Type"] = "application/json"
        if self._connection is not None:
            try:
                return self._exchange(method, path, body, headers)
            except _RETRIED_EXCEPTIONS:
                # The server closed the kept-alive connection since its
                # last response (a restart, an idle hang-up): reopen it
                # once without spending a retry.
                self.retried_drops += 1
        last_exc: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                return self._exchange(method, path, body, headers)
            except _RETRIED_EXCEPTIONS as exc:
                last_exc = exc
                self.retried_drops += 1
                # Bounded deterministic backoff: fixed linear schedule,
                # no jitter — reproducibility beats thundering-herd
                # lore at this scale.
                time.sleep(self.backoff_seconds * (attempt + 1))
        raise ServerUnavailableError(
            "could not reach http://%s:%d%s after %d attempt(s): %s"
            % (self.host, self.port, path, self.retries + 1, last_exc))

    def _exchange(self, method: str, path: str, body: Optional[bytes],
                  headers: dict) -> Tuple[int, dict]:
        """One request and its response on the kept-alive connection,
        opened if need be; any failure closes it."""
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        try:
            self._connection.request(method, path, body=body,
                                     headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except socket.timeout as exc:
            self.close()
            raise ServerUnavailableError(
                "request %s %s timed out after %.1f s"
                % (method, path, self.timeout)) from exc
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            parsed = {}
        return response.status, parsed

    def _checked(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        status, parsed = self._request(method, path, payload)
        if status < 400:
            return parsed
        error = parsed.get("error", {}) if isinstance(parsed, dict) else {}
        cls = _ERROR_TYPES.get(error.get("type"), ServerError)
        raise cls(error.get("message")
                  or "%s %s failed with HTTP %d" % (method, path, status),
                  retry_after=error.get("retry_after"))

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def healthz(self) -> bool:
        status, _ = self._request("GET", "/healthz")
        return status == 200

    def readyz(self) -> bool:
        status, _ = self._request("GET", "/readyz")
        return status == 200

    def stats(self) -> dict:
        return self._checked("GET", "/v1/stats")

    def submit(self, specs: Sequence[Union[BenchmarkSpec, dict]], *,
               deadline_seconds: Optional[float] = None) -> dict:
        """Submit one job; returns the acceptance payload (``job_id``,
        per-spec ``digests``) or raises the server's typed rejection."""
        payloads: List[dict] = [
            spec_to_payload(spec) if isinstance(spec, BenchmarkSpec)
            else dict(spec)
            for spec in specs
        ]
        body = {"client": self.client, "specs": payloads}
        if deadline_seconds is not None:
            body["deadline_seconds"] = deadline_seconds
        return self._checked("POST", "/v1/jobs", body)

    def job(self, job_id: str) -> dict:
        return self._checked("GET", "/v1/jobs/%s" % job_id)

    def result(self, digest: str) -> dict:
        return self._checked("GET", "/v1/results/%s" % digest)

    def wait(self, job_id: str, *, timeout: float = 120.0,
             poll_seconds: float = 0.05) -> dict:
        """Poll until the job is done; returns its final payload.

        Every sleep — the poll interval and any server-suggested
        ``retry_after`` from a retryable rejection — is capped at the
        remaining time budget, so a 5 s timeout can never turn into a
        30 s hang on a server suggesting long backoffs.
        """
        deadline = time.monotonic() + timeout
        while True:
            delay = poll_seconds
            try:
                payload = self.job(job_id)
            except ReproError as exc:
                if not is_retryable(exc):
                    raise
                retry_after = getattr(exc, "retry_after", None)
                if retry_after:
                    delay = float(retry_after)
                payload = {"state": "backoff"}
            if payload.get("state") == "done":
                return payload
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerUnavailableError(
                    "job %s still %r after %.1f s"
                    % (job_id, payload.get("state"), timeout))
            time.sleep(min(delay, remaining))

    def run(self, specs: Sequence[Union[BenchmarkSpec, dict]], *,
            deadline_seconds: Optional[float] = None,
            timeout: float = 120.0) -> dict:
        """Submit and wait: the one-call convenience wrapper."""
        accepted = self.submit(specs, deadline_seconds=deadline_seconds)
        return self.wait(accepted["job_id"], timeout=timeout)
