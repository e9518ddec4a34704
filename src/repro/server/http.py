"""The stdlib HTTP/JSON front end of the benchmark service.

``BenchServer`` wraps a :class:`~http.server.ThreadingHTTPServer`
around one :class:`~repro.server.queue.JobQueue`:

=======================  =============================================
``POST /v1/jobs``        submit one or many BenchmarkSpecs; ``202``
                         with the job id, its state (``done`` when
                         the store answered every spec at admission)
                         and per-spec digests, or a structured
                         ``429`` / ``503`` / ``400`` (``500`` with
                         type ``StoreError`` when the job could not
                         be journaled).
``GET /v1/jobs/{id}``    job status with stored result values inlined.
``GET /v1/results/{d}``  one stored record by spec digest (``404``
                         when the digest was never acknowledged).
``GET /healthz``         liveness: ``200`` while the process runs.
``GET /readyz``          readiness: ``200`` accepting, ``503`` when
                         draining (flipped *before* the listener
                         closes, so load balancers stop routing).
``GET /v1/stats``        queue, store, and per-client quota counters.
=======================  =============================================

Every error response is the same JSON shape — ``{"error": {"type",
"message", "retryable", "retry_after"}}`` — built from the
:class:`~repro.errors.ServerError` taxonomy (plus
:class:`~repro.errors.StoreError`): the *type* is the
exception class name (the client re-raises it), *retryable* is decided
by :func:`~repro.errors.is_retryable` exactly as in the rest of the
pipeline, and 429/503 responses carry a ``Retry-After`` header.

Connections are kept alive (HTTP/1.1 with ``TCP_NODELAY``), so a
client pays the TCP handshake and a handler thread once, not once per
request; stopping the server hangs up the idle ones.  A POST refused
before its body is read closes its connection, so the unread bytes
are never parsed as a request.

The chaos plane reaches into this layer through two fault sites:
``server.accept_drop`` closes an accepted connection before reading
the request (clients must retry), and ``server.slow_client`` trickles
a response out in small stalled chunks (other connections must keep
progressing — the threading server's job).
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Tuple
from urllib.parse import urlparse

from ..batch.spec import spec_from_payload
from ..errors import (
    BadSubmissionError,
    JobNotFoundError,
    ReproError,
    ServerError,
    StoreError,
    is_retryable,
)
from ..faults.plan import fault_fires
from .queue import JobQueue, job_results_payload

#: Submissions larger than this are rejected outright (decompression
#: bombs and runaway clients must not exhaust server memory).
MAX_BODY_BYTES = 8 << 20

#: ``server.slow_client``: chunks and per-chunk stall (bounded: the
#: whole injected delay is ``_SLOW_CHUNKS * _SLOW_STALL_SECONDS``).
_SLOW_CHUNKS = 4
_SLOW_STALL_SECONDS = 0.03


def error_body(exc: ReproError) -> dict:
    """The structured JSON error body for one taxonomy member."""
    return {
        "error": {
            "type": type(exc).__name__,
            "message": exc.args[0] if exc.args else "",
            "retryable": is_retryable(exc),
            "retry_after": getattr(exc, "retry_after", None),
        }
    }


class _Handler(BaseHTTPRequestHandler):
    # Handler threads must not outlive a drain because a client reads
    # slowly or keeps an idle connection open; the threading server
    # below marks them daemonic.
    protocol_version = "HTTP/1.1"
    server_version = "nanobench-serve"
    # HTTP/1.1 keeps connections alive, and a response goes out as two
    # sends (headers, then body).  With Nagle's algorithm on, the body
    # waits for the client's delayed ACK of the headers: about 40 ms
    # per request on a reused connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def bench(self) -> "BenchServer":
        return self.server.bench  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if self.bench.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def parse_request(self) -> bool:
        # Shutting a socket down for reading does not stop it from
        # delivering bytes that arrive later (Linux), so a handler that
        # had not yet gone back to reading its kept-alive connection
        # when the server hung up could still read the next request.
        # Such a request is left unanswered.
        if self.server.hung_up:  # type: ignore[attr-defined]
            self.close_connection = True
            return False
        return BaseHTTPRequestHandler.parse_request(self)

    def _drop_connection_injected(self) -> bool:
        """``server.accept_drop``: hang up before reading the request."""
        if not fault_fires("server.accept_drop"):
            return False
        self.close_connection = True
        try:
            self.connection.close()
        except OSError:
            pass
        return True

    def _send_json(self, status: int, payload: dict,
                   retry_after: Optional[float] = None) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        if retry_after is not None and math.isfinite(retry_after):
            self.send_header("Retry-After",
                             str(max(1, int(math.ceil(retry_after)))))
        self.end_headers()
        try:
            if fault_fires("server.slow_client") and len(body) > _SLOW_CHUNKS:
                step = max(1, len(body) // _SLOW_CHUNKS)
                for offset in range(0, len(body), step):
                    self.wfile.write(body[offset:offset + step])
                    self.wfile.flush()
                    time.sleep(_SLOW_STALL_SECONDS)
            else:
                self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _send_error(self, exc: ReproError) -> None:
        """A :class:`ServerError` maps to its own status; a
        :class:`StoreError` (the job journal could not be written) is a
        500 that the client must not resubmit blindly."""
        self._send_json(getattr(exc, "http_status", 500), error_body(exc),
                        retry_after=getattr(exc, "retry_after", None))

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        if self._drop_connection_injected():
            return
        path = urlparse(self.path).path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(200, {"ok": True})
            elif path == "/readyz":
                if self.bench.queue.draining:
                    self._send_json(503, {"ready": False, "draining": True},
                                    retry_after=5.0)
                else:
                    self._send_json(200, {"ready": True})
            elif path == "/v1/stats":
                self._send_json(200, self.bench.stats_payload())
            elif path.startswith("/v1/jobs/"):
                job = self.bench.queue.job(path[len("/v1/jobs/"):])
                self._send_json(
                    200, job_results_payload(self.bench.queue, job))
            elif path.startswith("/v1/results/"):
                digest = path[len("/v1/results/"):]
                record = self.bench.queue.result(digest)
                if record is None:
                    raise JobNotFoundError(
                        "no acknowledged result for digest %r" % digest)
                self._send_json(200, record)
            else:
                raise JobNotFoundError("no route %r" % path)
        except ServerError as exc:
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        if self._drop_connection_injected():
            return
        path = urlparse(self.path).path.rstrip("/")
        body_read = False
        try:
            if path != "/v1/jobs":
                raise JobNotFoundError("no route %r" % path)
            payload = self._read_json_body()
            body_read = True
            specs_payload = payload.get("specs")
            if not isinstance(specs_payload, list) or not specs_payload:
                raise BadSubmissionError(
                    "submission needs a non-empty 'specs' list")
            try:
                specs = [spec_from_payload(item) for item in specs_payload]
            except (TypeError, ValueError) as exc:
                raise BadSubmissionError("invalid spec: %s" % exc)
            client = payload.get("client") or "anonymous"
            if not isinstance(client, str):
                raise BadSubmissionError("'client' must be a string")
            deadline = payload.get("deadline_seconds")
            if deadline is not None and (
                    not isinstance(deadline, (int, float))
                    or deadline <= 0):
                raise BadSubmissionError(
                    "'deadline_seconds' must be a positive number")
            job = self.bench.queue.submit(client, specs,
                                          deadline_seconds=deadline)
            self._send_json(202, {
                "job_id": job.job_id,
                "state": job.state,
                "n_specs": len(job.digests),
                "digests": job.digests,
                "status_url": "/v1/jobs/%s" % job.job_id,
            })
        except (ServerError, StoreError) as exc:
            if not body_read:
                # Unread body bytes would parse as the next request on
                # this kept-alive connection.
                self.close_connection = True
            self._send_error(exc)

    def _read_json_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise BadSubmissionError("bad Content-Length header")
        if length <= 0:
            raise BadSubmissionError("submission body is empty")
        if length > MAX_BODY_BYTES:
            raise BadSubmissionError(
                "submission of %d bytes exceeds the %d-byte bound"
                % (length, MAX_BODY_BYTES))
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise BadSubmissionError("submission body is not valid JSON")
        if not isinstance(payload, dict):
            raise BadSubmissionError("submission must be a JSON object")
        return payload


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs) -> None:
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()
        #: Set by :meth:`hang_up`: no further request is served.
        self.hung_up = False
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def hang_up(self) -> None:
        """End every open connection once its current request is done.

        Shutting down the read side wakes a handler waiting on an idle
        kept-alive connection (it reads end-of-file and closes), while
        a response being written still goes out whole.  A request read
        after this call is not served (:meth:`_Handler.parse_request`).
        """
        with self._open_lock:
            self.hung_up = True
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer is already gone


class BenchServer:
    """One queue behind one listening socket, with graceful drain.

    ``start()`` spins up the queue's worker thread and a listener
    thread; ``drain()`` implements the SIGTERM contract — stop
    admission (``/readyz`` flips to 503 and ``POST /v1/jobs`` answers
    503 immediately), let the running job finish or checkpoint within
    ``drain_timeout``, and only then close the listener.
    """

    def __init__(self, queue: JobQueue, *, host: str = "127.0.0.1",
                 port: int = 0, drain_timeout: Optional[float] = 30.0,
                 verbose: bool = False) -> None:
        self.queue = queue
        self.drain_timeout = drain_timeout
        self.verbose = verbose
        # The queue's monotonic clock: uptime survives NTP steps.
        self.started_ts = queue._clock()
        self._httpd = _ThreadingServer((host, port), _Handler)
        self._httpd.bench = self  # type: ignore[attr-defined]
        self._listener: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    def url(self, path: str = "/") -> str:
        host, port = self.address
        return "http://%s:%d%s" % (host, port, path)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start worker + listener threads (idempotent)."""
        self.queue.start()
        if self._listener is None:
            self._listener = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="bench-server-listener", daemon=True,
            )
            self._listener.start()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown; True when every queued job completed."""
        timeout = self.drain_timeout if timeout is None else timeout
        # Admission stops and /readyz flips inside queue.drain's first
        # lock acquisition; status polling keeps working while the
        # worker finishes or checkpoints.
        drained = self.queue.drain(timeout)
        self._shutdown_listener()
        return drained

    def stop(self) -> None:
        """Hard stop for tests (no drain, journal kept as-is)."""
        self.queue.stop()
        self._shutdown_listener()

    def _shutdown_listener(self) -> None:
        if self._listener is not None:
            self._httpd.shutdown()
            self._listener.join(timeout=5.0)
            self._listener = None
        self._httpd.server_close()
        # Clients keep connections alive between requests; a stopped
        # server must not go on answering them.
        self._httpd.hang_up()

    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        store_stats = self.queue.store.stats()
        queue_stats = self.queue.stats()
        payload = {
            "uptime_seconds": self.queue._clock() - self.started_ts,
            "queue": vars(queue_stats),
            "router": {
                "routing": bool(getattr(self.queue, "route_specs", False)),
                "tiers": dict(queue_stats.router_tiers),
                "audits": queue_stats.router_audits,
                "audit_failures": queue_stats.router_audit_failures,
            },
            "store": {
                "records": store_stats.records,
                "segments": store_stats.segments,
                "disk_bytes": store_stats.disk_bytes,
                "hits": store_stats.hits,
                "misses": store_stats.misses,
                "puts": store_stats.puts,
            },
        }
        if self.queue.quota is not None:
            payload["quota"] = {
                client: vars(snapshot)
                for client, snapshot in
                self.queue.quota.snapshot().items()
            }
        return payload
