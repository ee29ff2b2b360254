"""JSON-over-HTTP front end on the stdlib ``http.server``.

One thread per connection (``ThreadingHTTPServer``), one request per
connection, JSON in and out (no framework, no new dependencies).  The
stdlib parses the request line and headers; anything it rejects, and
every error answered here, carries a JSON ``{"error": ...}`` body.  Job
execution happens on the service's worker threads, so a slow job never
blocks status polls or other submissions.

Endpoints (all under ``/api/v1``):

- ``POST /api/v1/jobs`` — submit; body is a request document (see
  :mod:`repro.service.requests`) plus optional ``"timeout_s"``.  Returns
  202 with the job, or **429** when the bounded queue is full.  An exact
  repeat of a request already answered comes back settled (``done``,
  ``warm_hit``) in this one answer, whatever the queue holds.
- ``GET /api/v1/jobs`` — every known job, submission order.
- ``GET /api/v1/jobs/<id>`` — one job (404 unknown).  With
  ``?wait=<seconds>`` (finite, >= 0, else 400) the answer is held until
  the job settles, the wait elapses (capped at :data:`MAX_WAIT_S`) or
  the server stops: a long-poll, so a client waits without polling.
- ``DELETE /api/v1/jobs/<id>`` — request cancellation.
- ``GET /api/v1/status`` — queue depth, counters, warm/disk stats.
- ``GET /api/v1/metrics`` — the full telemetry snapshot
  (:meth:`repro.obs.telemetry.Telemetry.to_dict`).
- ``GET /api/v1/events`` — **SSE** stream; each telemetry event row is
  one ``event: <series>`` / ``data: <row JSON>`` message (the
  ``service.jobs`` series carries the job lifecycle).

A request that is not complete within :data:`READ_TIMEOUT_S` is
answered 408 and its connection closed.
"""

from __future__ import annotations

import contextlib
import json
import math
import queue
import socket
import socketserver
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs

from repro.service.core import MappingService, ServiceConfig
from repro.service.jobs import QueueFullError
from repro.service.requests import parse_request

__all__ = ["serve", "start_service_in_thread"]

_MAX_BODY = 8 * 1024 * 1024
_MAX_LINE = 64 * 1024

#: Seconds a connection may take to deliver each part of its request
#: (request line, headers, body) before it is answered 408.
READ_TIMEOUT_S = 10.0

#: Seconds between SSE keepalive comments on a quiet stream.
_KEEPALIVE_S = 15.0

#: Longest ``?wait=`` a job GET holds its answer for.
MAX_WAIT_S = 5.0


def _seconds(value, name: str = "timeout_s") -> float | None:
    """Validate a duration parameter: absent, or finite and >= 0."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError(
            f"{name} must be a finite number >= 0, not {value!r}"
        )
    return seconds


def _await(job, seconds: float, stopping: threading.Event) -> None:
    """Block until ``job`` settles, ``seconds`` pass or ``stopping`` is
    set (looked at every 0.1 s)."""
    deadline = time.monotonic() + min(seconds, MAX_WAIT_S)
    while not stopping.is_set():
        remaining = deadline - time.monotonic()
        if remaining <= 0 or job.wait(min(remaining, 0.1)):
            return


def _route(server: "_Server", method: str, path: str, body: bytes):
    """Dispatch one non-streaming request → (status, body-dict)."""
    service = server.service
    route, _, query = path.partition("?")
    parts = [p for p in route.split("/") if p]
    if len(parts) < 2 or parts[0] != "api" or parts[1] != "v1":
        return 404, {"error": f"unknown path {path!r}"}
    tail = parts[2:]

    if tail == ["jobs"] and method == "POST":
        try:
            data = json.loads(body.decode("utf-8") or "{}")
            request = parse_request(data)
            timeout_s = _seconds(data.get("timeout_s"))
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        try:
            job = service.submit(request, timeout_s=timeout_s)
        except QueueFullError as exc:
            return 429, {"error": str(exc), "queue_depth": service.queue.depth}
        return 202, job.info().to_dict()

    if tail == ["jobs"] and method == "GET":
        return 200, {"jobs": [j.info().to_dict() for j in service.queue.jobs()]}

    if len(tail) == 2 and tail[0] == "jobs":
        asked = parse_qs(query, keep_blank_values=True).get("wait", [None])
        try:
            wait = _seconds(asked[-1], "wait")
        except ValueError as exc:
            return 400, {"error": str(exc)}
        job = service.job(tail[1])
        if job is None:
            return 404, {"error": f"unknown job {tail[1]!r}"}
        if method == "GET":
            if wait:
                _await(job, wait, server.stopping)
            return 200, job.info().to_dict()
        if method == "DELETE":
            return 200, {
                "job_id": job.job_id, "cancelled": service.cancel(job.job_id),
            }
        return 405, {"error": f"{method} not allowed"}

    if tail == ["status"] and method == "GET":
        return 200, service.status()
    if tail == ["metrics"] and method == "GET":
        return 200, service.telemetry.to_dict()
    return 404, {"error": f"unknown path {path!r}"}


class _Server(ThreadingHTTPServer):
    """The listener: a service, the open SSE streams, a stop flag."""

    def __init__(self, address, service: MappingService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.stopping = threading.Event()
        self.streams: set[queue.Queue] = set()
        self.streams_lock = threading.Lock()

    def server_bind(self) -> None:
        # HTTPServer.server_bind adds a reverse-DNS lookup (getfqdn) for
        # a server name nothing here reads.
        socketserver.TCPServer.server_bind(self)

    def serve_until_stopped(self) -> None:
        """Accept loop; :meth:`stop` wakes it without a poll interval."""
        while not self.stopping.is_set():
            try:
                request, address = self.get_request()
            except OSError:  # the listening socket was shut down
                continue
            self.process_request(request, address)

    def stop(self) -> None:
        self.stopping.set()
        with self.streams_lock:
            for stream in self.streams:
                stream.put(None)
        # Wakes the accept loop: its blocking accept() fails.
        with contextlib.suppress(OSError):
            self.socket.shutdown(socket.SHUT_RDWR)


class _Handler(BaseHTTPRequestHandler):
    server: _Server
    protocol_version = "HTTP/1.1"
    # Answer malformed and version-less requests with a full status line
    # (the stdlib's HTTP/0.9 default sends a bare body).
    default_request_version = "HTTP/1.0"
    request_version = default_request_version
    requestline = ""

    def setup(self) -> None:
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def log_message(self, format, *args) -> None:
        """Quiet: the service reports through telemetry, not stderr."""

    def handle_one_request(self) -> None:
        """The stdlib's version, except that every method goes through
        :func:`_route` and a read timeout is answered 408, not dropped."""
        try:
            self.raw_requestline = self.rfile.readline(_MAX_LINE + 1)
            if not self.raw_requestline:
                self.close_connection = True
            elif len(self.raw_requestline) > _MAX_LINE:
                self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            elif self.parse_request():
                self._answer()
            elif not self.requestline.split():
                # parse_request drops a blank request line unanswered.
                self.send_error(HTTPStatus.BAD_REQUEST, "empty request line")
        except TimeoutError:
            self.send_error(
                HTTPStatus.REQUEST_TIMEOUT,
                f"request incomplete after {READ_TIMEOUT_S:g}s",
            )
        except ConnectionError:
            self.close_connection = True

    def send_error(self, code, message=None, explain=None) -> None:
        self._send_json(code, {"error": message or HTTPStatus(code).phrase})

    def _send_json(self, status: int, body: dict | list) -> None:
        payload = json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(payload)
        except OSError:  # the client hung up or stopped reading
            self.close_connection = True

    def _read_body(self) -> bytes | None:
        """The request body, or None once an error has been answered."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.send_error(HTTPStatus.BAD_REQUEST, "bad Content-Length")
            return None
        if length > _MAX_BODY:
            self.send_error(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                f"body over {_MAX_BODY} bytes",
            )
            return None
        body = self.rfile.read(length)
        if len(body) < length:
            self.send_error(
                HTTPStatus.BAD_REQUEST, "body shorter than its Content-Length"
            )
            return None
        return body

    def _answer(self) -> None:
        method = self.command.upper()
        if self.path.split("?", 1)[0] == "/api/v1/events" and method == "GET":
            self._stream_events()
            return
        body = self._read_body()
        if body is None:
            return
        try:
            status, payload = _route(self.server, method, self.path, body)
        except Exception as exc:  # noqa: BLE001 — connection must answer
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._send_json(status, payload)

    def _stream_events(self) -> None:
        """Relay telemetry events onto this connection until it drops or
        the server stops (a ``None`` on the queue)."""
        events: queue.Queue = queue.Queue()
        unsubscribe = self.server.service.telemetry.subscribe(
            lambda series, row: events.put((series, row))
        )
        with self.server.streams_lock:
            self.server.streams.add(events)
        self.close_connection = True
        try:
            if self.server.stopping.is_set():
                return
            self.send_response(HTTPStatus.OK)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(b": connected\n\n")
            while True:
                try:
                    item = events.get(timeout=_KEEPALIVE_S)
                except queue.Empty:
                    message = b": keepalive\n\n"
                else:
                    if item is None:
                        return
                    series, row = item
                    message = (
                        f"event: {series}\ndata: {json.dumps(row)}\n\n"
                    ).encode("utf-8")
                self.wfile.write(message)
        except OSError:  # the client hung up or stopped reading
            pass
        finally:
            unsubscribe()
            with self.server.streams_lock:
                self.server.streams.discard(events)


def serve(
    config: ServiceConfig | None = None,
    *,
    service: MappingService | None = None,
    log: Callable[[str], None] | None = None,
) -> None:
    """Run the service until interrupted (the ``massf serve`` entry)."""
    config = config or ServiceConfig()
    own = service is None
    service = service or MappingService(config)
    server = _Server((config.host, config.port), service)
    service.start()
    if log is not None:
        log(
            f"massf service on http://{config.host}:{config.port} "
            f"({config.workers} workers, queue {config.queue_size})"
        )
    try:
        server.serve_until_stopped()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        server.server_close()
        if own:
            service.stop()


def start_service_in_thread(
    config: ServiceConfig | None = None,
    *,
    service: MappingService | None = None,
) -> tuple[MappingService, str, Callable[[], None]]:
    """Boot a real server on a background thread (tests / benchmarks).

    Binds ``config.port`` (use ``0`` for an ephemeral port) and returns
    ``(service, base_url, stop)``; ``stop()`` shuts down the listener,
    ends open SSE streams and stops the service's workers.
    """
    config = config or ServiceConfig(port=0)
    own = service is None
    service = service or MappingService(config)
    server = _Server((config.host, config.port), service)
    service.start()
    thread = threading.Thread(
        target=server.serve_until_stopped, name="massf-http", daemon=True
    )
    thread.start()

    def stop() -> None:
        server.stop()
        thread.join(5.0)
        server.server_close()
        if own:
            service.stop()

    host, port = server.server_address[:2]
    return service, f"http://{host}:{port}", stop
