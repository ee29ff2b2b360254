"""JSON-over-HTTP front end: stdlib ``asyncio.start_server`` only.

A deliberately small HTTP/1.1 loop (no framework, no new dependencies):
one coroutine per connection, requests parsed by hand, responses JSON.
Job execution happens on the service's worker threads; the event loop
only ever shuffles bytes, so a slow job never blocks status polls or
other submissions.

Endpoints (all under ``/api/v1``):

- ``POST /api/v1/jobs`` — submit; body is a request document (see
  :mod:`repro.service.requests`) plus optional ``"timeout_s"``.  Returns
  202 with the job id, or **429** when the bounded queue is full.
- ``GET /api/v1/jobs`` — every known job, submission order.
- ``GET /api/v1/jobs/<id>`` — one job (404 unknown).
- ``DELETE /api/v1/jobs/<id>`` — request cancellation.
- ``GET /api/v1/status`` — queue depth, counters, warm/disk stats.
- ``GET /api/v1/metrics`` — the full telemetry snapshot
  (:meth:`repro.obs.telemetry.Telemetry.to_dict`).
- ``GET /api/v1/events`` — **SSE** stream; each telemetry event row is
  one ``event: <series>`` / ``data: <row JSON>`` message (the
  ``service.jobs`` series carries the job lifecycle).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Callable

from repro.service.core import MappingService, ServiceConfig
from repro.service.jobs import QueueFullError
from repro.service.requests import parse_request

__all__ = ["serve", "start_service_in_thread"]

_MAX_BODY = 8 * 1024 * 1024


def _response(
    status: int,
    body: dict | list,
    *,
    reason: str | None = None,
) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    reason = reason or {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 429: "Too Many Requests",
        500: "Internal Server Error",
    }.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("ascii")
    return head + payload


async def _read_request(reader) -> tuple[str, str, dict, bytes] | None:
    """Parse one request; None on EOF / malformed input."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("ascii").split()
    except ValueError:
        return None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if length < 0 or length > _MAX_BODY:
        return None
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _stream_events(service: MappingService, writer) -> None:
    """Bridge telemetry events onto one SSE connection until it drops."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()

    def _listener(series: str, row: dict) -> None:
        # Called from worker threads — hop onto the loop thread-safely.
        loop.call_soon_threadsafe(queue.put_nowait, (series, row))

    unsubscribe = service.telemetry.subscribe(_listener)
    try:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        writer.write(b": connected\n\n")
        await writer.drain()
        while True:
            try:
                series, row = await asyncio.wait_for(
                    queue.get(), timeout=15.0
                )
                message = (
                    f"event: {series}\ndata: {json.dumps(row)}\n\n"
                ).encode("utf-8")
            except asyncio.TimeoutError:
                message = b": keepalive\n\n"
            writer.write(message)
            await writer.drain()
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        unsubscribe()


def _route(service: MappingService, method: str, path: str, body: bytes):
    """Dispatch one non-streaming request → (status, body-dict)."""
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    if len(parts) < 2 or parts[0] != "api" or parts[1] != "v1":
        return 404, {"error": f"unknown path {path!r}"}
    tail = parts[2:]

    if tail == ["jobs"] and method == "POST":
        try:
            data = json.loads(body.decode("utf-8") or "{}")
            timeout_s = data.pop("timeout_s", None)
            request = parse_request(data)
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        try:
            job = service.submit(
                request,
                timeout_s=None if timeout_s is None else float(timeout_s),
            )
        except QueueFullError as exc:
            return 429, {"error": str(exc), "queue_depth": service.queue.depth}
        return 202, job.info().to_dict()

    if tail == ["jobs"] and method == "GET":
        return 200, {"jobs": [j.info().to_dict() for j in service.queue.jobs()]}

    if len(tail) == 2 and tail[0] == "jobs":
        job = service.job(tail[1])
        if job is None:
            return 404, {"error": f"unknown job {tail[1]!r}"}
        if method == "GET":
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


async def _handle_connection(service: MappingService, reader, writer):
    try:
        parsed = await _read_request(reader)
        if parsed is None:
            return
        method, path, _headers, body = parsed
        if path.split("?", 1)[0] == "/api/v1/events" and method == "GET":
            await _stream_events(service, writer)
            return
        try:
            status, payload = _route(service, method, path, body)
        except Exception as exc:  # noqa: BLE001 — connection must answer
            status, payload = 500, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        writer.write(_response(status, payload))
        await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _serve_async(
    service: MappingService,
    *,
    host: str,
    port: int,
    ready: "threading.Event | None" = None,
    bound: dict | None = None,
    stop_event: "asyncio.Event | None" = None,
) -> None:
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port
    )
    sock = server.sockets[0].getsockname()
    if bound is not None:
        bound["host"], bound["port"] = sock[0], sock[1]
    if ready is not None:
        ready.set()
    async with server:
        if stop_event is None:
            await server.serve_forever()
        else:
            await stop_event.wait()


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
    service.start()
    if log is not None:
        log(
            f"massf service on http://{config.host}:{config.port} "
            f"({config.workers} workers, queue {config.queue_size})"
        )
    try:
        asyncio.run(
            _serve_async(service, host=config.host, port=config.port)
        )
    except KeyboardInterrupt:
        pass
    finally:
        if own:
            service.stop()


def start_service_in_thread(
    config: ServiceConfig | None = None,
    *,
    service: MappingService | None = None,
) -> tuple[MappingService, str, Callable[[], None]]:
    """Boot a real server on a background thread (tests / benchmarks).

    Binds ``config.port`` (use ``0`` for an ephemeral port) and returns
    ``(service, base_url, stop)``; ``stop()`` shuts down the listener
    and the service's workers.
    """
    config = config or ServiceConfig(port=0)
    own = service is None
    service = service or MappingService(config)
    service.start()
    ready = threading.Event()
    bound: dict = {}
    loop_holder: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop_event = asyncio.Event()
        loop_holder["loop"], loop_holder["stop"] = loop, stop_event
        try:
            loop.run_until_complete(_serve_async(
                service, host=config.host, port=config.port,
                ready=ready, bound=bound, stop_event=stop_event,
            ))
        finally:
            # Drain lingering connection/SSE tasks before closing the
            # loop, else they die noisily on "Event loop is closed".
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=_run, name="massf-http", daemon=True)
    thread.start()
    if not ready.wait(10.0):
        raise RuntimeError("service failed to bind within 10s")

    def stop() -> None:
        loop = loop_holder.get("loop")
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop_holder["stop"].set)
        thread.join(5.0)
        if own:
            service.stop()

    base_url = f"http://{bound['host']}:{bound['port']}"
    return service, base_url, stop
