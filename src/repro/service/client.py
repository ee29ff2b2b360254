"""Blocking Python client for the mapping service (stdlib ``http.client``).

The CLI's ``massf submit`` / ``massf jobs`` subcommands and the bench
driver both talk through :class:`ServiceClient`; tests use it against
:func:`repro.service.server.start_service_in_thread`.

    client = connect("http://127.0.0.1:8351")
    info = client.submit({"kind": "map", "topology": {...}, "k": 4})
    info = client.wait(info.job_id, timeout=60)
    print(info.state, info.result)

A repeat of a request the service has already answered comes back
settled from ``submit``, and ``wait`` then returns it without another
request.  Otherwise ``wait`` long-polls (``GET /api/v1/jobs/<id>?wait=``):
each request is answered when the job settles, not on a poll interval.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit

from repro.service.jobs import QueueFullError
from repro.service.requests import JobInfo

__all__ = ["ServiceClient", "ServiceError", "connect"]

_TERMINAL = ("done", "failed", "cancelled")


class ServiceError(RuntimeError):
    """Non-2xx answer from the service (`.status` carries the code)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)


class ServiceClient:
    """One service endpoint; connections are per-call (the server closes
    after each response)."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        split = urlsplit(base_url if "//" in base_url else f"//{base_url}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 8351
        self.timeout = float(timeout)
        self._settled: JobInfo | None = None  # last submit, if settled

    # ------------------------------------------------------------------ #
    def _call(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8") or "{}")
            if response.status == 429:
                raise QueueFullError(data.get("error", "queue full"))
            if response.status >= 400:
                raise ServiceError(
                    response.status, data.get("error", "request failed")
                )
            return data
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    def submit(self, request: dict, timeout_s: float | None = None) -> JobInfo:
        """Submit a request document; raises
        :class:`~repro.service.jobs.QueueFullError` on backpressure."""
        body = dict(request)
        if timeout_s is not None:
            body["timeout_s"] = float(timeout_s)
        info = JobInfo.from_dict(self._call("POST", "/api/v1/jobs", body))
        self._settled = info if info.state in _TERMINAL else None
        return info

    def job(self, job_id: str) -> JobInfo:
        return JobInfo.from_dict(self._call("GET", f"/api/v1/jobs/{job_id}"))

    def jobs(self) -> list[JobInfo]:
        data = self._call("GET", "/api/v1/jobs")
        return [JobInfo.from_dict(j) for j in data.get("jobs", [])]

    def cancel(self, job_id: str) -> bool:
        data = self._call("DELETE", f"/api/v1/jobs/{job_id}")
        return bool(data.get("cancelled"))

    def status(self) -> dict:
        return self._call("GET", "/api/v1/status")

    def metrics(self) -> dict:
        return self._call("GET", "/api/v1/metrics")

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll_s: float = 0.05,
    ) -> JobInfo:
        """Block until the job settles; raises TimeoutError otherwise.

        The job the last :meth:`submit` got back settled is returned as
        it is (a settled job never changes).  Any other is long-polled:
        each GET asks the server to hold its answer for what is left of
        ``timeout``, but never for the whole socket timeout.  ``poll_s``
        is unused; it stays until the callers that pass it drop it.
        """
        settled = self._settled
        if settled is not None and settled.job_id == job_id:
            return settled
        deadline = time.monotonic() + timeout
        # Leave the server's answer time to arrive inside the socket
        # timeout.
        longest = max(self.timeout / 2, self.timeout - 1.0)
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            info = JobInfo.from_dict(self._call(
                "GET",
                f"/api/v1/jobs/{job_id}?wait={min(remaining, longest):.3f}",
            ))
            if info.state in _TERMINAL:
                return info
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {info.state} after {timeout:.1f}s"
                )

    def events(self, max_events: int, timeout: float = 10.0) -> list[dict]:
        """Read up to ``max_events`` SSE messages (smoke-test helper)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        out: list[dict] = []
        try:
            conn.request("GET", "/api/v1/events")
            response = conn.getresponse()
            event: dict = {}
            deadline = time.monotonic() + timeout
            while len(out) < max_events and time.monotonic() < deadline:
                try:
                    line = response.fp.readline()
                except (TimeoutError, OSError):
                    break  # quiet stream — return what we have
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event:"):
                    event["event"] = text[6:].strip()
                elif text.startswith("data:"):
                    event["data"] = json.loads(text[5:].strip())
                elif not text and event:
                    out.append(event)
                    event = {}
        finally:
            conn.close()
        return out


def connect(base_url: str, *, timeout: float = 30.0) -> ServiceClient:
    """Open a client for ``base_url`` (e.g. ``http://127.0.0.1:8351``)."""
    return ServiceClient(base_url, timeout=timeout)
