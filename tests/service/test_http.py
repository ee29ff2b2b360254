"""End-to-end over a real socket: HTTP API, SSE stream, error codes."""

import contextlib
import io
import json
import socket
import struct
import threading
import time
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    MappingService,
    QueueFullError,
    ServiceConfig,
    ServiceError,
    connect,
    parse_request,
)
from repro.service import server
from repro.service.server import start_service_in_thread
from tests.service.conftest import MAP_REQUEST


@pytest.fixture
def live(tmp_path):
    """(service, client, stop) over an ephemeral port."""
    config = ServiceConfig(port=0, workers=2,
                           cache=str(tmp_path / "cache"))
    service, url, stop = start_service_in_thread(config)
    try:
        yield service, connect(url)
    finally:
        stop()


def test_submit_wait_and_inspect(live):
    service, client = live
    info = client.submit(dict(MAP_REQUEST))
    assert info.state in ("pending", "running")
    info = client.wait(info.job_id, timeout=60.0)
    assert info.state == "done"
    assert info.result["k"] == MAP_REQUEST["k"]
    assert len(info.result["parts"]) == info.result["n_nodes"]
    assert any(j.job_id == info.job_id for j in client.jobs())

    status = client.status()
    assert status["jobs"]["done"] == 1
    assert "schema" in client.metrics()


def test_repeat_request_is_a_warm_hit_with_identical_body(live):
    _service, client = live
    cold = client.wait(client.submit(dict(MAP_REQUEST)).job_id, 60.0)
    warm = client.wait(client.submit(dict(MAP_REQUEST)).job_id, 60.0)
    assert warm.warm_hit and not cold.warm_hit
    assert warm.result == cold.result


@pytest.fixture
def requests_seen(monkeypatch):
    """Every request the server routes, as ``(method, path)``."""
    seen = []
    route = server._route

    def counting(srv, method, path, body):
        seen.append((method, path.partition("?")[0]))
        return route(srv, method, path, body)

    monkeypatch.setattr(server, "_route", counting)
    return seen


def test_a_memo_hit_costs_one_request(live, requests_seen):
    _service, client = live
    cold = client.wait(client.submit(dict(MAP_REQUEST)).job_id, 60.0)
    requests_seen.clear()
    info = client.submit(dict(MAP_REQUEST))
    assert info.state == "done" and info.warm_hit  # settled by the POST
    assert client.wait(info.job_id, 60.0) is info
    assert info.result == cold.result
    assert requests_seen == [("POST", "/api/v1/jobs")]


def test_a_miss_is_waited_for_without_polling(live, requests_seen, hold_map):
    _service, client = live
    release = hold_map()
    timer = threading.Timer(0.3, release.set)
    timer.start()
    info = client.wait(client.submit(dict(MAP_REQUEST)).job_id, 60.0)
    timer.join()
    assert info.state == "done" and not info.warm_hit
    methods = [method for method, _path in requests_seen]
    assert methods[0] == "POST" and set(methods[1:]) == {"GET"}
    assert len(methods) <= 3


def test_wait_raises_on_its_own_timeout_not_the_servers_cap(live):
    service, client = live
    service.stop()  # no worker: the job stays pending
    job_id = client.submit(dict(MAP_REQUEST)).job_id
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        client.wait(job_id, timeout=0.5)
    assert 0.5 <= time.monotonic() - started < 0.5 + 0.5


def test_parallel_emulate_forks_nothing(live, monkeypatch):
    """A parallel emulate job runs in the handler's worker thread: same
    trace checksum as a sequential one, and no child process started."""
    import multiprocessing.process

    def refuse(self):
        raise AssertionError("an emulate job started a child process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    _service, client = live
    request = {"kind": "emulate", "topology": {"source": "synth",
               "n_routers": 24, "seed": 0}, "app": "none",
               "intensity": "light", "duration": 1.0, "seed": 1}
    results = {}
    for engine in ("sequential", "parallel"):
        info = client.submit(dict(request, engine=engine, k=2))
        info = client.wait(info.job_id, timeout=60.0)
        assert info.state == "done", info.error
        results[engine] = info.result
    assert results["parallel"]["engine"] == "parallel"
    assert results["parallel"]["n_events"] > 0
    assert (results["parallel"]["trace_checksum"]
            == results["sequential"]["trace_checksum"])


def test_bad_request_is_400_and_unknown_job_404(live):
    _service, client = live
    with pytest.raises(ServiceError) as excinfo:
        client.submit({"kind": "massage"})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client.job("job-unknown")
    assert excinfo.value.status == 404


def test_full_queue_answers_429(tmp_path):
    config = ServiceConfig(port=0, workers=1, queue_size=1,
                           cache=str(tmp_path / "cache"))
    service, url, stop = start_service_in_thread(config)
    try:
        service.stop()  # halt the worker; the HTTP layer stays up
        client = connect(url)
        client.submit(dict(MAP_REQUEST))   # fills the queue
        with pytest.raises(QueueFullError):
            client.submit(dict(MAP_REQUEST))
        assert client.status()["jobs"]["rejected"] == 1
    finally:
        stop()


def test_cancel_over_http(tmp_path):
    config = ServiceConfig(port=0, workers=1,
                           cache=str(tmp_path / "cache"))
    service, url, stop = start_service_in_thread(config)
    try:
        service.stop()  # job below stays pending, cancellable
        client = connect(url)
        info = client.submit(dict(MAP_REQUEST))
        assert client.cancel(info.job_id) is True
        assert client.job(info.job_id).state == "cancelled"
    finally:
        stop()


def test_sse_streams_job_lifecycle(live):
    service, client = live

    def _later():
        time.sleep(0.3)
        service.submit(parse_request(dict(MAP_REQUEST)))

    thread = threading.Thread(target=_later, daemon=True)
    thread.start()
    events = client.events(max_events=2, timeout=30.0)
    thread.join()
    assert len(events) == 2
    assert all(e["event"] == "service.jobs" for e in events)
    states = [e["data"]["state"] for e in events]
    assert states[0] == "submitted"
    assert states[1] in ("done", "failed")


# --------------------------------------------------------------------- #
# Raw-socket robustness: malformed, oversized and half-sent input.
# --------------------------------------------------------------------- #
def _exchange(url: str, raw: bytes, *, half_close: bool = True,
              timeout: float = 5.0) -> bytes:
    """Send ``raw`` on a fresh connection; return all bytes read to EOF."""
    split = urlsplit(url)
    with socket.create_connection((split.hostname, split.port),
                                  timeout=timeout) as sock:
        try:
            sock.sendall(raw)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server answered and closed before reading it all
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _response(data: bytes) -> tuple[int, bytes]:
    """(status, body) of one complete HTTP response; asserts completeness.

    A leading ``100 Continue`` (the answer to ``Expect: 100-continue``)
    is skipped.
    """
    if data.startswith(b"HTTP/1.1 100 "):
        data = data.partition(b"\r\n\r\n")[2]
    head, sep, body = data.partition(b"\r\n\r\n")
    assert sep, f"no complete response head in {data[:200]!r}"
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, status, _reason = status_line.split(" ", 2)
    assert version.startswith("HTTP/1.")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    assert len(body) == int(headers["content-length"])
    return int(status), body


@pytest.fixture(scope="module")
def raw_url(tmp_path_factory):
    """A live server whose read timeout is a fraction of a second."""
    cache = tmp_path_factory.mktemp("raw-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server, "READ_TIMEOUT_S", 0.25)
        _service, url, stop = start_service_in_thread(
            ServiceConfig(port=0, workers=1, cache=str(cache)))
        try:
            yield url
        finally:
            stop()


@pytest.mark.parametrize("raw, status", [
    (b"POST /api/v1/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"POST /api/v1/jobs HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n", 413),
    (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    (b"HELLO\r\n\r\n", 400),
], ids=["content-length-abc", "content-length-over-8mib",
        "request-line-over-64kib", "no-method-or-path"])
def test_malformed_input_answers_4xx_json(raw_url, raw, status):
    got, body = _response(_exchange(raw_url, raw))
    assert got == status
    assert isinstance(json.loads(body)["error"], str)


def test_half_sent_request_answers_408(raw_url):
    # The client keeps the connection open but never sends the rest.
    for raw in (
        b"POST /api/v1/jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
        b"GET /api/v1/sta",
    ):
        started = time.monotonic()
        got, body = _response(_exchange(raw_url, raw, half_close=False))
        assert got == 408 and "error" in json.loads(body)
        assert time.monotonic() - started < 3.0


@pytest.mark.parametrize("timeout_s", ['"x"', "NaN", "Infinity", "-1", "[]"])
def test_invalid_timeout_is_400(raw_url, timeout_s):
    # json.loads accepts the NaN and Infinity literals.
    body = json.dumps(MAP_REQUEST)[:-1] + f', "timeout_s": {timeout_s}}}'
    raw = (f"POST /api/v1/jobs HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
           f"\r\n{body}").encode()
    got, payload = _response(_exchange(raw_url, raw))
    assert got == 400
    assert "timeout_s" in json.loads(payload)["error"]


@pytest.mark.parametrize("wait", ["-1", "nan", "inf", "abc", ""])
def test_invalid_wait_is_400(raw_url, wait):
    raw = f"GET /api/v1/jobs/job-1?wait={wait} HTTP/1.1\r\n\r\n".encode()
    got, payload = _response(_exchange(raw_url, raw))
    assert got == 400
    assert "wait" in json.loads(payload)["error"]


def test_wait_on_an_unknown_job_is_404_at_once(raw_url):
    started = time.monotonic()
    got, payload = _response(_exchange(
        raw_url, b"GET /api/v1/jobs/job-unknown?wait=4 HTTP/1.1\r\n\r\n"))
    assert got == 404 and "error" in json.loads(payload)
    assert time.monotonic() - started < 1.0


_LINES = st.sampled_from([
    b"GET /api/v1/status HTTP/1.1", b"POST /api/v1/jobs HTTP/1.1",
    b"DELETE /api/v1/jobs/job-1 HTTP/1.0", b"GET /api/v1/jobs",
    b"PUT / HTTP/2.0", b"GET", b"", b"get /api/v1/metrics HTTP/1.1",
])
_HEADERS = st.lists(st.sampled_from([
    b"Content-Length: 0", b"Content-Length: 12", b"Content-Length: -3",
    b"Content-Length: 99999999", b"Content-Length: x", b"Host: a",
    b"Connection: keep-alive", b"Expect: 100-continue", b"x" * 70_000,
    b"no-colon",
]), max_size=4)
_BODIES = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([b"{}", b"[]", b'"x"', b'{"kind": "map"}',
                     b'{"kind": "map", "timeout_s": NaN}', b"null"]),
)


@st.composite
def _raw_requests(draw):
    if draw(st.booleans()):
        return draw(st.binary(min_size=1, max_size=256))
    head = b"\r\n".join([draw(_LINES), *draw(_HEADERS)])
    return head + b"\r\n\r\n" + draw(_BODIES)


@settings(max_examples=60, deadline=None)
@given(raw=_raw_requests(), half_close=st.booleans())
def test_raw_request_bytes_get_a_complete_answer(raw_url, raw, half_close):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        started = time.monotonic()
        status, _body = _response(
            _exchange(raw_url, raw, half_close=half_close))
        assert time.monotonic() - started < 3.0
    # 505 is the one 5xx that is about the request: an HTTP/2+ version.
    assert status < 500 or status == 505
    assert stderr.getvalue() == ""


def _open_stream(url: str) -> socket.socket:
    """An SSE connection, returned once the server says it is connected."""
    split = urlsplit(url)
    sock = socket.create_connection((split.hostname, split.port), timeout=5)
    sock.sendall(b"GET /api/v1/events HTTP/1.1\r\n\r\n")
    seen = b""
    while b": connected" not in seen:
        chunk = sock.recv(4096)
        assert chunk, "stream closed before it connected"
        seen += chunk
    return sock


def test_stop_is_prompt_with_an_sse_client_connected(tmp_path):
    before = set(threading.enumerate())
    _service, url, stop = start_service_in_thread(ServiceConfig(
        port=0, workers=1, cache=str(tmp_path / "cache")))
    with _open_stream(url) as sock:
        started = time.monotonic()
        stop()
        assert time.monotonic() - started < 1.0
        time.sleep(1.0)
        assert set(threading.enumerate()) - before == set()
        while sock.recv(4096):  # the server closed the stream
            pass


def test_stop_is_prompt_with_a_long_poll_in_flight(tmp_path, requests_seen):
    before = set(threading.enumerate())
    service = MappingService(ServiceConfig(workers=1,
                                           cache=str(tmp_path / "cache")))
    _service, url, stop = start_service_in_thread(ServiceConfig(port=0),
                                                  service=service)
    service.stop()  # no worker, and stop() below leaves the service be
    job_id = connect(url).submit(dict(MAP_REQUEST)).job_id
    split = urlsplit(url)
    with socket.create_connection((split.hostname, split.port),
                                  timeout=5) as sock:
        sock.sendall(f"GET /api/v1/jobs/{job_id}?wait=60 HTTP/1.1\r\n"
                     f"\r\n".encode())
        deadline = time.monotonic() + 5.0
        while ("GET", f"/api/v1/jobs/{job_id}") not in requests_seen:
            assert time.monotonic() < deadline, "the GET never arrived"
            time.sleep(0.005)
        started = time.monotonic()
        stop()
        assert time.monotonic() - started < 1.0
        answer = b""
        while chunk := sock.recv(4096):  # answered as it stands
            answer += chunk
    got, body = _response(answer)
    assert got == 200 and json.loads(body)["state"] == "pending"
    time.sleep(1.0)
    assert set(threading.enumerate()) - before == set()


def test_client_hanging_up_mid_stream_is_quiet(tmp_path):
    service, url, stop = start_service_in_thread(ServiceConfig(
        port=0, workers=1, cache=str(tmp_path / "cache")))
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            idle = threading.active_count()
            sock = _open_stream(url)
            # Close with a reset: the server's next writes fail.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.monotonic() + 5.0
            while (threading.active_count() > idle
                   and time.monotonic() < deadline):
                service.telemetry.event("test.ping", n=1)
                time.sleep(0.05)
            assert threading.active_count() == idle  # the stream ended
    finally:
        stop()
    assert stderr.getvalue() == ""
