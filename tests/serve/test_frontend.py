"""AsyncFrontend: the asyncio HTTP surface over the shared route().

The contract under test: the event-loop frontend serves exactly what
``route()`` answers -- byte-identical JSON, the 429 backpressure and
load-shed semantics, the Prometheus content negotiation -- while
multiplexing many concurrent keep-alive clients on one loop.
"""

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.frontend import make_async_server
from repro.serve.http import ServeApp, route

SIZE = 48
DEADLINE = 120.0


@pytest.fixture
def server(tmp_path):
    app = ServeApp(str(tmp_path / "state"), workers=1, queue_depth=8).start()
    httpd = make_async_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield app, httpd
    finally:
        app.drain(timeout=DEADLINE)
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _conn(httpd):
    return http.client.HTTPConnection(
        "127.0.0.1", httpd.server_address[1], timeout=30
    )


def _request(httpd, method, path, payload=None, headers=None):
    conn = _conn(httpd)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _wait_done(httpd, job_id, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, _, body = _request(httpd, "GET", f"/v1/jobs/{job_id}")
        job = json.loads(body)
        if job["state"] in ("done", "dead"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestApiParity:
    def test_submit_poll_product_round_trip(self, server):
        app, httpd = server
        status, _, body = _request(
            httpd, "POST", "/v1/jobs", {"dataset": "florida", "size": SIZE}
        )
        assert status == 202
        accepted = json.loads(body)
        assert accepted["deduplicated"] is False
        done = _wait_done(httpd, accepted["id"])
        assert done["state"] == "done"
        status, _, body = _request(httpd, "GET", f"/v1/products/{accepted['id']}")
        assert status == 200
        assert json.loads(body)["wind"]["mean_speed_ms"] >= 0

    def test_responses_byte_identical_to_route(self, server):
        """The frontend serves route() verbatim -- same bytes, headers."""
        app, httpd = server
        for method, path in (
            ("GET", "/healthz"),
            ("GET", "/v1/jobs/job-999999"),
            ("GET", "/v1/nope"),
        ):
            direct_status, direct_body, direct_type, _ = route(app, method, path)
            status, headers, body = _request(httpd, method, path)
            assert (status, body) == (direct_status, direct_body)
            assert headers["Content-Type"] == direct_type

    def test_bad_json_is_400(self, server):
        _, httpd = server
        conn = _conn(httpd)
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_method_not_allowed_is_405(self, server):
        _, httpd = server
        status, _, _ = _request(httpd, "DELETE", "/v1/jobs")
        assert status == 405

    def test_prometheus_content_negotiation(self, server):
        _, httpd = server
        status, headers, body = _request(
            httpd, "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"# TYPE" in body
        status, headers, body = _request(httpd, "GET", "/metrics")
        assert headers["Content-Type"] == "application/json"
        json.loads(body)


class TestBackpressureParity:
    def test_queue_full_gets_429_with_retry_hint(self, server):
        app, httpd = server
        app.pool.pause()
        try:
            last = None
            for seed in range(app.queue.max_depth + app.pool.workers + 1):
                last = _request(
                    httpd, "POST", "/v1/jobs",
                    {"dataset": "florida", "size": SIZE, "seed": seed},
                )
                if last[0] == 429:
                    break
            status, headers, body = last
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert "retry" in json.loads(body)["error"].lower()
        finally:
            app.pool.resume()

    def test_load_shed_429_names_the_admission_bar(self, tmp_path):
        app = ServeApp(
            str(tmp_path / "shed"), workers=0, queue_depth=4, shed_watermark=0.5
        ).start()
        httpd = make_async_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            for seed in range(3):
                status, _, _ = _request(
                    httpd, "POST", "/v1/jobs",
                    {"dataset": "florida", "size": SIZE, "seed": seed, "priority": 5},
                )
                assert status == 202
            status, headers, body = _request(
                httpd, "POST", "/v1/jobs",
                {"dataset": "florida", "size": SIZE, "seed": 99, "priority": 0},
            )
            assert status == 429
            refused = json.loads(body)
            assert refused["shed"] is True
            assert refused["admission_threshold"] == 5
            assert float(headers["Retry-After"]) > 0
        finally:
            # No workers: the queued jobs can never finish, so do not wait.
            drained = app.drain(timeout=0)
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
        assert drained is False


class TestConcurrency:
    def test_many_parallel_clients_multiplex(self, server):
        _, httpd = server

        def probe(i):
            status, _, body = _request(httpd, "GET", "/healthz")
            return status, json.loads(body)["status"]

        with ThreadPoolExecutor(max_workers=32) as pool:
            results = list(pool.map(probe, range(64)))
        assert all(status == 200 for status, _ in results)

    def test_keep_alive_serves_many_requests_per_connection(self, server):
        _, httpd = server
        conn = _conn(httpd)
        try:
            for _ in range(5):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.getheader("Connection") == "keep-alive"
                resp.read()  # drain so the connection can be reused
        finally:
            conn.close()

    def test_connection_close_honored(self, server):
        _, httpd = server
        status, headers, _ = _request(
            httpd, "GET", "/healthz", headers={"Connection": "close"}
        )
        assert status == 200
        assert headers["Connection"] == "close"

    def test_garbage_request_line_does_not_kill_server(self, server):
        _, httpd = server
        with socket.create_connection(
            ("127.0.0.1", httpd.server_address[1]), timeout=5
        ) as sock:
            sock.sendall(b"\x00\xff garbage\r\n\r\n")
        status, _, _ = _request(httpd, "GET", "/healthz")
        assert status == 200

    def test_oversized_body_is_refused(self, server):
        from repro.serve.frontend import MAX_BODY_BYTES

        _, httpd = server
        conn = _conn(httpd)
        try:
            conn.request(
                "POST", "/v1/jobs", headers={"Content-Length": str(MAX_BODY_BYTES + 1)}
            )
            # The frontend drops the connection instead of reading an
            # unbounded body; either an empty response or a reset is fine.
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.getresponse()
        finally:
            conn.close()


def _read_raw_response(stream):
    """(status line, headers, body) of one response off a socket file."""
    status_line = stream.readline().decode("latin-1").strip()
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status_line, headers, body


@pytest.fixture
def spied_server(tmp_path):
    """A frontend whose connection handler records each accepted
    socket and every ``writer.write`` payload."""
    app = ServeApp(str(tmp_path / "state"), workers=0, queue_depth=4).start()
    httpd = make_async_server(app, "127.0.0.1", 0)
    sockets, writes = [], []
    handle = httpd._handle_client

    async def spying(reader, writer):
        sockets.append(writer.get_extra_info("socket"))
        write = writer.write

        def recording_write(data):
            writes.append(bytes(data))
            write(data)

        writer.write = recording_write
        await handle(reader, writer)

    httpd._handle_client = spying
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd, sockets, writes
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        app.drain(timeout=DEADLINE)


class TestWarmPath:
    def test_accepted_socket_has_nodelay(self, spied_server):
        httpd, sockets, _ = spied_server
        conn = _conn(httpd)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            assert resp.getheader("Connection") == "keep-alive"
            # Still open: read the option off the live server-side socket.
            (server_sock,) = sockets
            nodelay = server_sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert nodelay != 0
        finally:
            conn.close()

    def test_each_response_is_one_write(self, spied_server):
        httpd, _, writes = spied_server
        conn = _conn(httpd)
        bodies = []
        try:
            for path in ("/healthz", "/v1/jobs/job-999999", "/metrics"):
                conn.request("GET", path)
                resp = conn.getresponse()
                bodies.append(resp.read())
        finally:
            conn.close()
        assert len(writes) == len(bodies)
        for data, body in zip(writes, bodies):
            assert data.startswith(b"HTTP/1.1 ")
            assert data.endswith(b"\r\n\r\n" + body)


class TestHttp10:
    def test_http10_without_keep_alive_closes(self, server):
        _, httpd = server
        with socket.create_connection(
            ("127.0.0.1", httpd.server_address[1]), timeout=30
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            stream = sock.makefile("rb")
            status_line, headers, body = _read_raw_response(stream)
            assert status_line.startswith("HTTP/1.1 200")
            assert headers["connection"] == "close"
            assert json.loads(body)["status"] == "ok"
            assert stream.read() == b""  # the server closed the socket

    def test_http10_keep_alive_is_honored(self, server):
        _, httpd = server
        with socket.create_connection(
            ("127.0.0.1", httpd.server_address[1]), timeout=30
        ) as sock:
            stream = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(
                    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
                )
                _, headers, body = _read_raw_response(stream)
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["status"] == "ok"


class TestLifecycle:
    def test_shutdown_unblocks_serve_forever(self, tmp_path):
        app = ServeApp(str(tmp_path / "state"), workers=0, queue_depth=4).start()
        httpd = make_async_server(app, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        _request(httpd, "GET", "/healthz")
        httpd.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        httpd.server_close()
        app.drain(timeout=DEADLINE)

    def test_server_address_readable_before_serving(self, tmp_path):
        app = ServeApp(str(tmp_path / "state"), workers=0, queue_depth=4)
        httpd = make_async_server(app, "127.0.0.1", 0)
        host, port = httpd.server_address
        assert host == "127.0.0.1" and port > 0
        httpd.server_close()
        app.drain(timeout=DEADLINE)
