"""Live serving from a ring: /v1/live/latest, healthz ring state, transport."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.bus import IngestDaemon, SyntheticSource, list_segments
from repro.serve import ServeApp, make_async_server


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(f"{base}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_serve_validates_transport(tmp_path):
    with pytest.raises(ValueError, match="transport"):
        ServeApp(state_dir=str(tmp_path), transport="carrier-pigeon")


def test_serve_rejects_malformed_source(tmp_path):
    with pytest.raises(ValueError, match="ring URL"):
        ServeApp(state_dir=str(tmp_path), source="http://nope")


def test_healthz_reports_transport_without_ring(tmp_path):
    app = ServeApp(state_dir=str(tmp_path), workers=1, transport="shm")
    payload = app.health_payload()
    assert payload["transport"] == "shm"
    assert "ring" not in payload
    status, body = app.live_payload()
    assert status == 404


def test_live_latest_and_healthz_ring_state(tmp_path):
    ring_name = f"serve-live-{time.monotonic_ns() % 10**9}"
    src = SyntheticSource(dataset="luis", size=40, n_frames=4, seed=0)
    daemon = IngestDaemon(ring_name, src, capacity=8, linger_seconds=8.0)
    publisher = threading.Thread(target=daemon.run)

    app = ServeApp(
        state_dir=str(tmp_path),
        workers=1,
        transport="pickle",
        source=f"ring://{ring_name}",
        live_config=src.config,
    )
    app.start()
    server = make_async_server(app)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        # Before the publisher exists: waiting, not an error.
        status, body = _get(base, "/v1/live/latest")
        assert status in (202, 200)

        publisher.start()
        deadline = time.monotonic() + 60
        body = None
        while time.monotonic() < deadline:
            status, body = _get(base, "/v1/live/latest")
            if status == 200 and body["pair"] == 2:  # 4 frames -> 3 pairs
                break
            time.sleep(0.1)
        assert status == 200 and body["pair"] == 2
        assert body["shape"] == [40, 40]
        assert body["metadata"]["source"] == f"ring://{ring_name}"

        status, health = _get(base, "/healthz")
        assert health["transport"] == "pickle"
        assert health["ring"]["ring"] == ring_name
        # attached flips False once the consumer drains the closed ring;
        # either way the attach state must be reported, without error.
        assert health["ring"]["attached"] in (True, False)
        assert health["ring"]["error"] is None
        assert health["ring"]["pairs"] >= 1
    finally:
        daemon.stop()
        publisher.join(timeout=30)
        app.drain(timeout=30)
        server.shutdown()
        server.server_close()
    assert ring_name not in list_segments()


def test_live_consumer_attach_failure_surfaces_on_healthz(tmp_path):
    app = ServeApp(
        state_dir=str(tmp_path),
        workers=1,
        source="ring://never-created",
    )
    app.live.attach_timeout = 0.2
    app.start()
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            state = app.live.state()
            if state["error"]:
                break
            time.sleep(0.05)
        assert "never-created" in state["error"]
        status, body = app.live_payload()
        assert status == 503
    finally:
        app.drain(timeout=10)
