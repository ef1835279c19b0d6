"""End-to-end serving acceptance: real HTTP against a loopback server.

Boots the serving stack on an ephemeral loopback port and exercises
the ISSUE-4 acceptance contract over the wire:

* two identical jobs + one distinct job -- the duplicate is served
  from the content-addressed result cache (the cache-hit counter
  increments and the server-wide CostLedger records **no second GE
  solve**),
* the served raw field is bit-identical to a local ``track_dense``,
* queue-full submissions get a 429-style backpressure response with a
  ``Retry-After`` hint,
* malformed and fault-injecting payloads get 400s, never a dead server.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.matching import prepare_frames, track_dense
from repro.data.datasets import florida_thunderstorm
from repro.obs.metrics import METRICS
from repro.serve.frontend import make_async_server
from repro.serve.http import ServeApp

SIZE = 48
DEADLINE = 120.0


@pytest.fixture
def server(tmp_path):
    app = ServeApp(str(tmp_path / "state"), workers=1, queue_depth=4).start()
    httpd = make_async_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        yield app, base
    finally:
        app.drain(timeout=DEADLINE)
        httpd.shutdown()
        httpd.server_close()
        thread.join()


def _request(base, path, payload=None):
    """(status, headers, body-bytes) without raising on 4xx/5xx."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(base + path, data=data)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _submit(base, payload):
    status, _, body = _request(base, "/v1/jobs", payload)
    return status, json.loads(body)


def _wait_done(base, job_id, deadline=DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, _, body = _request(base, f"/v1/jobs/{job_id}")
        job = json.loads(body)
        if job["state"] in ("done", "dead"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestServingAcceptance:
    def test_duplicate_served_from_cache_and_field_bit_identical(self, server):
        app, base = server
        payload = {"dataset": "florida", "size": SIZE}

        status, first = _submit(base, payload)
        assert status == 202 and first["deduplicated"] is False
        assert _wait_done(base, first["id"])["state"] == "done"

        hits_before = METRICS.counter("serve.cache.hit")
        _, _, metrics_body = _request(base, "/metrics")
        solves_before = json.loads(metrics_body)["ledger"]["gaussian_eliminations"]
        assert solves_before > 0  # the first job really computed

        # Identical resubmission: a NEW job (the first completed, so no
        # queue-level dedup) that must be served from the result cache.
        status, dup = _submit(base, payload)
        assert status == 202 and dup["id"] != first["id"]
        dup_job = _wait_done(base, dup["id"])
        assert dup_job["state"] == "done"
        assert dup_job["cache_hit"] is True

        assert METRICS.counter("serve.cache.hit") == hits_before + 1
        _, _, metrics_body = _request(base, "/metrics")
        solves_after = json.loads(metrics_body)["ledger"]["gaussian_eliminations"]
        assert solves_after == solves_before  # no second GE solve

        # A distinct job computes fresh (different content address).
        status, other = _submit(base, {"dataset": "florida", "size": SIZE, "seed": 1})
        assert status == 202
        other_job = _wait_done(base, other["id"])
        assert other_job["state"] == "done" and other_job["cache_hit"] is False
        assert other_job["result_key"] != dup_job["result_key"]

        # Raw served field == local track_dense, bit for bit.
        status, _, field_bytes = _request(base, f"/v1/products/{first['id']}/field")
        assert status == 200
        ds = florida_thunderstorm(size=SIZE, n_frames=2, seed=0)
        config = ds.config.replace(n_zs=2, n_zt=3)
        reference = track_dense(
            prepare_frames(ds.frames[0].surface, ds.frames[1].surface, config)
        )
        with np.load(io.BytesIO(field_bytes)) as served:
            np.testing.assert_array_equal(served["u"], reference.u)
            np.testing.assert_array_equal(served["v"], reference.v)
            np.testing.assert_array_equal(served["error"], reference.error)

    def test_queue_full_gets_429_with_retry_hint(self, server):
        app, base = server
        app.pool.pause()  # hold workers so the queue actually fills
        try:
            # A worker already blocked inside claim() may steal one job
            # before the pause bites, so fill until backpressure hits;
            # it must hit within depth + workers + 1 distinct submissions.
            responses = []
            for seed in range(10, 10 + app.queue.max_depth + app.pool.workers + 1):
                responses.append(
                    _request(
                        base, "/v1/jobs", {"dataset": "florida", "size": SIZE, "seed": seed}
                    )
                )
                if responses[-1][0] == 429:
                    break
            status, headers, body = responses[-1]
            assert status == 429
            assert all(r[0] == 202 for r in responses[:-1])
            assert float(headers["Retry-After"]) > 0
            assert "retry" in json.loads(body)["error"].lower()
        finally:
            app.pool.resume()

    def test_wind_product_route(self, server):
        app, base = server
        _, accepted = _submit(base, {"dataset": "luis", "size": SIZE})
        _wait_done(base, accepted["id"])
        status, _, body = _request(base, f"/v1/products/{accepted['id']}")
        assert status == 200
        product = json.loads(body)
        assert product["wind"]["mean_speed_ms"] >= 0
        assert product["valid_pixels"] > 0
        assert len(product["barbs"]) > 0
        assert product["shape"] == [SIZE, SIZE]


class TestHttpErrorPaths:
    def test_bad_json_is_400(self, server):
        _, base = server
        req = urllib.request.Request(base + "/v1/jobs", data=b"{not json")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        assert exc.value.code == 400

    def test_validation_error_is_400(self, server):
        _, base = server
        status, body = _submit(base, {"dataset": "katrina"})
        assert status == 400 and "unknown dataset" in body["error"]

    def test_fault_injection_refused(self, server):
        _, base = server
        status, body = _submit(base, {"dataset": "florida", "inject_faults": "read:1"})
        assert status == 400 and "refused in serve mode" in body["error"]

    def test_unknown_job_is_404(self, server):
        _, base = server
        status, _, _ = _request(base, "/v1/jobs/job-999999")
        assert status == 404
        status, _, _ = _request(base, "/v1/products/job-999999")
        assert status == 404

    def test_unknown_route_is_404(self, server):
        _, base = server
        status, _, _ = _request(base, "/v1/nope")
        assert status == 404

    def test_healthz(self, server):
        _, base = server
        status, _, body = _request(base, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert set(health) >= {
            "queue_depth", "in_flight", "cache_entries",
            "jobs_dead", "jobs_retrying", "retry_after_seconds",
        }


class TestDeadLetterRoutes:
    def _make_dead(self, app):
        """Manufacture one dead-letter job directly on the queue.

        A non-retryable fail quarantines the job whether or not a
        worker already claimed it -- any late worker completion is
        dropped as stale (that suppression is part of what's under
        test).
        """
        from repro.serve.jobs import JobRequest

        job, _ = app.queue.submit(JobRequest(dataset="florida", size=SIZE, seed=99))
        app.queue.fail(job.id, "manufactured poison", retryable=False)
        assert app.queue.get(job.id).state == "dead"
        return job

    def test_dead_listing_and_requeue_round_trip(self, server):
        app, base = server
        job = self._make_dead(app)

        status, _, body = _request(base, "/v1/jobs?state=dead")
        assert status == 200
        listing = json.loads(body)
        assert listing["count"] == 1
        assert listing["jobs"][0]["id"] == job.id
        assert listing["jobs"][0]["error"] == "manufactured poison"

        # The product route reports the quarantine, not a hang.
        status, _, body = _request(base, f"/v1/products/{job.id}")
        assert status == 410 and "dead" in json.loads(body)["error"]

        # Requeue revives it with a fresh budget; the resumed worker
        # (no poison this time) completes it for real.
        status, _, body = _request(base, f"/v1/jobs/{job.id}/requeue", payload={})
        assert status == 200
        revived = json.loads(body)
        assert revived["state"] == "pending" and revived["attempts"] == 0
        finished = _wait_done(base, job.id)
        assert finished["state"] == "done"

        status, _, body = _request(base, "/v1/jobs?state=dead")
        assert json.loads(body)["count"] == 0

    def test_requeue_error_paths(self, server):
        app, base = server
        status, _, _ = _request(base, "/v1/jobs/job-999999/requeue", payload={})
        assert status == 404
        _, accepted = _submit(base, {"dataset": "florida", "size": SIZE})
        done = _wait_done(base, accepted["id"])
        status, _, body = _request(base, f"/v1/jobs/{done['id']}/requeue", payload={})
        assert status == 409 and "only dead jobs" in json.loads(body)["error"]

    def test_bad_state_filter_is_400(self, server):
        _, base = server
        status, _, body = _request(base, "/v1/jobs?state=zombie")
        assert status == 400 and "unknown job state" in json.loads(body)["error"]
